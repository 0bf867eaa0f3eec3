// Trajectory pins for the exact event-driven simulators. Each case runs
// VSSM or FRM for 2,000 events (fewer if the run reaches an absorbing
// state) from a random start and compares a 64-bit digest of the
// simulator's save_state bytes with the value recorded when the pin was
// written. Those bytes hold the configuration, the clock, the generator
// state, the counters and the order-dependent stores (VSSM's set layouts,
// FRM's heap array), so a change to the recheck visit order, to how the
// visits are applied or to the draws moves a digest, while a change to how
// fast the same trajectory is computed does not.
//
// The clock is a sum of exponential waiting times, each computed through
// libm's log, so the digests also pin that function: a different libm can
// move them with no change to this library.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/state_io.hpp"
#include "dmc/vssm.hpp"
#include "dmc_bookkeeping.hpp"
#include "models/zgb.hpp"

namespace casurf {
namespace {

constexpr int kEvents = 2000;

/// One pinned case: the model, the lattice, the seed of the start and of
/// the simulator, and the digest each simulator's state must have after
/// kEvents events.
struct Pin {
  const char* model;
  std::int32_t width;
  std::int32_t height;
  std::uint64_t seed;
  std::uint64_t vssm;
  std::uint64_t frm;
};

void PrintTo(const Pin& pin, std::ostream* os) {
  std::string model = pin.model;
  std::replace(model.begin(), model.end(), '.', '_');
  *os << model << "_" << pin.width << "x" << pin.height << "_seed" << pin.seed;
}

ReactionModel make_model(const std::string& name) {
  if (name == "zgb") return models::make_zgb(models::ZgbParams::from_y(0.45, 20.0)).model;
  if (name == "pt100") return models::make_pt100().model;
  if (name == "diffusion") return models::make_diffusion().model;
  if (name == "single_file") return models::make_single_file().model;
  if (name == "ising") return models::make_ising(0.5).model;
  return parse_model_file(std::string(CASURF_DATA_DIR "/") + name);
}

/// FNV-1a over the state's bytes.
std::uint64_t digest(const Simulator& sim) {
  StateWriter w;
  sim.save_state(w);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : w.buffer()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Every site holds a species drawn uniformly (for the two-species models,
/// diffusion among them, a coverage of 0.5), so every mask shape is in play
/// from the first event.
template <class Sim>
std::uint64_t run_digest(const Pin& pin) {
  const ReactionModel model = make_model(pin.model);
  Sim sim(model, random_configuration(model, pin.width, pin.height, pin.seed), pin.seed);
  for (int i = 0; i < kEvents; ++i) sim.mc_step();
  return digest(sim);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

class DmcPin : public ::testing::TestWithParam<Pin> {};

TEST_P(DmcPin, Vssm) {
  EXPECT_EQ(hex(run_digest<VssmSimulator>(GetParam())), hex(GetParam().vssm));
}

TEST_P(DmcPin, Frm) {
  EXPECT_EQ(hex(run_digest<FrmSimulator>(GetParam())), hex(GetParam().frm));
}

// zgb, pt100, diffusion, single_file and ising are the built-in models
// casurf_run --model builds, the names ending in .model the files under
// data/. 2x2 and 3x1 are the lattices where recheck offsets alias after
// the wrap.
const Pin kPins[] = {
    {"zgb", 2, 2, 3, 0x0da0121a0293d3b3, 0xf6927722f04e0ee6},
    {"zgb", 2, 2, 7, 0x368c3c5d303dfcb9, 0xe184643da325c8c6},
    {"zgb", 3, 1, 3, 0x88b39cd5b88dce52, 0xc7e9dbe0386a000c},
    {"zgb", 3, 1, 7, 0xe7a03b3941d44961, 0x4d0774a28183cfc7},
    {"zgb", 31, 17, 3, 0x673d277176caf579, 0xf775e4191d0ae09d},
    {"zgb", 31, 17, 7, 0x276c18c4076f0baa, 0xc6a1fa168c9c3ac1},
    {"zgb", 64, 64, 3, 0x907dd5bd213ee663, 0xdd6b13d6fe4d27b8},
    {"zgb", 64, 64, 7, 0x003d9003b88fe052, 0x3d128dfa294090b3},
    {"pt100", 2, 2, 3, 0xa55998eef753db99, 0xff19571324a25deb},
    {"pt100", 2, 2, 7, 0xc700dd7bb8f0caaf, 0x0999556de0d5cbd8},
    {"pt100", 3, 1, 3, 0x5c4d7e2478f39a1d, 0xca7f533365477843},
    {"pt100", 3, 1, 7, 0xaded9dc2975c756f, 0x3ac7be5c1758e8f4},
    {"pt100", 31, 17, 3, 0x91c527f046cf066e, 0xd39f4fbf15a3dee2},
    {"pt100", 31, 17, 7, 0xa58b7de7316ca1d7, 0xa0e638b84dc4da4d},
    {"pt100", 64, 64, 3, 0x3ff236960f2c3ae5, 0x6faaecf643ae40e0},
    {"pt100", 64, 64, 7, 0xc3f528489c4c64c7, 0xa35be1e40df01e7a},
    {"diffusion", 2, 2, 3, 0xed01f92dc678046e, 0xf315972d44c88bca},
    {"diffusion", 2, 2, 7, 0xc8ec00555d61e753, 0xcacf83392e36f44d},
    {"diffusion", 3, 1, 3, 0xae6bb61701529a4f, 0x8a0c019899fcac0c},
    {"diffusion", 3, 1, 7, 0x68f8a410f351878e, 0xe9988c0e4953f8e4},
    {"diffusion", 31, 17, 3, 0x0e3e27eea31ca989, 0x477b855e3f7d5af9},
    {"diffusion", 31, 17, 7, 0xeef00499ae77cbe4, 0x44584149fe48e54f},
    {"diffusion", 64, 64, 3, 0x9260e9ba4e40a338, 0xb29c289ddd4b3dad},
    {"diffusion", 64, 64, 7, 0xf1c9fddfa93269cb, 0x3a18d123bb4a6e8c},
    {"single_file", 2, 2, 3, 0x1f1994c352a055b3, 0x3c961a6934a0aede},
    {"single_file", 2, 2, 7, 0xb6f0788431288cb0, 0x588698ced72287af},
    {"single_file", 3, 1, 3, 0x0821d1ab7d54495e, 0x8189fe3319ee25d1},
    {"single_file", 3, 1, 7, 0x8d645f147b65be44, 0x3b2a3a2995f0a8fd},
    {"single_file", 31, 17, 3, 0xfb4cb63be78d02c8, 0xe0dd9618ee35da2b},
    {"single_file", 31, 17, 7, 0xe806baa5b9842789, 0x1c989c1e16bd4312},
    {"single_file", 64, 64, 3, 0xbc02f118643d8e02, 0x1d8a7a3b001c2174},
    {"single_file", 64, 64, 7, 0xe2193f5624f58ed9, 0x46dd5ae84af1c167},
    {"ising", 2, 2, 3, 0xb240c055fdb4c64a, 0x7a1dbfd8987ddeda},
    {"ising", 2, 2, 7, 0x24704fed55f5e4b9, 0x7776b42a7757cd0b},
    {"ising", 3, 1, 3, 0x1773cd944f8cce2b, 0x57e5238cd3424780},
    {"ising", 3, 1, 7, 0xa59e6ff9ec4d13d5, 0x272eba6cf2e62da2},
    {"ising", 31, 17, 3, 0xde9ab305cb237b10, 0xe80884a64c2080d2},
    {"ising", 31, 17, 7, 0xe60a1bab8a5376b5, 0x096985a580c17c1b},
    {"ising", 64, 64, 3, 0x63b7221f45d0747b, 0xd011e8a9498edcf2},
    {"ising", 64, 64, 7, 0x9eb6974c5c4890da, 0x8dc30d33280149c1},
    {"ab_annihilation.model", 2, 2, 3, 0xeca14248a2fb4619, 0x23173feba91a0785},
    {"ab_annihilation.model", 2, 2, 7, 0x6ed283636c448dd9, 0x23979c10d3d77783},
    {"ab_annihilation.model", 3, 1, 3, 0xa1b40b2f09fb3595, 0x7696bdeca9d4a0aa},
    {"ab_annihilation.model", 3, 1, 7, 0xf1e21ab4af25efba, 0x50869ac8dbfc76e3},
    {"ab_annihilation.model", 31, 17, 3, 0xab79977f84702f8c, 0x6113d57487c3ada4},
    {"ab_annihilation.model", 31, 17, 7, 0x14daeca72b8ca5f9, 0x0e25d8108c777fa8},
    {"ab_annihilation.model", 64, 64, 3, 0xdcace130269d4151, 0xb09eabe3cd733700},
    {"ab_annihilation.model", 64, 64, 7, 0xd8b710b65d492f1c, 0x033881b51fba8ad9},
    {"single_file.model", 2, 2, 3, 0x1f1994c352a055b3, 0x3c961a6934a0aede},
    {"single_file.model", 2, 2, 7, 0xb6f0788431288cb0, 0x588698ced72287af},
    {"single_file.model", 3, 1, 3, 0x0821d1ab7d54495e, 0x8189fe3319ee25d1},
    {"single_file.model", 3, 1, 7, 0x8d645f147b65be44, 0x3b2a3a2995f0a8fd},
    {"single_file.model", 31, 17, 3, 0xfb4cb63be78d02c8, 0xe0dd9618ee35da2b},
    {"single_file.model", 31, 17, 7, 0xe806baa5b9842789, 0x1c989c1e16bd4312},
    {"single_file.model", 64, 64, 3, 0xbc02f118643d8e02, 0x1d8a7a3b001c2174},
    {"single_file.model", 64, 64, 7, 0xe2193f5624f58ed9, 0x46dd5ae84af1c167},
    {"zgb.model", 2, 2, 3, 0x83b2225cb0dc4bd3, 0xaeb8bd9e9e4fe942},
    {"zgb.model", 2, 2, 7, 0xb8940f8b3df1e60b, 0x8cbfbfd6d6348465},
    {"zgb.model", 3, 1, 3, 0x57605805c6a42beb, 0x7b17737fd8a9ec12},
    {"zgb.model", 3, 1, 7, 0x80785eb2d7ddc41a, 0x2abfa90941f93021},
    {"zgb.model", 31, 17, 3, 0x9dbc4ddafbfe5da4, 0xe19d096b2ab7c6dd},
    {"zgb.model", 31, 17, 7, 0x688547691417553f, 0xe0217010b413eac3},
    {"zgb.model", 64, 64, 3, 0x588905d066c90a49, 0xcc1a4fc466075566},
    {"zgb.model", 64, 64, 7, 0x0bdc289cea3030c9, 0xf55730ca35149544},
};

INSTANTIATE_TEST_SUITE_P(Pins, DmcPin, ::testing::ValuesIn(kPins),
                         [](const auto& row) {
                           std::ostringstream os;
                           PrintTo(row.param, &os);
                           return os.str();
                         });

}  // namespace
}  // namespace casurf
