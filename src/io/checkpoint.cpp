#include "io/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/state_io.hpp"
#include "io/atomic_file.hpp"
#include "util/failpoint.hpp"

namespace casurf::io {

namespace {

/// File layout: 8-byte magic, u32 version, u32 CRC-32 of payload, u64
/// payload size, payload. The payload is a StateWriter stream: section
/// "meta" (identity of the writer, validated on restore), section "state"
/// (Simulator::save_state), section "user" (opaque caller blob).
constexpr std::array<std::uint8_t, 8> kMagic = {'C', 'A', 'S', 'U', 'R', 'F', 'C', 'K'};
constexpr std::size_t kHeaderSize = kMagic.size() + 4 + 4 + 8;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

void write_meta(StateWriter& w, const Simulator& sim) {
  w.section("meta");
  w.str(sim.name());
  const Lattice& lat = sim.configuration().lattice();
  w.u32(static_cast<std::uint32_t>(lat.width()));
  w.u32(static_cast<std::uint32_t>(lat.height()));
  const auto& names = sim.model().species().names();
  w.u64(names.size());
  for (const std::string& n : names) w.str(n);
  w.u64(sim.model().num_reactions());
  for (const ReactionType& rt : sim.model().reactions()) w.f64(rt.rate());
  w.f64(sim.time());
  w.u64(sim.counters().steps);
}

/// Parse and CRC-check the container, returning the payload bytes (a view
/// into `raw`, which must outlive the result) and the stored version.
std::span<const std::uint8_t> checked_payload(const std::string& raw,
                                              const std::string& path,
                                              std::uint32_t& version_out) {
  if (raw.size() < kHeaderSize) {
    throw CheckpointError(path + ": file too small to be a checkpoint (" +
                          std::to_string(raw.size()) + " bytes)");
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(raw.data());
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes)) {
    throw CheckpointError(path + ": bad magic (not a casurf checkpoint)");
  }
  StateReader header(std::span(bytes + kMagic.size(), kHeaderSize - kMagic.size()));
  version_out = header.u32();
  const std::uint32_t stored_crc = header.u32();
  const std::uint64_t payload_size = header.u64();
  if (version_out != kCheckpointVersion) {
    throw CheckpointError(path + ": unsupported version " + std::to_string(version_out) +
                          " (this build reads version " +
                          std::to_string(kCheckpointVersion) + ")");
  }
  if (payload_size != raw.size() - kHeaderSize) {
    throw CheckpointError(path + ": payload size " + std::to_string(payload_size) +
                          " does not match file size (truncated or trailing data)");
  }
  const std::span payload(bytes + kHeaderSize, static_cast<std::size_t>(payload_size));
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != stored_crc) {
    throw CheckpointError(path + ": CRC mismatch (file corrupt)");
  }
  return payload;
}

void read_meta_header(StateReader& r, CheckpointInfo& info) {
  r.expect_section("meta");
  info.algorithm = r.str();
  info.width = static_cast<std::int32_t>(r.u32());
  info.height = static_cast<std::int32_t>(r.u32());
  const std::uint64_t n_species = r.u64();
  if (n_species > 256) throw StateFormatError("implausible species count");
  info.species.reserve(static_cast<std::size_t>(n_species));
  for (std::uint64_t i = 0; i < n_species; ++i) info.species.push_back(r.str());
}

/// The reaction count and the per-type rates that follow the meta header.
std::vector<double> read_rates(StateReader& r) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / 8) throw StateFormatError("reaction count exceeds remaining stream");
  std::vector<double> rates(static_cast<std::size_t>(n));
  for (double& rate : rates) rate = r.f64();
  return rates;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void save_checkpoint(const std::string& path, const Simulator& sim,
                     std::string_view user_section) {
  // One buffer holds the file: the header, whose CRC and payload size stay
  // zero until the payload behind them is written, then the payload. A
  // counting pass through the same routine sizes the buffer first; grown by
  // doubling, it would hold two copies of the file at its last growth.
  const auto write_file = [&](StateWriter& w) {
    for (const std::uint8_t b : kMagic) w.u8(b);
    w.u32(kCheckpointVersion);
    w.u32(0);  // CRC-32 of the payload
    w.u64(0);  // payload size
    write_meta(w, sim);
    w.section("state");
    sim.save_state(w);
    w.section("user");
    w.str(user_section);
  };
  StateWriter sizing = StateWriter::counting();
  write_file(sizing);
  StateWriter w;
  w.reserve(sizing.size());
  write_file(w);

  std::vector<std::uint8_t> file = w.take();
  const std::span<const std::uint8_t> payload(file.begin() + kHeaderSize, file.end());
  StateWriter check;
  check.u32(crc32(payload));
  check.u64(payload.size());
  std::ranges::copy(check.buffer(), file.begin() + kMagic.size() + 4);

  // Fault injection (docs/ROBUSTNESS.md): both failpoints simulate damage
  // the atomic write canNOT catch — the write itself succeeds, and only a
  // later restore discovers the file is unusable (CRC mismatch / short
  // payload) and falls back to the previous generation.
  static constexpr fail::Failpoint kCorrupt{"io/checkpoint/corrupt"};
  static constexpr fail::Failpoint kTruncate{"io/checkpoint/truncate"};
  std::size_t size = file.size();
  if (kCorrupt.fire() && !payload.empty()) {
    file[kHeaderSize + payload.size() / 2] ^= 0x01;  // one bit of bit rot
  }
  if (kTruncate.fire()) size /= 2;

  try {
    atomic_write_file(path,
                      std::string_view(reinterpret_cast<const char*>(file.data()), size));
  } catch (const std::exception& e) {
    throw CheckpointError(e.what());
  }
}

CheckpointInfo peek_checkpoint(const std::string& path) {
  std::string raw;
  try {
    raw = read_file(path);
  } catch (const std::exception& e) {
    throw CheckpointError(e.what());
  }
  CheckpointInfo info;
  const std::span payload = checked_payload(raw, path, info.version);
  try {
    StateReader r(payload);
    read_meta_header(r, info);
    (void)read_rates(r);
    info.time = r.f64();
    info.steps = r.u64();
  } catch (const StateFormatError& e) {
    throw CheckpointError(path + ": " + e.what());
  }
  return info;
}

std::string restore_checkpoint(const std::string& path, Simulator& sim) {
  std::string raw;
  try {
    raw = read_file(path);
  } catch (const std::exception& e) {
    throw CheckpointError(e.what());
  }
  std::uint32_t version = 0;
  const std::span payload = checked_payload(raw, path, version);

  try {
    StateReader r(payload);
    CheckpointInfo info;
    read_meta_header(r, info);
    const std::vector<double> rates = read_rates(r);
    (void)r.f64();  // time (restored via sim state)
    (void)r.u64();  // steps (restored via sim state)

    if (info.algorithm != sim.name()) {
      throw CheckpointError(path + ": written by algorithm '" + info.algorithm +
                            "', cannot restore into '" + sim.name() + "'");
    }
    const Lattice& lat = sim.configuration().lattice();
    if (info.width != lat.width() || info.height != lat.height()) {
      throw CheckpointError(path + ": lattice " + std::to_string(info.width) + "x" +
                            std::to_string(info.height) + " does not match simulator " +
                            std::to_string(lat.width()) + "x" +
                            std::to_string(lat.height()));
    }
    if (info.species != sim.model().species().names()) {
      throw CheckpointError(path + ": species domain differs from the simulator's model");
    }
    if (rates.size() != sim.model().num_reactions()) {
      throw CheckpointError(path + ": model has " + std::to_string(rates.size()) +
                            " reaction types, simulator has " +
                            std::to_string(sim.model().num_reactions()));
    }
    // Bit-compared type by type: a total can stay fixed while the rates
    // move (ZgbParams::from_y keeps K for every y).
    for (ReactionIndex t = 0; t < rates.size(); ++t) {
      const ReactionType& rt = sim.model().reaction(t);
      if (std::bit_cast<std::uint64_t>(rates[t]) != std::bit_cast<std::uint64_t>(rt.rate())) {
        std::ostringstream msg;
        msg.precision(17);
        msg << path << ": rate of reaction type '" << rt.name() << "' is " << rates[t]
            << " in the checkpoint, " << rt.rate() << " in the simulator's model";
        throw CheckpointError(msg.str());
      }
    }

    r.expect_section("state");
    sim.restore_state(r);
    r.expect_section("user");
    // Not r.str(): the user blob may exceed the reader's string sanity cap.
    const std::uint64_t user_len = r.u64();
    if (user_len > r.remaining()) {
      throw StateFormatError("user section length exceeds remaining stream");
    }
    std::string user(static_cast<std::size_t>(user_len), '\0');
    if (user_len > 0) r.bytes(user.data(), user.size());
    r.expect_end();
    return user;
  } catch (const StateFormatError& e) {
    throw CheckpointError(path + ": " + e.what());
  }
}

}  // namespace casurf::io
