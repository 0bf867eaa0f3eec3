#include "ca/fastpath.hpp"

#include <algorithm>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#endif

#include "rng/counter_rng.hpp"

namespace casurf {

ProbePlans::ProbePlans(const ReactionModel& model, std::int32_t width,
                       std::int32_t height)
    : width_(width), height_(height) {
  const std::size_t num_species = model.species().size();
  const SpeciesMask full =
      num_species >= 32 ? ~SpeciesMask{0}
                        : static_cast<SpeciesMask>((SpeciesMask{1} << num_species) - 1);
  types_.resize(model.num_reactions());
  for (ReactionIndex t = 0; t < model.num_reactions(); ++t) {
    TypeSpan& ts = types_[t];
    ts.first = static_cast<std::uint32_t>(probes_.size());
    for (const Transform& tr : model.reaction(t).transforms()) {
      const SpeciesMask m = tr.src & full;
      if (m == full) continue;  // matches every species: always true
      if (m == 0) {             // matches nothing: the type can never fire
        ts.never = true;
        break;
      }
      Probe p;
      // Wrap the offsets once so evaluation needs only a conditional
      // subtract per axis: anchor + wrapped offset lands in [0, 2*extent).
      p.dx = ((tr.offset.x % width) + width) % width;
      p.dy = ((tr.offset.y % height) + height) % height;
      p.first_sp = static_cast<std::uint32_t>(species_.size());
      for (Species sp = 0; sp < num_species; ++sp) {
        if (mask_contains(m, sp)) species_.push_back(sp);
      }
      p.num_sp = static_cast<std::uint32_t>(species_.size()) - p.first_sp;
      probes_.push_back(p);
    }
    ts.count = ts.never ? 0
                        : static_cast<std::uint32_t>(probes_.size()) - ts.first;
    if (ts.never) probes_.resize(ts.first);
    if (ts.never) continue;
    // enabled() is a short-circuiting conjunction over the probes and each
    // Probe carries its own species span, so their order is free to choose:
    // test the most selective (fewest matching species) probes first to
    // exit on a miss as early as possible.
    std::stable_sort(probes_.begin() + ts.first, probes_.end(),
                     [](const Probe& a, const Probe& b) {
                       return a.num_sp < b.num_sp;
                     });
    // Recheck table: a write at z can flip type t anchored at z - o only
    // for the offsets o of the probes kept above (trivial transforms can
    // never flip a result). Offsets are deduplicated after wrapping, so
    // tiny lattices where distinct offsets alias don't visit twice.
    for (std::uint32_t pi = ts.first; pi < ts.first + ts.count; ++pi) {
      const std::int32_t rdx = probes_[pi].dx == 0 ? 0 : width - probes_[pi].dx;
      const std::int32_t rdy = probes_[pi].dy == 0 ? 0 : height - probes_[pi].dy;
      SpeciesMask pmask = 0;
      for (std::uint32_t k = 0; k < probes_[pi].num_sp; ++k) {
        pmask |= SpeciesMask{1} << species_[probes_[pi].first_sp + k];
      }
      bool seen = false;
      for (std::size_t k = rechecks_.size();
           k > 0 && rechecks_[k - 1].type == t; --k) {
        if (rechecks_[k - 1].dx == rdx && rechecks_[k - 1].dy == rdy) {
          // Offsets aliasing after the wrap merge their masks: the entry
          // stays relevant to any species either probe watches. The merged
          // mask no longer describes a single probe's hit bit, so the
          // single-probe visit shortcuts must not apply to it.
          rechecks_[k - 1].mask |= pmask;
          rechecks_[k - 1].multi = true;
          seen = true;
        }
      }
      if (!seen) rechecks_.push_back({rdx, rdy, t, pmask, false});
    }
  }
}

void EnabledTypeSet::rebuild(const SpeciesBitplanes& planes,
                             const ProbePlans& probes) {
  const std::int32_t width = planes.width();
  const std::int32_t height = planes.height();
  const std::size_t num_types = probes.num_types();
  words_per_site_ = (num_types + 63) / 64;
  bits_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
                   words_per_site_,
               0);
  SiteIndex s = 0;
  for (std::int32_t y = 0; y < height; ++y) {
    for (std::int32_t x = 0; x < width; ++x, ++s) {
      for (ReactionIndex t = 0; t < num_types; ++t) {
        if (probes.enabled(planes, t, x, y)) assign(s, t, true);
      }
    }
  }
}

namespace {

/// Reference lane loop: the portable sample_types, also the tail of the
/// vector path.
void sample_types_scalar(std::uint64_t sweep, std::uint64_t seed_hash,
                         const SiteIndex* sites, std::size_t n,
                         const AliasTable& alias, ReactionIndex* out) {
  for (std::size_t i = 0; i < n; ++i) {
    // seed_hash ^ mix64(key) == CounterRng::stream_base(seed, key), the
    // seed half hoisted out of the loop. First draw = flip, second = slot.
    const std::uint64_t base = seed_hash ^ mix64(CounterRng::key(sweep, sites[i]));
    const double u_flip = CounterRng::to_unit(CounterRng::nth(base, 1));
    const double u_slot = CounterRng::to_unit(CounterRng::nth(base, 2));
    out[i] = static_cast<ReactionIndex>(alias.sample(u_slot, u_flip));
  }
}

#if defined(__GNUC__) && defined(__x86_64__)

// Pin the vector constants to the scalar definitions they must mirror: the
// golden-ratio stride of CounterRng::nth and the step multiplier inside
// CounterRng::key. A drift in either would silently fork the trajectories.
static_assert(CounterRng::nth(0, 1) == mix64(0x9e3779b97f4a7c15ULL),
              "counter stride changed; update the vector kernel");
static_assert(CounterRng::key(1, 0) == mix64(0xd1342543de82ef95ULL),
              "counter step multiplier changed; update the vector kernel");

#define CASURF_AVX512 __attribute__((target("avx2,avx512f,avx512dq,avx512vl")))

/// mix64 (the SplitMix64 finalizer), eight lanes at a time. vpmullq keeps
/// the low 64 bits like the scalar wrap-around multiply, so every lane is
/// bit-identical to mix64().
CASURF_AVX512 inline __m512i mix64x8(__m512i z) {
  z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 30));
  z = _mm512_mullo_epi64(
      z, _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 27));
  z = _mm512_mullo_epi64(
      z, _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/// Eight sites per iteration: counter streams, unit-interval draws, alias
/// slot/flip. Every floating-point and integer step is the exact IEEE /
/// mod-2^64 operation of the scalar path, so the types agree bit for bit.
CASURF_AVX512 void sample_types_avx512(std::uint64_t sweep, std::uint64_t seed_hash,
                                       const SiteIndex* sites, std::size_t n,
                                       const AliasTable& alias, ReactionIndex* out) {
  static_assert(sizeof(SiteIndex) == 4 && sizeof(ReactionIndex) == 4,
                "the lanes load sites and store types as 32-bit words");
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  const __m512i stepv =
      _mm512_set1_epi64(static_cast<long long>(CounterRng::step_word(sweep)));
  const __m512i seedv = _mm512_set1_epi64(static_cast<long long>(seed_hash));
  const __m512i golden1 = _mm512_set1_epi64(static_cast<long long>(kGolden));
  const __m512i golden2 = _mm512_set1_epi64(static_cast<long long>(2 * kGolden));
  const __m512d unit = _mm512_set1_pd(0x1.0p-53);
  const std::uint64_t size = alias.size();
  const __m512d sized = _mm512_set1_pd(static_cast<double>(size));
  const __m512i size_m1 = _mm512_set1_epi64(static_cast<long long>(size - 1));
  const double* prob = alias.prob_data();
  const std::uint32_t* alias_tab = alias.alias_data();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i s32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sites + i));
    const __m512i site = _mm512_cvtepu32_epi64(s32);
    const __m512i key = mix64x8(_mm512_add_epi64(stepv, site));
    const __m512i base = _mm512_xor_si512(seedv, mix64x8(key));
    const __m512i r1 = mix64x8(_mm512_add_epi64(base, golden1));
    const __m512i r2 = mix64x8(_mm512_add_epi64(base, golden2));
    const __m512d u_flip =
        _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(r1, 11)), unit);
    const __m512d u_slot =
        _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(r2, 11)), unit);
    const __m512i slot = _mm512_min_epu64(
        _mm512_cvttpd_epu64(_mm512_mul_pd(u_slot, sized)), size_m1);
    const __m512d p = _mm512_i64gather_pd(slot, prob, 8);
    const __mmask8 keep = _mm512_cmp_pd_mask(u_flip, p, _CMP_LT_OQ);
    const __m256i slot32 = _mm512_cvtepi64_epi32(slot);
    // Lanes passing the flip keep their slot; only the rest read the alias
    // column — a masked gather, so the common all-keep block costs nothing.
    const __m256i rt = _mm512_mask_i64gather_epi32(
        slot32, static_cast<__mmask8>(~keep), slot, alias_tab, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), rt);
  }
  // GCC's automatic vzeroupper insertion does not fire for functions
  // vectorized via the target attribute alone (the TU itself is built
  // without AVX), and returning with dirty upper zmm state makes every
  // subsequent SSE-encoded libm call — e.g. the stochastic time advance's
  // log() — pay the VEX transition penalty, slowing the *rest of the step*
  // by an order of magnitude. Clear the state explicitly.
  _mm256_zeroupper();
  sample_types_scalar(sweep, seed_hash, sites + i, n - i, alias, out + i);
}

#endif  // __GNUC__ && __x86_64__

}  // namespace

void sample_types(std::uint64_t sweep, std::uint64_t seed_hash, const SiteIndex* sites,
                  std::size_t n, const AliasTable& alias, ReactionIndex* out) {
#if defined(__GNUC__) && defined(__x86_64__)
  static const bool have_avx512 = __builtin_cpu_supports("avx512f") &&
                                  __builtin_cpu_supports("avx512dq") &&
                                  __builtin_cpu_supports("avx512vl");
  if (have_avx512 && !alias.empty()) {
    sample_types_avx512(sweep, seed_hash, sites, n, alias, out);
    return;
  }
#endif
  sample_types_scalar(sweep, seed_hash, sites, n, alias, out);
}

std::size_t batch_trials(std::uint64_t sweep, std::uint64_t seed_hash,
                         const SiteIndex* sites, std::size_t n,
                         const AliasTable& alias, const EnabledTypeSet& enabled,
                         TrialHit* out) {
  // Sampled in blocks so the type scratch lives on the stack.
  constexpr std::size_t kBlock = 256;
  ReactionIndex types[kBlock];
  std::size_t cnt = 0;
  for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
    const std::size_t m = std::min(kBlock, n - i0);
    sample_types(sweep, seed_hash, sites + i0, m, alias, types);
    for (std::size_t i = 0; i < m; ++i) {
      if (enabled.test(sites[i0 + i], types[i])) {
        out[cnt++] = {static_cast<std::uint32_t>(i0 + i), types[i]};
      }
    }
  }
  return cnt;
}

}  // namespace casurf
