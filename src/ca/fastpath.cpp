#include "ca/fastpath.hpp"

#include <algorithm>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#endif

#include "rng/counter_rng.hpp"

namespace casurf {

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
