#include "ca/fastpath.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>

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
  for (ReactionIndex t = 0; t < num_types; ++t) {
    probes.for_each_enabled(planes, t, [&](SiteIndex s) { assign(s, t, true); });
  }
}

namespace {

/// The reference lanes of both sampling entries, also their vector path's
/// tail. Stream i is keyed by (step, word), where the key word is sites[i]
/// (sample_types) or first + i (sample_trials, kTrials). Its stream word is
/// seed_hash ^ mix64(step_word(step) + word); the stream's first output
/// draws the type through the alias table's slot and flip, and under
/// kTrials its second goes to draws[i].
template <bool kTrials>
void sample_scalar(std::uint64_t step, std::uint64_t seed_hash, const SiteIndex* sites,
                   std::uint64_t first, std::size_t n, const AliasTable& alias,
                   ReactionIndex* out, std::uint64_t* draws) {
  const std::uint64_t step_word = CounterRng::step_word(step);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = kTrials ? first + i : sites[i];
    const std::uint64_t word = seed_hash ^ mix64(step_word + key);
    out[i] = static_cast<ReactionIndex>(alias.sample_bits(CounterRng::nth(word, 1)));
    if constexpr (kTrials) draws[i] = CounterRng::nth(word, 2);
  }
}

/// The site map's reference lanes over [from, n), and its tail.
void chunk_sites_from(const std::uint64_t* draws, std::size_t from, std::size_t n,
                      const SiteIndex* chunk, std::uint32_t size, SiteIndex* out) {
  for (std::size_t i = from; i < n; ++i) out[i] = chunk[chunk_position(draws[i], size)];
}

/// The scalar lanes of first_recurring_hit.
std::size_t first_recurring_hit_scalar(const SiteIndex* sites, std::size_t n,
                                       const std::uint32_t* hits, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    if (std::find(sites + hits[k] + 1, sites + n, sites[hits[k]]) != sites + n) return k;
  }
  return count;
}

/// The scalar lanes of enabled_trials over trials [from, n), appending the
/// indices that pass to hits[count...]; returns the new count.
std::size_t enabled_trials_from(const ProbePlans& probes, const Configuration& config,
                                const SiteIndex* sites, const ReactionIndex* types,
                                std::size_t from, std::size_t n, std::uint32_t* hits,
                                std::size_t count) {
  const Lattice& lat = config.lattice();
  for (std::size_t i = from; i < n; ++i) {
    const Vec2 c = lat.coord(sites[i]);
    if (probes.enabled(config, types[i], c.x, c.y)) {
      hits[count++] = static_cast<std::uint32_t>(i);
    }
  }
  return count;
}

#if defined(__GNUC__) && defined(__x86_64__)

bool have_avx512() {
  static const bool have = __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512dq") &&
                           __builtin_cpu_supports("avx512vl");
  return have;
}

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

/// Alias tables of at most this many columns sit in one register each, so
/// ZGB's and diffusion's draws run without a gather (measured against the
/// gather for every table in docs/ALGORITHMS.md, "Two mixes per trial").
constexpr std::size_t kRegisterColumns = 16;

/// Eight streams per iteration: stream words, first outputs, alias slot and
/// flip, and under kTrials the second outputs. The slot is the high word of
/// hi32(r) * size, in one 32 x 32-bit multiply per lane, so every lane
/// equals sample_scalar bit for bit. With kSmall (at most kRegisterColumns
/// columns) the thresholds and the alias column sit in a register each and
/// a lookup is one permute, as in enabled_trials_avx512; otherwise the
/// thresholds are gathered, and the alias column only for lanes that fail
/// the flip.
template <bool kTrials, bool kSmall>
CASURF_AVX512 void sample_avx512(std::uint64_t step, std::uint64_t seed_hash,
                                 const SiteIndex* sites, std::uint64_t first,
                                 std::size_t n, const AliasTable& alias,
                                 ReactionIndex* out, std::uint64_t* draws) {
  static_assert(sizeof(SiteIndex) == 4 && sizeof(ReactionIndex) == 4,
                "the lanes load sites and store types as 32-bit words");
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  const __m512i stepv =
      _mm512_set1_epi64(static_cast<long long>(CounterRng::step_word(step)));
  const __m512i seedv = _mm512_set1_epi64(static_cast<long long>(seed_hash));
  const __m512i golden1 = _mm512_set1_epi64(static_cast<long long>(kGolden));
  const __m512i golden2 = _mm512_set1_epi64(static_cast<long long>(2 * kGolden));
  const __m512i sizev = _mm512_set1_epi64(static_cast<long long>(alias.size()));
  const std::uint32_t* thr_tab = alias.threshold_data();
  const std::uint32_t* alias_tab = alias.alias_data();
  __m512i thr_reg = _mm512_setzero_si512();
  __m512i alias_reg = _mm512_setzero_si512();
  if constexpr (kSmall) {
    const auto live = static_cast<__mmask16>((1u << alias.size()) - 1);
    thr_reg = _mm512_maskz_loadu_epi32(live, thr_tab);
    alias_reg = _mm512_maskz_loadu_epi32(live, alias_tab);
  }
  // The key words of the next eight streams: trial indices count up by 8.
  __m512i trial = _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(first)),
                                   _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  const __m512i eight = _mm512_set1_epi64(8);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i key = trial;
    if constexpr (kTrials) {
      trial = _mm512_add_epi64(trial, eight);
    } else {
      key = _mm512_cvtepu32_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sites + i)));
    }
    const __m512i word = _mm512_xor_si512(seedv, mix64x8(_mm512_add_epi64(stepv, key)));
    const __m512i r = mix64x8(_mm512_add_epi64(word, golden1));
    if constexpr (kTrials) {
      _mm512_storeu_si512(draws + i, mix64x8(_mm512_add_epi64(word, golden2)));
    }
    // Each 64-bit lane holds its slot in the low half and zero in the high
    // half; r's low half is the flip.
    const __m512i slot =
        _mm512_srli_epi64(_mm512_mul_epu32(_mm512_srli_epi64(r, 32), sizev), 32);
    __m256i rt;
    if constexpr (kSmall) {
      // 32-bit element 2j is lane j's own; the odd elements are ignored.
      const __mmask16 keep =
          _mm512_cmplt_epu32_mask(r, _mm512_permutexvar_epi32(slot, thr_reg));
      rt = _mm512_cvtepi64_epi32(
          _mm512_mask_blend_epi32(keep, _mm512_permutexvar_epi32(slot, alias_reg), slot));
    } else {
      const __m256i thr = _mm512_i64gather_epi32(slot, thr_tab, 4);
      const __mmask8 keep = _mm256_cmplt_epu32_mask(_mm512_cvtepi64_epi32(r), thr);
      // Lanes passing the flip keep their slot; only the rest read the
      // alias column.
      rt = _mm512_mask_i64gather_epi32(_mm512_cvtepi64_epi32(slot),
                                       static_cast<__mmask8>(~keep), slot, alias_tab, 4);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), rt);
  }
  // GCC's automatic vzeroupper insertion does not fire for functions
  // vectorized via the target attribute alone (the TU itself is built
  // without AVX), and returning with dirty upper zmm state makes every
  // subsequent SSE-encoded libm call — e.g. the stochastic time advance's
  // log() — pay the VEX transition penalty, slowing the *rest of the step*
  // by an order of magnitude. Clear the state explicitly.
  _mm256_zeroupper();
  sample_scalar<kTrials>(step, seed_hash, sites + (kTrials ? 0 : i), first + i, n - i,
                         alias, out + i, draws + (kTrials ? i : 0));
}

/// sample_avx512 with its table path chosen by the alias table's size.
template <bool kTrials>
void sample_lanes(std::uint64_t step, std::uint64_t seed_hash, const SiteIndex* sites,
                  std::uint64_t first, std::size_t n, const AliasTable& alias,
                  ReactionIndex* out, std::uint64_t* draws) {
  if (alias.size() <= kRegisterColumns) {
    sample_avx512<kTrials, true>(step, seed_hash, sites, first, n, alias, out, draws);
  } else {
    sample_avx512<kTrials, false>(step, seed_hash, sites, first, n, alias, out, draws);
  }
}

/// Eight sites per iteration. The 64 x 32-bit product's high word is
/// hi * size + (lo * size >> 32), shifted right by 32, with hi and lo the
/// halves of the draw: the row reciprocal's trick in enabled_trials_avx512.
/// The sum cannot overflow, so every position equals the scalar
/// multiply-shift. The sites are gathered by those 64-bit positions, which
/// stay below 2^32, so every chunk size takes the lanes.
CASURF_AVX512 void chunk_sites_avx512(const std::uint64_t* draws, std::size_t n,
                                      const SiteIndex* chunk, std::uint32_t size,
                                      SiteIndex* out) {
  const __m512i sizev = _mm512_set1_epi64(static_cast<long long>(size));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i r = _mm512_loadu_si512(draws + i);
    const __m512i low = _mm512_srli_epi64(_mm512_mul_epu32(r, sizev), 32);
    const __m512i high = _mm512_mul_epu32(_mm512_srli_epi64(r, 32), sizev);
    const __m512i pos = _mm512_srli_epi64(_mm512_add_epi64(high, low), 32);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_i64gather_epi32(pos, chunk, 4));
  }
  _mm256_zeroupper();  // see sample_avx512
  chunk_sites_from(draws, i, n, chunk, size, out);
}

/// Each hit's site against the 16 later sites of a register per compare;
/// the last load of a hit is masked to the sites below n, so no lane reads
/// past the span.
CASURF_AVX512 std::size_t first_recurring_hit_avx512(const SiteIndex* sites, std::size_t n,
                                                     const std::uint32_t* hits,
                                                     std::size_t count) {
  std::size_t k = 0;
  for (; k < count; ++k) {
    const __m512i site = _mm512_set1_epi32(static_cast<int>(sites[hits[k]]));
    bool recurs = false;
    for (std::size_t j = hits[k] + 1; j < n && !recurs; j += 16) {
      const auto live =
          static_cast<__mmask16>(n - j >= 16 ? 0xffffu : (1u << (n - j)) - 1);
      const __m512i later = _mm512_maskz_loadu_epi32(live, sites + j);
      recurs = _mm512_mask_cmpeq_epi32_mask(live, later, site) != 0;
    }
    if (recurs) break;
  }
  _mm256_zeroupper();  // see sample_avx512
  return k;
}

// The lanes gather the probe table and the type spans by byte offset; pin
// the layouts they assume.
static_assert(sizeof(ProbePlans::Probe) == 12 && offsetof(ProbePlans::Probe, dy) == 4 &&
                  offsetof(ProbePlans::Probe, mask) == 8,
              "probe layout changed; update the span lanes");
static_assert(sizeof(ProbePlans::TypeSpan) == 8 &&
                  offsetof(ProbePlans::TypeSpan, count) == 4,
              "type span layout changed; update the span lanes");
static_assert(sizeof(Species) == 1, "the lanes extract one byte per site");

/// Row `row` of a table of at most 16 words held in two registers.
CASURF_AVX512 inline __m256i lookup16(const __m256i (&words)[2], __m256i row) {
  return _mm256_permutex2var_epi32(words[0], row, words[1]);
}

/// Eight trials per iteration. Lane by lane, a block evaluates probe k of
/// its trial's type in round k and fails the trial at its first miss, as
/// the scalar conjunction does. Lanes that pass are compressed into hits.
/// Every step is exact 32-bit integer arithmetic, so the lanes agree with
/// the scalar lanes bit for bit. With kSmall (the lane table in_registers:
/// at most 16 types and 16 probes) the type spans and the probe table sit
/// in registers, each lookup is one permute, and every block runs the rounds
/// of the longest type, so no branch depends on the lattice; otherwise
/// lookups are gathers and a block stops when no lane is left.
/// Requires width >= 2 and 4 <= size <= 2^31 (signed 32-bit gather
/// indices; the last-word clamp needs 4 bytes).
template <bool kSmall>
CASURF_AVX512 std::size_t enabled_trials_avx512(const ProbePlans& probes,
                                                const Configuration& config,
                                                const SiteIndex* sites,
                                                const ReactionIndex* types, std::size_t n,
                                                std::uint32_t* hits) {
  const Lattice& lat = config.lattice();
  const std::uint64_t recip = lat.row_reciprocal();
  const __m512i recip_lo = _mm512_set1_epi64(static_cast<long long>(recip & 0xffffffffu));
  const __m512i recip_hi = _mm512_set1_epi64(static_cast<long long>(recip >> 32));
  const __m256i width = _mm256_set1_epi32(lat.width());
  const __m256i height = _mm256_set1_epi32(lat.height());
  const __m256i last_word = _mm256_set1_epi32(static_cast<int>(lat.size() - 4));
  const __m256i word_bits = _mm256_set1_epi32(~3);
  const __m256i byte_bits = _mm256_set1_epi32(0xff);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i mask_at = _mm256_set1_epi32(static_cast<int>(offsetof(ProbePlans::Probe, mask)));
  const __m256i zero = _mm256_setzero_si256();
  const std::span<const ProbePlans::TypeSpan> spans = probes.types();
  const std::span<const ProbePlans::Probe> table = probes.probes();
  const Species* cells = config.raw().data();
  using Lanes = ProbePlans::LaneTable;
  const Lanes& lanes = probes.lanes();
  const std::uint32_t rounds = lanes.rounds;
  // The lane table's columns, each in two registers of 8 words.
  __m256i column[Lanes::kColumns][2] = {};
  if constexpr (kSmall) {
    for (std::size_t c = 0; c < Lanes::kColumns; ++c) {
      const std::uint32_t* words = lanes.columns[c].data();
      column[c][0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words));
      column[c][1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + 8));
    }
  }
  __m256i index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i eight = _mm256_set1_epi32(8);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8, index = _mm256_add_epi32(index, eight)) {
    const __m256i site = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sites + i));
    const __m256i type = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(types + i));
    // Lattice::row lane-wise: the high word of recip * site, as
    // recip_hi * site + (recip_lo * site >> 32), which cannot overflow.
    const __m512i site64 = _mm512_cvtepu32_epi64(site);
    const __m512i low = _mm512_srli_epi64(_mm512_mul_epu32(site64, recip_lo), 32);
    const __m256i y = _mm512_cvtepi64_epi32(
        _mm512_srli_epi64(_mm512_add_epi64(_mm512_mul_epu32(site64, recip_hi), low), 32));
    const __m256i x = _mm256_sub_epi32(site, _mm256_mullo_epi32(y, width));
    __m256i probe = zero;
    __m256i left = zero;
    if constexpr (kSmall) {
      probe = lookup16(column[Lanes::kFirst], type);
      left = lookup16(column[Lanes::kCount], type);
    } else {
      const __m512i span = _mm512_i32gather_epi64(type, spans.data(), 8);
      probe = _mm512_cvtepi64_epi32(span);
      left = _mm512_cvtepi64_epi32(_mm512_srli_epi64(span, 32));
    }
    __mmask8 pass = 0xff;
    __mmask8 live = _mm256_test_epi32_mask(left, left);
    // Gathered rounds cost more than a mispredicted exit; permuted ones less.
    for (std::uint32_t k = 0; k < rounds && (kSmall || live != 0); ++k) {
      __m256i dx = zero;
      __m256i dy = zero;
      __m256i mask = zero;
      if constexpr (kSmall) {
        dx = lookup16(column[Lanes::kDx], probe);
        dy = lookup16(column[Lanes::kDy], probe);
        mask = lookup16(column[Lanes::kMask], probe);
      } else {
        const __m256i at = _mm256_add_epi32(_mm256_slli_epi32(probe, 3),
                                            _mm256_slli_epi32(probe, 2));  // probe * 12
        const __m512i dxy =
            _mm512_mask_i32gather_epi64(_mm512_setzero_si512(), live, at, table.data(), 1);
        dx = _mm512_cvtepi64_epi32(dxy);
        dy = _mm512_cvtepi64_epi32(_mm512_srli_epi64(dxy, 32));
        mask = _mm256_mmask_i32gather_epi32(zero, live, _mm256_add_epi32(at, mask_at),
                                            table.data(), 1);
      }
      // Offsets are pre-wrapped, so each axis needs one conditional
      // subtract; compared unsigned, since x + dx may pass INT32_MAX.
      __m256i px = _mm256_add_epi32(x, dx);
      px = _mm256_mask_sub_epi32(px, _mm256_cmpge_epu32_mask(px, width), px, width);
      __m256i py = _mm256_add_epi32(y, dy);
      py = _mm256_mask_sub_epi32(py, _mm256_cmpge_epu32_mask(py, height), py, height);
      const __m256i cell = _mm256_add_epi32(_mm256_mullo_epi32(py, width), px);
      // The aligned word holding the byte, or the last 4 bytes of the
      // configuration when that word would run past its end.
      const __m256i word_at = _mm256_min_epu32(_mm256_and_si256(cell, word_bits), last_word);
      const __m256i word = _mm256_mmask_i32gather_epi32(zero, live, word_at, cells, 1);
      const __m256i species = _mm256_and_si256(
          _mm256_srlv_epi32(word, _mm256_slli_epi32(_mm256_sub_epi32(cell, word_at), 3)),
          byte_bits);
      const __mmask8 hit = _mm256_test_epi32_mask(_mm256_srlv_epi32(mask, species), one);
      pass &= static_cast<__mmask8>(~live | hit);
      probe = _mm256_add_epi32(probe, one);
      left = _mm256_sub_epi32(left, one);
      live = _mm256_mask_test_epi32_mask(static_cast<__mmask8>(live & hit), left, left);
    }
    // count <= i, so the full 8-wide store stays inside hits[0, n).
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hits + count),
                        _mm256_maskz_compress_epi32(pass, index));
    count += static_cast<std::size_t>(__builtin_popcount(pass));
  }
  _mm256_zeroupper();  // see sample_avx512
  return enabled_trials_from(probes, config, sites, types, i, n, hits, count);
}

#endif  // __GNUC__ && __x86_64__

}  // namespace

void sample_types(std::uint64_t sweep, std::uint64_t seed_hash, const SiteIndex* sites,
                  std::size_t n, const AliasTable& alias, ReactionIndex* out) {
#if defined(__GNUC__) && defined(__x86_64__)
  if (have_avx512() && !alias.empty()) {
    sample_lanes<false>(sweep, seed_hash, sites, 0, n, alias, out, nullptr);
    return;
  }
#endif
  sample_scalar<false>(sweep, seed_hash, sites, 0, n, alias, out, nullptr);
}

void sample_trials(std::uint64_t step, std::uint64_t seed_hash, std::uint64_t first,
                   std::size_t n, const AliasTable& alias, ReactionIndex* types,
                   std::uint64_t* draws) {
#if defined(__GNUC__) && defined(__x86_64__)
  if (have_avx512() && !alias.empty()) {
    sample_lanes<true>(step, seed_hash, nullptr, first, n, alias, types, draws);
    return;
  }
#endif
  sample_scalar<true>(step, seed_hash, nullptr, first, n, alias, types, draws);
}

void sample_trials_scalar(std::uint64_t step, std::uint64_t seed_hash, std::uint64_t first,
                          std::size_t n, const AliasTable& alias, ReactionIndex* types,
                          std::uint64_t* draws) {
  sample_scalar<true>(step, seed_hash, nullptr, first, n, alias, types, draws);
}

void require_draw_resolution(const ReactionModel& model, const char* who) {
  const std::vector<double> drawn = model.alias_table().bits_probabilities();
  for (std::size_t i = 0; i < model.num_reactions(); ++i) {
    const ReactionType& rt = model.reactions()[i];
    const double share = rt.rate() / model.total_rate();
    if (share > 0 && !(std::abs(drawn[i] / share - 1.0) <= kMaxDrawError)) {
      char numbers[160];
      std::snprintf(numbers, sizeof numbers,
                    "has a share of %.3g of the total rate, which the 32-bit flip "
                    "draws with probability %.3g, off by more than %g of the share",
                    share, drawn[i], kMaxDrawError);
      throw std::invalid_argument(std::string(who) + ": reaction '" + rt.name() + "' " +
                                  numbers + "; rsm, vssm and ndca draw it exactly");
    }
  }
}

void chunk_sites(const std::uint64_t* draws, std::size_t n, const SiteIndex* chunk,
                 std::uint32_t size, SiteIndex* out) {
#if defined(__GNUC__) && defined(__x86_64__)
  if (n >= 8 && have_avx512()) {
    chunk_sites_avx512(draws, n, chunk, size, out);
    return;
  }
#endif
  chunk_sites_from(draws, 0, n, chunk, size, out);
}

std::size_t first_recurring_hit(const SiteIndex* sites, std::size_t n,
                                const std::uint32_t* hits, std::size_t count) {
#if defined(__GNUC__) && defined(__x86_64__)
  if (count != 0 && have_avx512()) return first_recurring_hit_avx512(sites, n, hits, count);
#endif
  return first_recurring_hit_scalar(sites, n, hits, count);
}

std::size_t enabled_trials(const ProbePlans& probes, const Configuration& config,
                           const SiteIndex* sites, const ReactionIndex* types,
                           std::size_t n, std::uint32_t* hits) {
#if defined(__GNUC__) && defined(__x86_64__)
  const Lattice& lat = config.lattice();
  if (have_avx512() && lat.width() > 1 && lat.size() >= 4 &&
      lat.size() <= (SiteIndex{1} << 31)) {
    return probes.lanes().in_registers
               ? enabled_trials_avx512<true>(probes, config, sites, types, n, hits)
               : enabled_trials_avx512<false>(probes, config, sites, types, n, hits);
  }
#endif
  return enabled_trials_from(probes, config, sites, types, 0, n, hits, 0);
}

std::size_t enabled_trials_scalar(const ProbePlans& probes, const Configuration& config,
                                  const SiteIndex* sites, const ReactionIndex* types,
                                  std::size_t n, std::uint32_t* hits) {
  return enabled_trials_from(probes, config, sites, types, 0, n, hits, 0);
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
