#include "core/match_kernels.h"

#include <algorithm>

#if defined(CARAM_X86_SIMD)
#include <immintrin.h>
#endif

namespace caram::core::kernels {

namespace {

/** 64 bits of the row starting at @p bitpos (guarded one-past read). */
inline uint64_t
gather64(const uint64_t *row, uint64_t bitpos)
{
    const uint64_t w = bitpos / 64;
    const unsigned off = static_cast<unsigned>(bitpos % 64);
    if (off == 0)
        return row[w];
    return (row[w] >> off) | (row[w + 1] << (64 - off));
}

/** The portable kernel: per-slot scalar XOR+AND with early word exit. */
uint64_t
slotMatchScalar(const SlotLayout &L, const SlotArgs &a)
{
    uint64_t match = 0;
    for (unsigned l = 0; l < a.count; ++l) {
        const uint64_t base = uint64_t{a.start + l} * L.slotBits;
        const uint64_t vb = base + L.validBit;
        if (!((a.row[vb / 64] >> (vb % 64)) & 1u))
            continue;
        bool ok = true;
        for (unsigned w = 0; w < L.keyWords && ok; ++w) {
            uint64_t diff =
                (gather64(a.row, base + 64u * w) ^ a.value[w]) & a.care[w];
            if (L.ternary) {
                const uint64_t c =
                    gather64(a.row, base + L.keyBits + 64u * w);
                diff = a.exact ? diff | ((c ^ a.care[w]) & a.width[w])
                               : diff & c;
            }
            ok = diff == 0;
        }
        if (ok)
            match |= uint64_t{1} << l;
    }
    return match;
}

#if defined(CARAM_X86_SIMD)

#define CARAM_AVX512 __attribute__((target("avx2,avx512f"), always_inline))
#define CARAM_AVX2 __attribute__((target("avx2"), always_inline))

// Lane helpers: a masked gather of one row word per lane, and the
// per-lane funnel shift that aligns a field from its pair of row words
// (a left shift by 64, the aligned case, yields zero).

CARAM_AVX512 inline __m512i
gather8(const uint64_t *row, __mmask8 k, __m512i idx)
{
    return _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), k, idx,
                                       row, 8);
}

CARAM_AVX512 inline __m512i
funnel8(__m512i lo, __m512i hi, __m512i sh, __m512i inv)
{
    return _mm512_or_si512(_mm512_srlv_epi64(lo, sh),
                           _mm512_sllv_epi64(hi, inv));
}

CARAM_AVX2 inline __m256i
gather4(const uint64_t *row, __m256i k, __m256i idx)
{
    return _mm256_mask_i64gather_epi64(
        _mm256_setzero_si256(), reinterpret_cast<const long long *>(row),
        idx, k, 8);
}

CARAM_AVX2 inline __m256i
funnel4(__m256i lo, __m256i hi, __m256i sh, __m256i inv)
{
    return _mm256_or_si256(_mm256_srlv_epi64(lo, sh),
                           _mm256_sllv_epi64(hi, inv));
}

#undef CARAM_AVX512
#undef CARAM_AVX2

/**
 * AVX-512F: lanes hold 8 slots.  A lane's slot starts at bit
 * group base + lane * slotBits, which splits into a word index and an
 * in-word shift.  Per key word, one gather brings every live lane's
 * next row word; with the previous word it is funnel-shifted into the
 * lane's aligned key word.  Dead lanes are masked out of later gathers,
 * and the loop stops once no lane is live.
 */
__attribute__((target("avx2,avx512f"))) uint64_t
slotMatchAvx512(const SlotLayout &L, const SlotArgs &a)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i low6 = _mm512_set1_epi64(63);
    const __m512i s64 = _mm512_set1_epi64(64);
    const long long S = static_cast<long long>(L.slotBits);
    const __m512i stride =
        _mm512_set_epi64(7 * S, 6 * S, 5 * S, 4 * S, 3 * S, 2 * S, S, 0);
    const __m512i validOff =
        _mm512_set1_epi64(static_cast<long long>(L.validBit));
    const __m512i careOff = _mm512_set1_epi64(L.keyBits);
    // Ternary keys of <= 32 bits keep value and care in one window.
    const bool fused = L.ternary && 2 * L.keyBits <= 64;
    const bool careGather = L.ternary && !fused;
    const __m128i kbits = _mm_cvtsi32_si128(static_cast<int>(L.keyBits));
    uint64_t match = 0;
    for (unsigned l = 0; l < a.count; l += 8) {
        const __mmask8 lanes =
            static_cast<__mmask8>((1u << std::min(8u, a.count - l)) - 1);
        const __m512i base = _mm512_add_epi64(
            _mm512_set1_epi64(static_cast<long long>(a.start + l) * S),
            stride);
        const __m512i vpos = _mm512_add_epi64(base, validOff);
        const __m512i vbits = _mm512_srlv_epi64(
            gather8(a.row, lanes, _mm512_srli_epi64(vpos, 6)),
            _mm512_and_si512(vpos, low6));
        __mmask8 live = _mm512_mask_test_epi64_mask(lanes, vbits, one);
        if (!live)
            continue;
        const __m512i vw = _mm512_srli_epi64(base, 6);
        const __m512i vs = _mm512_and_si512(base, low6);
        const __m512i vinv = _mm512_sub_epi64(s64, vs);
        __m512i lo = gather8(a.row, live, vw);
        __m512i cw = zero, cs = zero, cinv = zero, clo = zero;
        if (careGather) {
            const __m512i cpos = _mm512_add_epi64(base, careOff);
            cw = _mm512_srli_epi64(cpos, 6);
            cs = _mm512_and_si512(cpos, low6);
            cinv = _mm512_sub_epi64(s64, cs);
            clo = gather8(a.row, live, cw);
        }
        for (unsigned w = 0; w < L.keyWords; ++w) {
            const __m512i next = _mm512_set1_epi64(w + 1);
            const __m512i hi =
                gather8(a.row, live, _mm512_add_epi64(vw, next));
            const __m512i v = funnel8(lo, hi, vs, vinv);
            const __m512i C =
                _mm512_set1_epi64(static_cast<long long>(a.care[w]));
            __m512i diff = _mm512_and_si512(
                _mm512_xor_si512(
                    v, _mm512_set1_epi64(
                           static_cast<long long>(a.value[w]))),
                C);
            if (L.ternary) {
                __m512i c;
                if (fused) {
                    c = _mm512_srl_epi64(v, kbits);
                } else {
                    const __m512i chi =
                        gather8(a.row, live, _mm512_add_epi64(cw, next));
                    c = funnel8(clo, chi, cs, cinv);
                    clo = chi;
                }
                diff = a.exact
                    ? _mm512_or_si512(
                          diff, _mm512_and_si512(
                                    _mm512_xor_si512(c, C),
                                    _mm512_set1_epi64(
                                        static_cast<long long>(
                                            a.width[w]))))
                    : _mm512_and_si512(diff, c);
            }
            live = _mm512_mask_testn_epi64_mask(live, diff, diff);
            if (!live)
                break;
            lo = hi;
        }
        match |= uint64_t{live} << l;
    }
    return match;
}

/**
 * AVX2: the same lane layout with 4 slots per vector.  AVX2 has no
 * mask registers, so the live set is a vector of all-ones lanes that
 * doubles as the gather mask.
 */
__attribute__((target("avx2"))) uint64_t
slotMatchAvx2(const SlotLayout &L, const SlotArgs &a)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i low6 = _mm256_set1_epi64x(63);
    const __m256i s64 = _mm256_set1_epi64x(64);
    const __m256i iota = _mm256_setr_epi64x(0, 1, 2, 3);
    const long long S = static_cast<long long>(L.slotBits);
    const __m256i stride = _mm256_setr_epi64x(0, S, 2 * S, 3 * S);
    const __m256i validOff =
        _mm256_set1_epi64x(static_cast<long long>(L.validBit));
    const __m256i careOff = _mm256_set1_epi64x(L.keyBits);
    const bool fused = L.ternary && 2 * L.keyBits <= 64;
    const bool careGather = L.ternary && !fused;
    const __m128i kbits = _mm_cvtsi32_si128(static_cast<int>(L.keyBits));
    uint64_t match = 0;
    for (unsigned l = 0; l < a.count; l += 4) {
        const __m256i lanes = _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(std::min(4u, a.count - l)), iota);
        const __m256i base = _mm256_add_epi64(
            _mm256_set1_epi64x(static_cast<long long>(a.start + l) * S),
            stride);
        const __m256i vpos = _mm256_add_epi64(base, validOff);
        const __m256i vbits = _mm256_srlv_epi64(
            gather4(a.row, lanes, _mm256_srli_epi64(vpos, 6)),
            _mm256_and_si256(vpos, low6));
        __m256i live = _mm256_and_si256(
            lanes,
            _mm256_cmpeq_epi64(_mm256_and_si256(vbits, one), one));
        if (_mm256_testz_si256(live, live))
            continue;
        const __m256i vw = _mm256_srli_epi64(base, 6);
        const __m256i vs = _mm256_and_si256(base, low6);
        const __m256i vinv = _mm256_sub_epi64(s64, vs);
        __m256i lo = gather4(a.row, live, vw);
        __m256i cw = zero, cs = zero, cinv = zero, clo = zero;
        if (careGather) {
            const __m256i cpos = _mm256_add_epi64(base, careOff);
            cw = _mm256_srli_epi64(cpos, 6);
            cs = _mm256_and_si256(cpos, low6);
            cinv = _mm256_sub_epi64(s64, cs);
            clo = gather4(a.row, live, cw);
        }
        for (unsigned w = 0; w < L.keyWords; ++w) {
            const __m256i next = _mm256_set1_epi64x(w + 1);
            const __m256i hi =
                gather4(a.row, live, _mm256_add_epi64(vw, next));
            const __m256i v = funnel4(lo, hi, vs, vinv);
            const __m256i C =
                _mm256_set1_epi64x(static_cast<long long>(a.care[w]));
            __m256i diff = _mm256_and_si256(
                _mm256_xor_si256(
                    v, _mm256_set1_epi64x(
                           static_cast<long long>(a.value[w]))),
                C);
            if (L.ternary) {
                __m256i c;
                if (fused) {
                    c = _mm256_srl_epi64(v, kbits);
                } else {
                    const __m256i chi =
                        gather4(a.row, live, _mm256_add_epi64(cw, next));
                    c = funnel4(clo, chi, cs, cinv);
                    clo = chi;
                }
                diff = a.exact
                    ? _mm256_or_si256(
                          diff, _mm256_and_si256(
                                    _mm256_xor_si256(c, C),
                                    _mm256_set1_epi64x(
                                        static_cast<long long>(
                                            a.width[w]))))
                    : _mm256_and_si256(diff, c);
            }
            live = _mm256_and_si256(live, _mm256_cmpeq_epi64(diff, zero));
            if (_mm256_testz_si256(live, live))
                break;
            lo = hi;
        }
        match |= uint64_t{static_cast<uint32_t>(_mm256_movemask_pd(
                     _mm256_castsi256_pd(live)))}
                 << l;
    }
    return match;
}

#endif // CARAM_X86_SIMD

} // namespace

SlotMatchFn
slotMatchFn(simd::MatchKernel kernel)
{
#if defined(CARAM_X86_SIMD)
    switch (kernel) {
      case simd::MatchKernel::Avx2:
        return &slotMatchAvx2;
      case simd::MatchKernel::Avx512:
        return &slotMatchAvx512;
      case simd::MatchKernel::Scalar:
        break;
    }
#else
    (void)kernel;
#endif
    return &slotMatchScalar;
}

} // namespace caram::core::kernels
