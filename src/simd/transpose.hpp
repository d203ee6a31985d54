// In-register square matrix transposes (paper §2.3, Figure 3).
//
// The paper's improved AVX-2 transpose for double runs in two stages and
// eight single-cycle instructions: Permute2f128 on vector pairs at distance
// two, then UnpackLo/UnpackHi on adjacent pairs. The AVX-512 8x8 transpose
// runs in three stages (unpack, then two rounds of 128-bit shuffles).
//
// transpose_alt() is the conventional shuffle-first scheme and
// transpose_gather() a gather-based one; both exist solely for the
// `ablation_transpose` benchmark that reproduces the paper's latency claim.
#pragma once

#include <immintrin.h>

#include "simd/vecd.hpp"

namespace sf::simd {

/// Paper's two-stage AVX-2 4x4 transpose; r[i] holds row i on input and
/// column i on output.
inline void transpose(vecd<4>* r) {
  __m256d t0 = _mm256_permute2f128_pd(r[0].v, r[2].v, 0x20);  // (A,B,I,J)
  __m256d t1 = _mm256_permute2f128_pd(r[1].v, r[3].v, 0x20);  // (E,F,M,N)
  __m256d t2 = _mm256_permute2f128_pd(r[0].v, r[2].v, 0x31);  // (C,D,K,L)
  __m256d t3 = _mm256_permute2f128_pd(r[1].v, r[3].v, 0x31);  // (G,H,O,P)
  r[0].v = _mm256_unpacklo_pd(t0, t1);                        // (A,E,I,M)
  r[1].v = _mm256_unpackhi_pd(t0, t1);                        // (B,F,J,N)
  r[2].v = _mm256_unpacklo_pd(t2, t3);                        // (C,G,K,O)
  r[3].v = _mm256_unpackhi_pd(t2, t3);                        // (D,H,L,P)
}

/// Three-stage AVX-512 8x8 transpose (unpack + two shuffle_f64x2 rounds).
inline void transpose(vecd<8>* r) {
  __m512d t0 = _mm512_unpacklo_pd(r[0].v, r[1].v);
  __m512d t1 = _mm512_unpackhi_pd(r[0].v, r[1].v);
  __m512d t2 = _mm512_unpacklo_pd(r[2].v, r[3].v);
  __m512d t3 = _mm512_unpackhi_pd(r[2].v, r[3].v);
  __m512d t4 = _mm512_unpacklo_pd(r[4].v, r[5].v);
  __m512d t5 = _mm512_unpackhi_pd(r[4].v, r[5].v);
  __m512d t6 = _mm512_unpacklo_pd(r[6].v, r[7].v);
  __m512d t7 = _mm512_unpackhi_pd(r[6].v, r[7].v);

  __m512d m0 = _mm512_shuffle_f64x2(t0, t2, 0x44);  // chunks 0,1 of each
  __m512d m1 = _mm512_shuffle_f64x2(t4, t6, 0x44);
  __m512d m2 = _mm512_shuffle_f64x2(t1, t3, 0x44);
  __m512d m3 = _mm512_shuffle_f64x2(t5, t7, 0x44);
  __m512d m4 = _mm512_shuffle_f64x2(t0, t2, 0xEE);  // chunks 2,3 of each
  __m512d m5 = _mm512_shuffle_f64x2(t4, t6, 0xEE);
  __m512d m6 = _mm512_shuffle_f64x2(t1, t3, 0xEE);
  __m512d m7 = _mm512_shuffle_f64x2(t5, t7, 0xEE);

  r[0].v = _mm512_shuffle_f64x2(m0, m1, 0x88);  // chunks 0,2
  r[1].v = _mm512_shuffle_f64x2(m2, m3, 0x88);
  r[2].v = _mm512_shuffle_f64x2(m0, m1, 0xDD);  // chunks 1,3
  r[3].v = _mm512_shuffle_f64x2(m2, m3, 0xDD);
  r[4].v = _mm512_shuffle_f64x2(m4, m5, 0x88);
  r[5].v = _mm512_shuffle_f64x2(m6, m7, 0x88);
  r[6].v = _mm512_shuffle_f64x2(m4, m5, 0xDD);
  r[7].v = _mm512_shuffle_f64x2(m6, m7, 0xDD);
}

/// Conventional shuffle-first AVX-2 4x4 transpose (in-lane shuffles first,
/// then cross-lane permutes). Same instruction count, different port mix and
/// dependency chain; the ablation benchmark compares it against the paper's
/// unpack scheme.
inline void transpose_alt(vecd<4>* r) {
  __m256d s0 = _mm256_shuffle_pd(r[0].v, r[1].v, 0x0);  // (A,E,C,G)
  __m256d s1 = _mm256_shuffle_pd(r[0].v, r[1].v, 0xF);  // (B,F,D,H)
  __m256d s2 = _mm256_shuffle_pd(r[2].v, r[3].v, 0x0);  // (I,M,K,O)
  __m256d s3 = _mm256_shuffle_pd(r[2].v, r[3].v, 0xF);  // (J,N,L,P)
  r[0].v = _mm256_permute2f128_pd(s0, s2, 0x20);
  r[1].v = _mm256_permute2f128_pd(s1, s3, 0x20);
  r[2].v = _mm256_permute2f128_pd(s0, s2, 0x31);
  r[3].v = _mm256_permute2f128_pd(s1, s3, 0x31);
}

/// Gather-based transpose: reads columns directly with vgatherdpd. Models
/// the "let the memory system do it" alternative; much higher latency.
inline void transpose_gather(const double* src, vecd<4>* r) {
  const __m128i idx = _mm_setr_epi32(0, 4, 8, 12);
  for (int j = 0; j < 4; ++j)
    r[j].v = _mm256_i32gather_pd(src + j, idx, sizeof(double));
}

/// Scalar square transpose of an n*n block (the in-memory baseline of the
/// transpose ablation).
inline void transpose_scalar(double* a, int n) {
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      double t = a[i * n + j];
      a[i * n + j] = a[j * n + i];
      a[j * n + i] = t;
    }
}

/// In-register transpose of one aligned W*W block stored row-major at `p`,
/// written back in place (used by the layout transform).
template <int W>
inline void transpose_block_inplace(double* p) {
  vecd<W> r[W];
  for (int i = 0; i < W; ++i) r[i] = vecd<W>::load(p + i * W);
  transpose(r);
  for (int i = 0; i < W; ++i) r[i].store(p + i * W);
}

}  // namespace sf::simd
