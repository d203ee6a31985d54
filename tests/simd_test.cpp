// SIMD wrapper: lane permutations, concatenation shifts, and the in-register
// transposes of paper §2.3.
#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "common/cpu.hpp"
#include "kernels/tl_access.hpp"
#include "simd/transpose.hpp"
#include "simd/vecd.hpp"

namespace sf {
namespace {

using simd::vecd;

template <int W>
std::array<double, W> lanes(vecd<W> v) {
  std::array<double, W> out;
  for (int i = 0; i < W; ++i) out[i] = v.lane(i);
  return out;
}

template <int W>
void check_rotations() {
  alignas(64) double src[W];
  std::iota(src, src + W, 1.0);
  auto v = vecd<W>::load(src);

  auto r = lanes(simd::rotate_r1(v));
  for (int i = 0; i < W; ++i) EXPECT_DOUBLE_EQ(r[i], src[(i + W - 1) % W]);

  auto l = lanes(simd::rotate_l1(v));
  for (int i = 0; i < W; ++i) EXPECT_DOUBLE_EQ(l[i], src[(i + 1) % W]);
}

TEST(Simd, RotateAvx2) { check_rotations<4>(); }
TEST(Simd, RotateAvx512) {
  if (!cpu_has_avx512()) GTEST_SKIP();
  check_rotations<8>();
}

template <int W>
void check_blends() {
  alignas(64) double s1[W], s2[W];
  for (int i = 0; i < W; ++i) {
    s1[i] = i;
    s2[i] = 100 + i;
  }
  auto a = vecd<W>::load(s1), b = vecd<W>::load(s2);
  auto f = lanes(simd::blend_first(a, b));
  EXPECT_DOUBLE_EQ(f[0], s2[0]);
  for (int i = 1; i < W; ++i) EXPECT_DOUBLE_EQ(f[i], s1[i]);
  auto l = lanes(simd::blend_last(a, b));
  EXPECT_DOUBLE_EQ(l[W - 1], s2[W - 1]);
  for (int i = 0; i + 1 < W; ++i) EXPECT_DOUBLE_EQ(l[i], s1[i]);
}

TEST(Simd, BlendAvx2) { check_blends<4>(); }
TEST(Simd, BlendAvx512) {
  if (!cpu_has_avx512()) GTEST_SKIP();
  check_blends<8>();
}

template <int W>
void check_shifted() {
  alignas(64) double buf[3 * W];
  std::iota(buf, buf + 3 * W, 0.0);
  auto l = vecd<W>::load(buf);
  auto c = vecd<W>::load(buf + W);
  auto r = vecd<W>::load(buf + 2 * W);
  for (int s = -W; s <= W; ++s) {
    auto v = lanes(shifted<W>(l, c, r, s));
    for (int i = 0; i < W; ++i)
      EXPECT_DOUBLE_EQ(v[i], buf[W + s + i]) << "s=" << s << " lane " << i;
  }
}

TEST(Simd, ShiftedAvx2) { check_shifted<4>(); }
TEST(Simd, ShiftedAvx512) {
  if (!cpu_has_avx512()) GTEST_SKIP();
  check_shifted<8>();
}

template <int W>
void check_transpose() {
  alignas(64) double m[W * W];
  std::iota(m, m + W * W, 0.0);
  vecd<W> r[W];
  for (int i = 0; i < W; ++i) r[i] = vecd<W>::load(m + i * W);
  simd::transpose(r);
  for (int i = 0; i < W; ++i)
    for (int j = 0; j < W; ++j)
      EXPECT_DOUBLE_EQ(r[i].lane(j), m[j * W + i]) << i << "," << j;
}

TEST(Simd, Transpose4x4TwoStage) { check_transpose<4>(); }
TEST(Simd, Transpose8x8ThreeStage) {
  if (!cpu_has_avx512()) GTEST_SKIP();
  check_transpose<8>();
}

TEST(Simd, Transpose4x4AltMatchesPaperScheme) {
  alignas(64) double m[16];
  std::iota(m, m + 16, 0.0);
  vecd<4> r1[4], r2[4];
  for (int i = 0; i < 4; ++i) r1[i] = r2[i] = vecd<4>::load(m + i * 4);
  simd::transpose(r1);
  simd::transpose_alt(r2);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(r1[i].lane(j), r2[i].lane(j));
}

TEST(Simd, TransposeGather) {
  alignas(64) double m[16];
  std::iota(m, m + 16, 0.0);
  vecd<4> r[4];
  simd::transpose_gather(m, r);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(r[i].lane(j), m[j * 4 + i]);
}

TEST(Simd, TransposeIsInvolution) {
  alignas(64) double m[16];
  std::iota(m, m + 16, 3.0);
  simd::transpose_block_inplace<4>(m);
  simd::transpose_block_inplace<4>(m);
  for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(m[i], 3.0 + i);
}

TEST(Simd, FmaAndArithmetic) {
  auto a = vecd<4>::set1(2.0), b = vecd<4>::set1(3.0), c = vecd<4>::set1(1.0);
  EXPECT_DOUBLE_EQ(vecd<4>::fma(a, b, c).lane(2), 7.0);
  EXPECT_DOUBLE_EQ((a + b).lane(0), 5.0);
  EXPECT_DOUBLE_EQ((a - b).lane(3), -1.0);
  EXPECT_DOUBLE_EQ((a * b).lane(1), 6.0);
}

}  // namespace
}  // namespace sf
