// Temporal folding: the cost model's paper numbers, the regression planner,
// and the boundary-corrected folded executors.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <utility>
#include <vector>

#include "fold/cost_model.hpp"
#include "fold/folded_ref.hpp"
#include "fold/folding_plan.hpp"
#include "fold/region.hpp"
#include "grid/grid_utils.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

// ---------------------------------------------------------------------------
// Paper §3.2-§3.3 exact numbers for the 2D9P box with m = 2.
// ---------------------------------------------------------------------------
TEST(CostModel, PaperCollects2D9P) {
  const auto& p = preset(Preset::Box2D9).p2;
  Profitability pr = profitability(p, 2);
  EXPECT_EQ(pr.naive, 90);          // |C(E)|   = 10 x 9
  EXPECT_EQ(pr.folded_scalar, 25);  // |C(E_Λ)| = 5x5 folding matrix
  EXPECT_EQ(pr.folded_vec, 9);      // counterpart reuse
  EXPECT_DOUBLE_EQ(pr.index_scalar(), 3.6);
  EXPECT_DOUBLE_EQ(pr.index_vec(), 10.0);
}

TEST(CostModel, ShiftsReusePaperNumbers) {
  // Fig. 6: |C(E_F)| = 9, |C(E_G)| = 4, reuse profitability 2.25.
  const auto& p = preset(Preset::Box2D9).p2;
  ShiftsReuseCost c = shifts_reuse_cost(p);
  EXPECT_EQ(c.full, 9);
  EXPECT_EQ(c.reused, 4);
  EXPECT_DOUBLE_EQ(c.index(), 2.25);
}

TEST(CostModel, NaiveCollectGrowsWithM) {
  const auto& p = preset(Preset::Box2D9).p2;
  // m=3: applications at levels with supports 1 + 9 + 25 = 35 -> 315 pairs.
  EXPECT_EQ(naive_collect(p, 3), 315);
  EXPECT_EQ(folded_collect(p, 3), 49);  // 7x7
}

// ---------------------------------------------------------------------------
// Folding plans
// ---------------------------------------------------------------------------
TEST(FoldingPlan, EqualWeightBoxSingleCounterpart) {
  // Paper §3.5: omega2 = (2), omega3 = (0,3) — i.e. one basis column and
  // horizontal multipliers (1,2,3,2,1).
  auto plan = plan_folding(preset(Preset::Box2D9).p2, 2);
  ASSERT_EQ(plan.basis.size(), 1u);
  EXPECT_FALSE(plan.uses_impulse);
  ASSERT_EQ(plan.terms.size(), 5u);
  double coef[5] = {0, 0, 0, 0, 0};
  for (const auto& t : plan.terms) {
    ASSERT_EQ(t.basis_id, 0);
    coef[t.dx + 2] = t.coeff;
  }
  EXPECT_DOUBLE_EQ(coef[0], 1.0);
  EXPECT_DOUBLE_EQ(coef[1], 2.0);
  EXPECT_DOUBLE_EQ(coef[2], 3.0);
  EXPECT_DOUBLE_EQ(coef[3], 2.0);
  EXPECT_DOUBLE_EQ(coef[4], 1.0);
  // Basis column is (1,2,3,2,1) * w^2.
  const double w2 = (1.0 / 9) * (1.0 / 9);
  const double expect[5] = {1, 2, 3, 2, 1};
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(plan.basis[0][i], expect[i] * w2, 1e-15);
  EXPECT_EQ(plan.vec_collect(), 9);
}

TEST(FoldingPlan, LifeUsesImpulseBias) {
  // The 8-point (no self term) box: centre column = c1 + c2 + bias*impulse.
  auto plan = plan_folding(preset(Preset::Life).p2, 2);
  EXPECT_EQ(plan.basis.size(), 2u);
  EXPECT_TRUE(plan.uses_impulse);
}

TEST(FoldingPlan, GBNeedsMoreCounterparts) {
  // Asymmetric weights: less reuse, exactly the paper's observation that GB
  // profits least.
  auto gb = plan_folding(preset(Preset::GB).p2, 2);
  auto box = plan_folding(preset(Preset::Box2D9).p2, 2);
  EXPECT_GT(gb.basis.size(), box.basis.size());
  EXPECT_GT(gb.vec_collect(), box.vec_collect());
  // Still profitable versus naive.
  EXPECT_GT(naive_collect(preset(Preset::GB).p2, 2), gb.vec_collect());
}

TEST(FoldingPlan, PlanReconstructsFoldingMatrix) {
  // Property: sum of terms' coeff * basis column (or impulse) must equal
  // every column of Λ exactly, for all 2-D presets and m in 1..3.
  for (Preset id : {Preset::Heat2D, Preset::Box2D9, Preset::Life, Preset::GB}) {
    for (int m = 1; m <= 3; ++m) {
      const auto& p = preset(id).p2;
      auto plan = plan_folding(p, m);
      const auto lam = power(p, m);
      const int R = plan.radius;
      const int h = 2 * R + 1;
      std::vector<std::vector<double>> rebuilt(
          static_cast<std::size_t>(h), std::vector<double>(h, 0.0));
      for (const auto& t : plan.terms) {
        for (int dy = 0; dy < h; ++dy) {
          const double base = t.basis_id >= 0
                                  ? plan.basis[static_cast<std::size_t>(t.basis_id)][dy]
                                  : (dy == R ? 1.0 : 0.0);
          rebuilt[dy][t.dx + R] += t.coeff * base;
        }
      }
      for (int dy = -R; dy <= R; ++dy)
        for (int dx = -R; dx <= R; ++dx)
          EXPECT_NEAR(rebuilt[dy + R][dx + R], lam.weight_at({dy, dx}), 1e-12)
              << preset(id).name << " m=" << m;
    }
  }
}

TEST(FoldingPlan, ThreeDSharedBasis) {
  auto plan = plan_folding(preset(Preset::Heat3D).p3, 2);
  EXPECT_EQ(plan.radius, 2);
  // Slices share the basis: far fewer basis vectors than (dz,dx) pairs.
  EXPECT_LT(plan.basis.size(), 10u);
  // Terms rebuild Λ3 column-exactly.
  const auto lam = power(preset(Preset::Heat3D).p3, 2);
  const int R = 2, h = 5;
  std::vector<double> rebuilt(h * h * h, 0.0);
  for (const auto& t : plan.terms)
    for (int dy = 0; dy < h; ++dy) {
      const double base = t.basis_id >= 0
                              ? plan.basis[static_cast<std::size_t>(t.basis_id)][dy]
                              : (dy == R ? 1.0 : 0.0);
      rebuilt[static_cast<std::size_t>(t.dz + R) * h * h + dy * h + (t.dx + R)] +=
          t.coeff * base;
    }
  for (int dz = -R; dz <= R; ++dz)
    for (int dy = -R; dy <= R; ++dy)
      for (int dx = -R; dx <= R; ++dx)
        EXPECT_NEAR(rebuilt[static_cast<std::size_t>(dz + R) * h * h +
                            (dy + R) * h + (dx + R)],
                    lam.weight_at({dz, dy, dx}), 1e-12);
}

// ---------------------------------------------------------------------------
// Region decomposition
// ---------------------------------------------------------------------------
TEST(Region, FrameSegsDisjointCover) {
  auto segs = frame_segs(100, 7);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].a, 0);
  EXPECT_EQ(segs[0].b, 7);
  EXPECT_EQ(segs[1].a, 93);
  EXPECT_EQ(segs[1].b, 100);
  auto merged = frame_segs(10, 6);  // 2w >= n: single segment
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].a, 0);
  EXPECT_EQ(merged[0].b, 10);
}

TEST(Region, FrameRectsCoverExactly) {
  const int ny = 30, nx = 20, w = 4;
  std::vector<int> cnt(static_cast<std::size_t>(ny) * nx, 0);
  for (const Rect& r : frame_rects(ny, nx, w))
    for (int y = r.y0; y < r.y1; ++y)
      for (int x = r.x0; x < r.x1; ++x) cnt[static_cast<std::size_t>(y) * nx + x]++;
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      const bool in_frame =
          y < w || y >= ny - w || x < w || x >= nx - w;
      EXPECT_EQ(cnt[static_cast<std::size_t>(y) * nx + x], in_frame ? 1 : 0)
          << y << "," << x;
    }
}

TEST(Region, FrameBoxesCoverExactly) {
  const int nz = 12, ny = 10, nx = 14, w = 3;
  std::vector<int> cnt(static_cast<std::size_t>(nz) * ny * nx, 0);
  for (const Box& b : frame_boxes(nz, ny, nx, w))
    for (int z = b.z0; z < b.z1; ++z)
      for (int y = b.y0; y < b.y1; ++y)
        for (int x = b.x0; x < b.x1; ++x)
          cnt[(static_cast<std::size_t>(z) * ny + y) * nx + x]++;
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) {
        const bool in_shell = z < w || z >= nz - w || y < w || y >= ny - w ||
                              x < w || x >= nx - w;
        EXPECT_EQ(cnt[(static_cast<std::size_t>(z) * ny + y) * nx + x],
                  in_shell ? 1 : 0);
      }
}

// ring_row's two loop orders compute the same sum: a long row in one call
// (taps outermost) equals the same row in short pieces (point at a time) to
// rounding, and both match the plain sum.
TEST(Region, RingRowLoopOrdersAgree) {
  const int gw = 64;
  std::vector<double> src(3 * gw);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::sin(0.37 * static_cast<double>(i)) + 1e-3 * static_cast<double>(i);
  detail::FlatTaps taps;
  for (const auto& [off, w] : {std::pair<int, double>{-gw, 0.13}, {-1, 0.21},
                               {0, -0.4}, {1, 0.29}, {gw, 0.11}}) {
    taps.off.push_back(off);
    taps.w.push_back(w);
  }
  const double* row = src.data() + gw + 1;
  const int n = 3 * detail::kRingRowShort - 1;
  ASSERT_LE(n, gw - 2);
  std::vector<double> whole(n), pieces(n);
  detail::ring_row(taps, row, whole.data(), n);
  const int piece = detail::kRingRowShort - 1;
  for (int i = 0; i < n; i += piece)
    detail::ring_row(taps, row + i, pieces.data() + i, std::min(piece, n - i));
  for (int i = 0; i < n; ++i) {
    double sum = 0.0, mag = 0.0;
    for (std::size_t k = 0; k < taps.w.size(); ++k) {
      sum += taps.w[k] * row[taps.off[k] + i];
      mag += std::abs(taps.w[k] * row[taps.off[k] + i]);
    }
    const double tol = 4 * DBL_EPSILON * mag;
    EXPECT_NEAR(whole[i], sum, tol) << "i=" << i;
    EXPECT_NEAR(pieces[i], sum, tol) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Folded executors == stepwise reference (the central correctness property:
// boundary ring included).
// ---------------------------------------------------------------------------
class Folded1D : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Folded1D, MatchesReference) {
  const auto [n, m, tsteps] = GetParam();
  const auto& spec = preset(Preset::P1D5);
  const int halo = std::max(8, m * spec.p1.radius());
  Grid1D a(n, halo), b(n, halo), ra(n, halo), rb(n, halo);
  fill_random(a, 17);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p1, ra, rb, tsteps);
  FoldedRunner1D fold(spec.p1, m, n);
  fold.run(a, b, tsteps);

  EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)))
      << "n=" << n << " m=" << m << " T=" << tsteps;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Folded1D,
    ::testing::Combine(::testing::Values(16, 33, 100, 500),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(1, 2, 5, 8)));

TEST(Folded1D, WithSourceTerm) {
  const auto& spec = preset(Preset::Apop);
  const int n = 200, halo = 8, tsteps = 6;
  Grid1D a(n, halo), b(n, halo), ra(n, halo), rb(n, halo), k(n, halo);
  fill_random(a, 23);
  fill_random(k, 24);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  const FieldView1D kv = k.view();
  run_reference(spec.p1, ra, rb, tsteps, &spec.src1, &kv);
  FoldedRunner1D fold(spec.p1, 2, n, &spec.src1);
  fold.run(a, b, tsteps, &k);

  EXPECT_LE(max_abs_diff(a, ra), 1e-12);
}

class Folded2D : public ::testing::TestWithParam<std::tuple<Preset, int, int>> {};

TEST_P(Folded2D, MatchesReference) {
  const auto [id, m, tsteps] = GetParam();
  const auto& spec = preset(id);
  const int ny = 37, nx = 41;
  const int halo = std::max(8, m * spec.p2.radius());
  Grid2D a(ny, nx, halo), b(ny, nx, halo), ra(ny, nx, halo), rb(ny, nx, halo);
  fill_random(a, 31);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p2, ra, rb, tsteps);
  FoldedRunner2D fold(spec.p2, m, ny, nx);
  fold.run(a, b, tsteps);

  EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Folded2D,
    ::testing::Combine(::testing::Values(Preset::Heat2D, Preset::Box2D9,
                                         Preset::Life, Preset::GB),
                       ::testing::Values(2, 3), ::testing::Values(2, 5)));

TEST(Folded2D, TinyGridAllRing) {
  // Domain smaller than the ring: everything goes through the stepwise path.
  const auto& spec = preset(Preset::Box2D9);
  const int ny = 3, nx = 3, m = 3, tsteps = 3;
  const int halo = std::max(8, m * spec.p2.radius());
  Grid2D a(ny, nx, halo), b(ny, nx, halo), ra(ny, nx, halo), rb(ny, nx, halo);
  fill_random(a, 37);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);
  run_reference(spec.p2, ra, rb, tsteps);
  FoldedRunner2D fold(spec.p2, m, ny, nx);
  fold.run(a, b, tsteps);
  EXPECT_LE(max_abs_diff(a, ra), 1e-12);
}

class Folded3D : public ::testing::TestWithParam<std::tuple<Preset, int>> {};

TEST_P(Folded3D, MatchesReference) {
  const auto [id, tsteps] = GetParam();
  const auto& spec = preset(id);
  const int nz = 12, ny = 14, nx = 16, m = 2;
  const int halo = std::max(8, m * spec.p3.radius());
  Grid3D a(nz, ny, nx, halo), b(nz, ny, nx, halo);
  Grid3D ra(nz, ny, nx, halo), rb(nz, ny, nx, halo);
  fill_random(a, 41);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p3, ra, rb, tsteps);
  FoldedRunner3D fold(spec.p3, m, nz, ny, nx);
  fold.run(a, b, tsteps);

  EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Folded3D,
                         ::testing::Combine(::testing::Values(Preset::Heat3D,
                                                              Preset::Box3D27),
                                            ::testing::Values(2, 3, 4)));

}  // namespace
}  // namespace sf
