// Every 2-D kernel must reproduce the naive reference for all presets,
// sizes (including non-multiples of the vector width), and time-step counts.
#include <gtest/gtest.h>

#include <cctype>
#include <cfloat>
#include <cstring>
#include <random>
#include <string>
#include <tuple>

#include "common/cpu.hpp"
#include "fold/folding_plan.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "kernels/kernels2d_impl.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

struct Case {
  Preset preset;
  Method method;
  Isa isa;
  int ny, nx;
  int tsteps;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string s = preset(c.preset).name + std::string("_") +
                  method_name(c.method) + "_" + isa_name(c.isa) + "_" +
                  std::to_string(c.ny) + "x" + std::to_string(c.nx) + "_t" +
                  std::to_string(c.tsteps);
  for (char& ch : s)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return s;
}

class Kernel2D : public ::testing::TestWithParam<Case> {};

TEST_P(Kernel2D, MatchesReference) {
  const Case c = GetParam();
  if (c.isa == Isa::Avx512 && !cpu_has_avx512()) GTEST_SKIP();
  const auto& spec = preset(c.preset);
  const KernelInfo* kern = find_kernel(c.method, 2, c.isa);
  ASSERT_NE(kern, nullptr);
  // Declared-minimum-halo regression: see kernels1d_test.
  const int halo = kern->required_halo(spec.p2.radius());

  Grid2D a(c.ny, c.nx, halo), b(c.ny, c.nx, halo);
  Grid2D ra(c.ny, c.nx, halo), rb(c.ny, c.nx, halo);
  fill_random(a, 777 + c.ny * 31 + c.nx);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p2, ra, rb, c.tsteps);
  kern->run2(spec.p2, a, b, c.tsteps);

  const double tol = 1e-12 * std::max(1.0, max_abs(ra));
  EXPECT_LE(max_abs_diff(a, ra), tol);
}

std::vector<Case> make_cases() {
  std::vector<Case> v;
  const std::vector<Preset> presets = {Preset::Heat2D, Preset::Box2D9,
                                       Preset::Life, Preset::GB};
  const std::vector<Method> methods = {Method::Naive, Method::MultipleLoads,
                                       Method::DataReorg, Method::DLT,
                                       Method::Ours, Method::Ours2};
  const std::vector<Isa> isas = {Isa::Scalar, Isa::Avx2, Isa::Avx512};
  for (Preset p : presets)
    for (Method m : methods)
      for (Isa isa : isas)
        // Naive is the only kernel at the scalar level.
        if (isa != Isa::Scalar || m == Method::Naive)
          v.push_back({p, m, isa, 40, 48, 4});
  // Awkward sizes: tails in x, partial bands in y, tiny grids.
  for (Method m : {Method::MultipleLoads, Method::DataReorg, Method::DLT,
                   Method::Ours, Method::Ours2}) {
    v.push_back({Preset::Box2D9, m, Isa::Avx2, 37, 41, 4});
    v.push_back({Preset::Heat2D, m, Isa::Avx2, 10, 130, 3});
    v.push_back({Preset::GB, m, Isa::Avx512, 33, 70, 4});
    v.push_back({Preset::Life, m, Isa::Avx2, 5, 7, 4});
  }
  // Odd time steps exercise the folded remainder.
  v.push_back({Preset::Box2D9, Method::Ours2, Isa::Avx2, 40, 48, 5});
  v.push_back({Preset::GB, Method::Ours2, Isa::Avx512, 40, 48, 1});
  v.push_back({Preset::Life, Method::Ours2, Isa::Avx2, 40, 48, 7});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Kernel2D, ::testing::ValuesIn(make_cases()),
                         case_name);

TEST(Kernel2D, ShiftsReuseBitExact) {
  // The shifts-reuse ring buffer must not change results at all (same
  // operations, same order) versus recomputing every vector set.
  const auto& spec = preset(Preset::Box2D9);
  const int ny = 36, nx = 44, halo = 8, tsteps = 6;
  Grid2D a1(ny, nx, halo), b1(ny, nx, halo), a2(ny, nx, halo), b2(ny, nx, halo);
  fill_random(a1, 4242);
  copy(a1, b1);
  copy(a1, a2);
  copy(a1, b2);
  detail::run_ours2_2d<4>(spec.p2, a1, b1, tsteps);
  detail::run_ours2_2d_noreuse<4>(spec.p2, a2, b2, tsteps);
  EXPECT_EQ(max_abs_diff(a1, a2), 0.0);
}

TEST(Kernel2D, ScratchGridRestored) {
  // Layout-changing kernels must leave the scratch grid's halo usable.
  const auto& spec = preset(Preset::Heat2D);
  const int ny = 24, nx = 32, halo = 8;
  Grid2D a(ny, nx, halo), b(ny, nx, halo);
  fill_random(a, 9);
  copy(a, b);
  Grid2D bhalo(ny, nx, halo);
  copy(b, bhalo);
  require_kernel(Method::Ours, 2, Isa::Avx2).run2(spec.p2, a, b, 3);
  for (int x = -halo; x < nx + halo; ++x)
    EXPECT_DOUBLE_EQ(b.at(-1, x), bhalo.at(-1, x));
}

// ---------------------------------------------------------------------------
// Folded differential test: every compiled 2-D fold shape must give the
// same bits as the dynamic shape (same FMAs in the same order), and match
// the naive reference within 8 · steps · taps · ε · max|in|.
// ---------------------------------------------------------------------------

using detail::FoldDispatch;

// Steps `a` by `tsteps` with the folded kernel at width W through
// `dispatch`: folded pairs, then one multiple-loads step when the count is
// odd (run_ours2_2d's schedule).
template <int W>
void run_folded2d(const Pattern2D& p, Grid2D& a, Grid2D& b, int tsteps,
                  FoldDispatch dispatch) {
  const FoldingPlan plan = plan_folding(p, 2);
  const Pattern2D lambda = power(p, 2);
  Grid2D* cur = &a;
  Grid2D* nxt = &b;
  int t = 0;
  for (; t + 2 <= tsteps; t += 2) {
    detail::folded2d_advance<W>(p, plan, lambda, *cur, *nxt, true, 0, a.ny(),
                                dispatch);
    std::swap(cur, nxt);
  }
  if (t < tsteps) {
    detail::step_region_ml2d<W>(p, *cur, *nxt, 0, a.ny(), 0, a.nx());
    std::swap(cur, nxt);
  }
  if (cur != &a) copy(*cur, a);
}

// True when rows [y0, y1) of a and b hold the same bits.
bool same_bits(const Grid2D& a, const Grid2D& b, int y0, int y1) {
  for (int y = y0; y < y1; ++y)
    if (std::memcmp(a.row(y), b.row(y), sizeof(double) * a.nx()) != 0)
      return false;
  return true;
}

double max_abs_diff_rows(const Grid2D& a, const Grid2D& b, int y0, int y1) {
  double m = 0;
  for (int y = y0; y < y1; ++y)
    for (int x = 0; x < a.nx(); ++x)
      m = std::max(m, std::abs(a.at(y, x) - b.at(y, x)));
  return m;
}

double fold_tol(const Pattern2D& p, int tsteps, const Grid2D& in) {
  return 8.0 * tsteps * static_cast<double>(p.size()) * DBL_EPSILON *
         max_abs(in);
}

// Runs `p` over random extents (x tails, nx < W·W, tiny grids) and odd and
// even step counts, through the matched and the dynamic shape.
template <int W>
void check_folded2d(const Pattern2D& p, std::mt19937& rng) {
  const int halo = require_kernel(Method::Ours2, 2, W == 8 ? Isa::Avx512 : Isa::Avx2)
                       .required_halo(p.radius());
  std::vector<std::pair<int, int>> sizes = {{1, 1}, {3, 5}, {W, W}, {W + 3, 2 * W + 1}};
  std::uniform_int_distribution<int> ext(1, 3 * W);
  for (int i = 0; i < 6; ++i) sizes.push_back({ext(rng), ext(rng)});
  for (const auto& [ny, nx] : sizes)
    for (int tsteps : {1, 2, 3, 4}) {
      SCOPED_TRACE(std::to_string(ny) + "x" + std::to_string(nx) + " t" +
                   std::to_string(tsteps));
      Grid2D a(ny, nx, halo), b(ny, nx, halo);
      fill_random(a, rng());
      copy(a, b);
      Grid2D da(ny, nx, halo), db(ny, nx, halo), ra(ny, nx, halo), rb(ny, nx, halo);
      copy(a, da);
      copy(a, db);
      copy(a, ra);
      copy(a, rb);
      const double tol = fold_tol(p, tsteps, a);
      run_folded2d<W>(p, a, b, tsteps, FoldDispatch::Match);
      run_folded2d<W>(p, da, db, tsteps, FoldDispatch::Dynamic);
      run_reference(p, ra, rb, tsteps);
      EXPECT_TRUE(same_bits(a, da, 0, ny));
      EXPECT_LE(max_abs_diff(a, ra), tol);
    }

  // One advance over partial row ranges, as the tiled wedge stages call it.
  const FoldingPlan plan = plan_folding(p, 2);
  const Pattern2D lambda = power(p, 2);
  const int ny = 3 * W + 5, nx = 2 * W + 3;
  Grid2D in(ny, nx, halo), ref(ny, nx, halo), scratch(ny, nx, halo);
  fill_random(in, rng());
  copy(in, ref);
  copy(in, scratch);
  run_reference(p, ref, scratch, 2);
  for (const auto& [y0, y1] : std::vector<std::pair<int, int>>{
           {0, ny}, {0, W + 1}, {1, 2 * W + 3}, {W + 2, ny}, {5, 6}}) {
    SCOPED_TRACE("rows " + std::to_string(y0) + ".." + std::to_string(y1));
    Grid2D out(ny, nx, halo), dout(ny, nx, halo);
    copy(in, out);
    copy(in, dout);
    detail::folded2d_advance<W>(p, plan, lambda, in, out, true, y0, y1,
                                FoldDispatch::Match);
    detail::folded2d_advance<W>(p, plan, lambda, in, dout, true, y0, y1,
                                FoldDispatch::Dynamic);
    EXPECT_TRUE(same_bits(out, dout, y0, y1));
    EXPECT_LE(max_abs_diff_rows(out, ref, y0, y1), fold_tol(p, 2, in));
  }
}

TEST(FoldedShape2D, PresetsResolveToTheirCompiledShape) {
  // A preset silently falling back to the dynamic shape would hide a
  // performance regression, so the mapping is pinned.
  auto shape = [](Preset pr) {
    const char* n = detail::folded2d_shape(plan_folding(preset(pr).p2, 2));
    return std::string(n != nullptr ? n : "dynamic");
  };
  EXPECT_EQ(shape(Preset::Heat2D), "2D-Heat");
  EXPECT_EQ(shape(Preset::Box2D9), "2D9P");
  EXPECT_EQ(shape(Preset::Life), "dynamic");
  EXPECT_EQ(shape(Preset::GB), "dynamic");
}

TEST(FoldedShape2D, CompiledShapesMatchDynamicBitwise) {
  std::mt19937 rng(1602);
  for (Preset pr : {Preset::Heat2D, Preset::Box2D9}) {
    SCOPED_TRACE(preset(pr).name);
    check_folded2d<4>(preset(pr).p2, rng);
    if (cpu_has_avx512()) check_folded2d<8>(preset(pr).p2, rng);
  }
}

// 2-D Heat with the weight at `off` scaled by `f`.
Pattern2D scaled_heat2d(Pattern2D::Offset off, double f) {
  Pattern2D p = preset(Preset::Heat2D).p2;
  for (auto& t : p.taps)
    if (t.off == off) t.w *= f;
  return p;
}

TEST(FoldedShape2D, SameStructureOtherWeightsRunsTheCompiledShape) {
  // Skewing one neighbour keeps every column's nonzero rows and terms, so
  // the plan still runs Heat2DFold, with its own values.
  std::mt19937 rng(1604);
  for (const Pattern2D& p : {scaled_heat2d({0, 1}, 1.5), scaled_heat2d({1, 0}, 1.5)}) {
    const char* name = detail::folded2d_shape(plan_folding(p, 2));
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(std::string(name), "2D-Heat");
    check_folded2d<4>(p, rng);
    if (cpu_has_avx512()) check_folded2d<8>(p, rng);
  }
}

TEST(FoldedShape2D, UnmatchedPlansRunTheDynamicShape) {
  // 2-D Heat with a zero centre weight has the same taps but other nonzero
  // rows in its basis columns, so it must not run Heat2DFold. GameOfLife
  // and GB fold to shapes of their own. All stay correct through the
  // dynamic shape.
  const Pattern2D hollow = scaled_heat2d({0, 0}, 0.0);
  std::mt19937 rng(1603);
  for (const Pattern2D& p : {hollow, preset(Preset::Life).p2, preset(Preset::GB).p2}) {
    EXPECT_EQ(detail::folded2d_shape(plan_folding(p, 2)), nullptr);
    check_folded2d<4>(p, rng);
    if (cpu_has_avx512()) check_folded2d<8>(p, rng);
  }
}

}  // namespace
}  // namespace sf
