// Every 3-D kernel must reproduce the naive reference (both presets, all
// ISAs, awkward sizes, odd step counts).
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cfloat>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "fold/folding_plan.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/kernels3d_impl.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

struct Case {
  Preset preset;
  Method method;
  Isa isa;
  int nz, ny, nx;
  int tsteps;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string s = preset(c.preset).name + std::string("_") +
                  method_name(c.method) + "_" + isa_name(c.isa) + "_" +
                  std::to_string(c.nz) + "x" + std::to_string(c.ny) + "x" +
                  std::to_string(c.nx) + "_t" + std::to_string(c.tsteps);
  for (char& ch : s)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return s;
}

class Kernel3D : public ::testing::TestWithParam<Case> {};

TEST_P(Kernel3D, MatchesReference) {
  const Case c = GetParam();
  if (c.isa == Isa::Avx512 && !cpu_has_avx512()) GTEST_SKIP();
  const auto& spec = preset(c.preset);
  const KernelInfo* kern = find_kernel(c.method, 3, c.isa);
  ASSERT_NE(kern, nullptr);
  // Declared-minimum-halo regression: see kernels1d_test.
  const int halo = kern->required_halo(spec.p3.radius());

  Grid3D a(c.nz, c.ny, c.nx, halo), b(c.nz, c.ny, c.nx, halo);
  Grid3D ra(c.nz, c.ny, c.nx, halo), rb(c.nz, c.ny, c.nx, halo);
  fill_random(a, 555 + c.nz * 7 + c.nx);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  run_reference(spec.p3, ra, rb, c.tsteps);
  kern->run3(spec.p3, a, b, c.tsteps);

  const double tol = 1e-12 * std::max(1.0, max_abs(ra));
  EXPECT_LE(max_abs_diff(a, ra), tol);
}

std::vector<Case> make_cases() {
  std::vector<Case> v;
  const std::vector<Method> methods = {Method::Naive, Method::MultipleLoads,
                                       Method::DataReorg, Method::DLT,
                                       Method::Ours, Method::Ours2};
  for (Preset p : {Preset::Heat3D, Preset::Box3D27})
    for (Method m : methods)
      for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
        // Naive is the only kernel at the scalar level.
        if (isa != Isa::Scalar || m == Method::Naive)
          v.push_back({p, m, isa, 10, 12, 32, 4});
  // Awkward shapes: x-tails, partial bands, tiny volumes, odd steps.
  for (Method m : {Method::MultipleLoads, Method::DataReorg, Method::DLT,
                   Method::Ours, Method::Ours2}) {
    v.push_back({Preset::Box3D27, m, Isa::Avx2, 7, 9, 21, 3});
    v.push_back({Preset::Heat3D, m, Isa::Avx512, 6, 11, 19, 4});
    v.push_back({Preset::Heat3D, m, Isa::Avx2, 3, 3, 5, 4});
  }
  v.push_back({Preset::Box3D27, Method::Ours2, Isa::Avx2, 8, 10, 24, 5});
  v.push_back({Preset::Heat3D, Method::Ours2, Isa::Avx512, 8, 10, 24, 1});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Kernel3D, ::testing::ValuesIn(make_cases()),
                         case_name);

// ---------------------------------------------------------------------------
// Folded differential test (see kernels2d_test): the compiled 3-D fold
// shape against the dynamic one (bitwise) and the naive reference
// (8 · steps · taps · ε · max|in|).
// ---------------------------------------------------------------------------

using detail::FoldDispatch;

// Steps `a` by `tsteps` with the folded kernel at width W through
// `dispatch` (run_ours2_3d's schedule).
template <int W>
void run_folded3d(const Pattern3D& p, Grid3D& a, Grid3D& b, int tsteps,
                  FoldDispatch dispatch) {
  const FoldingPlan plan = plan_folding(p, 2);
  const Pattern3D lambda = power(p, 2);
  std::vector<AlignedBuffer> window;
  Grid3D* cur = &a;
  Grid3D* nxt = &b;
  int t = 0;
  for (; t + 2 <= tsteps; t += 2) {
    detail::folded3d_advance<W>(p, plan, lambda, *cur, *nxt, window, 0, a.nz(),
                                dispatch);
    std::swap(cur, nxt);
  }
  if (t < tsteps) {
    detail::step_region_ml3d<W>(p, *cur, *nxt, 0, a.nz(), 0, a.ny(), 0, a.nx());
    std::swap(cur, nxt);
  }
  if (cur != &a) copy(*cur, a);
}

// True when planes [z0, z1) of a and b hold the same bits.
bool same_bits(const Grid3D& a, const Grid3D& b, int z0, int z1) {
  for (int z = z0; z < z1; ++z)
    for (int y = 0; y < a.ny(); ++y)
      if (std::memcmp(a.row(z, y), b.row(z, y), sizeof(double) * a.nx()) != 0)
        return false;
  return true;
}

double max_abs_diff_planes(const Grid3D& a, const Grid3D& b, int z0, int z1) {
  double m = 0;
  for (int z = z0; z < z1; ++z)
    for (int y = 0; y < a.ny(); ++y)
      for (int x = 0; x < a.nx(); ++x)
        m = std::max(m, std::abs(a.at(z, y, x) - b.at(z, y, x)));
  return m;
}

double fold_tol(const Pattern3D& p, int tsteps, const Grid3D& in) {
  return 8.0 * tsteps * static_cast<double>(p.size()) * DBL_EPSILON *
         max_abs(in);
}

// Runs `p` over random extents and odd and even step counts through the
// matched and the dynamic shape, then one advance over partial plane ranges.
template <int W>
void check_folded3d(const Pattern3D& p, std::mt19937& rng) {
  const int halo = require_kernel(Method::Ours2, 3, W == 8 ? Isa::Avx512 : Isa::Avx2)
                       .required_halo(p.radius());
  std::vector<std::array<int, 3>> sizes = {{1, 1, 1}, {3, 3, 5}, {4, W, W + 3}};
  std::uniform_int_distribution<int> ext(1, 2 * W + 3);
  for (int i = 0; i < 3; ++i) sizes.push_back({ext(rng) % 9 + 1, ext(rng), ext(rng)});
  for (const auto& [nz, ny, nx] : sizes)
    for (int tsteps : {1, 2, 3, 4}) {
      SCOPED_TRACE(std::to_string(nz) + "x" + std::to_string(ny) + "x" +
                   std::to_string(nx) + " t" + std::to_string(tsteps));
      Grid3D a(nz, ny, nx, halo), b(nz, ny, nx, halo);
      fill_random(a, rng());
      copy(a, b);
      Grid3D da(nz, ny, nx, halo), db(nz, ny, nx, halo);
      Grid3D ra(nz, ny, nx, halo), rb(nz, ny, nx, halo);
      copy(a, da);
      copy(a, db);
      copy(a, ra);
      copy(a, rb);
      const double tol = fold_tol(p, tsteps, a);
      run_folded3d<W>(p, a, b, tsteps, FoldDispatch::Match);
      run_folded3d<W>(p, da, db, tsteps, FoldDispatch::Dynamic);
      run_reference(p, ra, rb, tsteps);
      EXPECT_TRUE(same_bits(a, da, 0, nz));
      EXPECT_LE(max_abs_diff(a, ra), tol);
    }

  // One advance over partial plane ranges, as the tiled wedge stages call
  // it: the matched shape reuses one window across the ranges (as a worker
  // does), the dynamic shape starts each range with a fresh one. Two bands
  // make a stale window plane visible.
  const FoldingPlan plan = plan_folding(p, 2);
  const Pattern3D lambda = power(p, 2);
  const int nz = 9, ny = 2 * W + 3, nx = 2 * W + 1;
  Grid3D in(nz, ny, nx, halo), ref(nz, ny, nx, halo), scratch(nz, ny, nx, halo);
  fill_random(in, rng());
  copy(in, ref);
  copy(in, scratch);
  run_reference(p, ref, scratch, 2);
  std::vector<AlignedBuffer> window;
  for (const auto& [z0, z1] :
       std::vector<std::pair<int, int>>{{0, nz}, {0, 2}, {1, 5}, {4, nz}, {8, 9}}) {
    SCOPED_TRACE("planes " + std::to_string(z0) + ".." + std::to_string(z1));
    Grid3D out(nz, ny, nx, halo), dout(nz, ny, nx, halo);
    std::vector<AlignedBuffer> dwindow;
    copy(in, out);
    copy(in, dout);
    detail::folded3d_advance<W>(p, plan, lambda, in, out, window, z0, z1,
                                FoldDispatch::Match);
    detail::folded3d_advance<W>(p, plan, lambda, in, dout, dwindow, z0, z1,
                                FoldDispatch::Dynamic);
    EXPECT_TRUE(same_bits(out, dout, z0, z1));
    EXPECT_LE(max_abs_diff_planes(out, ref, z0, z1), fold_tol(p, 2, in));
  }
}

TEST(FoldedShape3D, PresetsResolveToTheirCompiledShape) {
  auto shape = [](Preset pr) {
    const char* n = detail::folded3d_shape(plan_folding(preset(pr).p3, 2));
    return std::string(n != nullptr ? n : "dynamic");
  };
  EXPECT_EQ(shape(Preset::Heat3D), "3D-Heat");
  EXPECT_EQ(shape(Preset::Box3D27), "dynamic");
}

TEST(FoldedShape3D, CompiledShapeMatchesDynamicBitwise) {
  std::mt19937 rng(1605);
  check_folded3d<4>(preset(Preset::Heat3D).p3, rng);
  if (cpu_has_avx512()) check_folded3d<8>(preset(Preset::Heat3D).p3, rng);
}

TEST(FoldedShape3D, UnmatchedPlansRunTheDynamicShape) {
  // 3-D Heat with a zero centre weight changes the basis columns' nonzero
  // rows; 3D27P folds to a shape of its own.
  Pattern3D hollow = preset(Preset::Heat3D).p3;
  for (auto& t : hollow.taps)
    if (t.off == Pattern3D::Offset{0, 0, 0}) t.w = 0.0;
  std::mt19937 rng(1606);
  for (const Pattern3D& p : {hollow, preset(Preset::Box3D27).p3}) {
    EXPECT_EQ(detail::folded3d_shape(plan_folding(p, 2)), nullptr);
    check_folded3d<4>(p, rng);
    if (cpu_has_avx512()) check_folded3d<8>(p, rng);
  }
}

}  // namespace
}  // namespace sf
