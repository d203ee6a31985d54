// Every 1-D kernel must reproduce the naive reference exactly (to FP
// tolerance) for all sizes — including tails, tiny domains, and the APOP
// two-array stencil.
#include <gtest/gtest.h>

#include <tuple>

#include "common/cpu.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

struct Case {
  Preset preset;
  Method method;
  Isa isa;
  int n;
  int tsteps;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string s = preset(c.preset).name + std::string("_") +
                  method_name(c.method) + "_" + isa_name(c.isa) + "_n" +
                  std::to_string(c.n) + "_t" + std::to_string(c.tsteps);
  for (char& ch : s)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return s;
}

class Kernel1D : public ::testing::TestWithParam<Case> {};

TEST_P(Kernel1D, MatchesReference) {
  const Case c = GetParam();
  if (c.isa == Isa::Avx512 && !cpu_has_avx512()) GTEST_SKIP();
  const auto& spec = preset(c.preset);
  const KernelInfo* kern = find_kernel(c.method, 1, c.isa);
  ASSERT_NE(kern, nullptr);
  // Grids at the kernel's *declared minimum* halo: regression that every
  // method really runs (and matches the reference) at its capability bound.
  const int radius =
      std::max(spec.p1.radius(), spec.has_source ? spec.src1.radius() : 0);
  const int halo = kern->required_halo(radius);

  Grid1D a(c.n, halo), b(c.n, halo), ra(c.n, halo), rb(c.n, halo);
  Grid1D k(c.n, halo);
  fill_random(a, 1234 + c.n);
  fill_random(k, 99);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);

  const Pattern1D* src = spec.has_source ? &spec.src1 : nullptr;
  const FieldView1D kv = k.view();
  const FieldView1D* kk = spec.has_source ? &kv : nullptr;

  run_reference(spec.p1, ra, rb, c.tsteps, src, kk);
  kern->run1(spec.p1, a, b, src, kk, c.tsteps);

  const double tol = 1e-12 * std::max(1.0, max_abs(ra));
  EXPECT_LE(max_abs_diff(a, ra), tol);
}

std::vector<Case> make_cases() {
  std::vector<Case> v;
  const std::vector<Preset> presets = {Preset::Heat1D, Preset::P1D5, Preset::Apop};
  const std::vector<Method> methods = {Method::Naive, Method::MultipleLoads,
                                       Method::DataReorg, Method::DLT,
                                       Method::Ours, Method::Ours2};
  const std::vector<Isa> isas = {Isa::Scalar, Isa::Avx2, Isa::Avx512};
  const std::vector<int> sizes = {64, 70, 256, 1000};
  for (Preset p : presets)
    for (Method m : methods)
      for (Isa isa : isas) {
        // Naive is the only kernel at the scalar level.
        if (isa == Isa::Scalar && m != Method::Naive) continue;
        for (int n : sizes) v.push_back({p, m, isa, n, 4});
      }
  // Odd time-step counts exercise the folded remainder path.
  v.push_back({Preset::Heat1D, Method::Ours2, Isa::Avx2, 256, 5});
  v.push_back({Preset::P1D5, Method::Ours2, Isa::Avx2, 256, 1});
  v.push_back({Preset::Apop, Method::Ours2, Isa::Avx512, 333, 7});
  // Tiny domains: everything is ring/tail.
  v.push_back({Preset::Heat1D, Method::Ours, Isa::Avx2, 8, 3});
  v.push_back({Preset::Heat1D, Method::Ours2, Isa::Avx2, 8, 4});
  v.push_back({Preset::P1D5, Method::DLT, Isa::Avx2, 12, 3});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Kernel1D, ::testing::ValuesIn(make_cases()),
                         case_name);

TEST(Kernel1D, LongRunStability) {
  // 100 steps with a contracting stencil stays bounded and matches.
  const auto& spec = preset(Preset::Heat1D);
  const int n = 512, halo = 8, tsteps = 100;
  Grid1D a(n, halo), b(n, halo), ra(n, halo), rb(n, halo);
  fill_random(a, 5);
  copy(a, b);
  copy(a, ra);
  copy(a, rb);
  run_reference(spec.p1, ra, rb, tsteps);
  require_kernel(Method::Ours2, 1).run1(spec.p1, a, b, nullptr, nullptr, tsteps);
  EXPECT_LE(max_abs_diff(a, ra), 1e-11);
}

}  // namespace
}  // namespace sf
