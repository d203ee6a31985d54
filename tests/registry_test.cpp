// Kernel registry: enumeration, string lookup, capability metadata, and the
// declared-minimum-halo regression. Adding a kernel must only require a
// registration in its own translation unit; these tests assert the full
// method x dims x ISA matrix is visible through the registry alone: every
// method at AVX2 and AVX-512, and naive alone at the scalar level.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "stencil/presets.hpp"
#include "stencil/reference.hpp"

namespace sf {
namespace {

const Method kMethods[] = {Method::Naive,  Method::MultipleLoads,
                           Method::DataReorg, Method::DLT,
                           Method::Ours,   Method::Ours2};
const Isa kIsas[] = {Isa::Scalar, Isa::Avx2, Isa::Avx512};

TEST(Registry, AllSixMethodsAcrossAllDimsAndIsas) {
  for (int dims = 1; dims <= 3; ++dims)
    for (Method m : kMethods)
      for (Isa isa : kIsas) {
        const KernelInfo* k = find_kernel(m, dims, isa);
        // The scalar level holds naive only: vector methods are built at
        // AVX2 and AVX-512 and nowhere else.
        if (isa == Isa::Scalar && m != Method::Naive) {
          EXPECT_EQ(k, nullptr) << method_name(m) << " " << dims << "-D";
          continue;
        }
        ASSERT_NE(k, nullptr)
            << method_name(m) << " " << dims << "-D " << isa_name(isa);
        EXPECT_EQ(k->method, m);
        EXPECT_EQ(k->dims, dims);
        EXPECT_EQ(k->isa, isa);
        EXPECT_STREQ(k->name, method_name(m));
        // Naive is scalar at every registered level; vector methods carry
        // the ISA's lane count.
        EXPECT_EQ(k->width, m == Method::Naive ? 1 : isa_width(isa));
        // Exactly one executor pointer, matching the dimensionality.
        EXPECT_EQ(k->run1 != nullptr, dims == 1);
        EXPECT_EQ(k->run2 != nullptr, dims == 2);
        EXPECT_EQ(k->run3 != nullptr, dims == 3);
      }
}

TEST(Registry, AvailableEnumeratesOnePerMethodAtConcreteIsa) {
  for (int dims = 1; dims <= 3; ++dims)
    for (Isa isa : kIsas) {
      // Six methods at each vector level; naive alone at the scalar level.
      const std::size_t want = isa == Isa::Scalar ? 1u : 6u;
      auto ks = available_kernels(dims, isa);
      EXPECT_EQ(ks.size(), want) << dims << "-D " << isa_name(isa);
      std::set<Method> seen;
      for (const KernelInfo* k : ks) {
        EXPECT_EQ(k->isa, isa);
        EXPECT_EQ(k->dims, dims);
        if (isa == Isa::Scalar) {
          EXPECT_EQ(k->method, Method::Naive);
        }
        seen.insert(k->method);
      }
      EXPECT_EQ(seen.size(), want);
      // Deterministic (method, isa) ordering.
      EXPECT_TRUE(std::is_sorted(ks.begin(), ks.end(),
                                 [](const KernelInfo* a, const KernelInfo* b) {
                                   return a->method < b->method;
                                 }));
    }
}

TEST(Registry, AutoIsaFiltersToCpuSupportedLevels) {
  auto ks = available_kernels(2, Isa::Auto);
  EXPECT_FALSE(ks.empty());
  for (const KernelInfo* k : ks) {
    if (k->isa == Isa::Avx2) EXPECT_TRUE(cpu_has_avx2());
    if (k->isa == Isa::Avx512) EXPECT_TRUE(cpu_has_avx512());
  }
}

TEST(Registry, StringLookupMatchesEnumLookup) {
  for (int dims = 1; dims <= 3; ++dims)
    for (Method m : kMethods) {
      EXPECT_EQ(find_kernel(method_name(m), dims, Isa::Avx2),
                find_kernel(m, dims, Isa::Avx2));
      EXPECT_EQ(method_from_name(method_name(m)), m);
    }
  EXPECT_EQ(find_kernel("no-such-kernel", 2, Isa::Avx2), nullptr);
  EXPECT_EQ(method_from_name("auto"), Method::Auto);
  EXPECT_THROW(method_from_name("bogus"), std::invalid_argument);
  // The throwing lookup names the missing combination instead of returning
  // nullptr.
  EXPECT_EQ(&require_kernel("ours", 2, Isa::Avx2),
            find_kernel(Method::Ours, 2, Isa::Avx2));
  EXPECT_THROW(require_kernel("no-such-kernel", 2, Isa::Avx2),
               std::invalid_argument);
  EXPECT_THROW(require_kernel(Method::Ours2, 4), std::invalid_argument);
}

TEST(Registry, CapabilityMetadata) {
  // Folding doubles the halo; single-step methods need exactly the radius.
  const KernelInfo* naive = find_kernel(Method::Naive, 2, Isa::Avx2);
  EXPECT_EQ(naive->fold_depth, 1);
  EXPECT_EQ(naive->required_halo(1), 1);
  EXPECT_EQ(naive->required_halo(2), 2);

  const KernelInfo* folded = find_kernel(Method::Ours2, 2, Isa::Avx2);
  EXPECT_EQ(folded->fold_depth, 2);
  EXPECT_EQ(folded->required_halo(1), 2);
  EXPECT_EQ(folded->required_halo(2), 4);

  // Data-reorg's aligned L/C/R loads read one full vector beyond the
  // interior: the halo floor is the SIMD width.
  EXPECT_EQ(find_kernel(Method::DataReorg, 1, Isa::Avx2)->required_halo(1), 4);
  EXPECT_EQ(find_kernel(Method::DataReorg, 1, Isa::Avx512)->required_halo(1),
            8);

  // supports(): the folded vector path engages only while 2r fits the
  // folded-radius cap.
  EXPECT_TRUE(find_kernel(Method::Ours2, 1, Isa::Avx512)->supports(4));
  EXPECT_FALSE(find_kernel(Method::Ours2, 1, Isa::Avx2)->supports(3));
  EXPECT_TRUE(find_kernel(Method::Naive, 3, Isa::Scalar)->supports(100));
}

// Registration is global and has no unregister: the probe entry below stays
// for the rest of the binary, so it carries a harmless no-op executor and
// lives in an unused dimensionality (4-D) that every real enumeration
// filters out.
void probe_noop_run1(const Pattern1D&, const FieldView1D&, const FieldView1D&,
                     const Pattern1D*, const FieldView1D*, int) {}

TEST(Registry, AutoLookupFallsBackThroughNarrowerIsaLevels) {
  // A method registered at only a narrow ISA must stay reachable through
  // Isa::Auto on wider machines.
  if (!cpu_has_avx2()) GTEST_SKIP();
  KernelInfo probe =
      kernel1d_info(Method::Naive, Isa::Avx2, 4, 1, &probe_noop_run1);
  probe.dims = 4;
  KernelRegistry::instance().add(probe);
  const KernelInfo* k = find_kernel(Method::Naive, 4, Isa::Auto);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->isa, Isa::Avx2);
}

// ---------------------------------------------------------------------------
// Declared-minimum-halo regression, driven by the enumeration itself so a
// newly registered kernel is covered automatically: every available kernel
// must reproduce the reference when its grids carry exactly required_halo().
// Each kernel runs two inputs: a preset, and a radius-5 star that exceeds
// every vector window (data-reorg and ours at W = 4, ours-2step's folded
// 2r at W = 4 and 8, the 2-D/3-D ours row windows), so each kernel's
// radius fallback is checked at its declared halo too.
// ---------------------------------------------------------------------------

/// Radius-r star: center plus +-1..+-r along every axis, positive weights
/// summing to 1 (values stay bounded over any number of steps).
template <int D>
Pattern<D> star(int r) {
  using P = Pattern<D>;
  std::vector<typename P::Tap> taps{{typename P::Offset{}, 0.4}};
  for (int d = 0; d < D; ++d)
    for (int k = 1; k <= r; ++k)
      for (int s : {-k, k}) {
        typename P::Offset off{};
        off[d] = s;
        taps.push_back({off, 0.6 / (2 * D * r)});
      }
  return P::from_taps(taps);
}

TEST(Registry, EveryKernelRunsAtDeclaredMinimumHalo1D) {
  const int n = 70, tsteps = 4;
  // P1D5: radius 2 stresses 2r halos.
  for (const Pattern1D& p : {preset(Preset::P1D5).p1, star<1>(5)})
    for (const KernelInfo* k : available_kernels(1)) {
      const int halo = k->required_halo(p.radius());
      Grid1D a(n, halo), b(n, halo), ra(n, halo), rb(n, halo);
      fill_random(a, 11);
      copy(a, b);
      copy(a, ra);
      copy(a, rb);
      run_reference(p, ra, rb, tsteps);
      k->run1(p, a, b, nullptr, nullptr, tsteps);
      EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)))
          << k->name << " " << isa_name(k->isa) << " r=" << p.radius()
          << " halo=" << halo;
    }
}

TEST(Registry, EveryKernelRunsAtDeclaredMinimumHalo2D) {
  const int ny = 36, nx = 44, tsteps = 4;
  for (const Pattern2D& p : {preset(Preset::Box2D9).p2, star<2>(5)})
    for (const KernelInfo* k : available_kernels(2)) {
      const int halo = k->required_halo(p.radius());
      Grid2D a(ny, nx, halo), b(ny, nx, halo), ra(ny, nx, halo),
          rb(ny, nx, halo);
      fill_random(a, 22);
      copy(a, b);
      copy(a, ra);
      copy(a, rb);
      run_reference(p, ra, rb, tsteps);
      k->run2(p, a, b, tsteps);
      EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)))
          << k->name << " " << isa_name(k->isa) << " r=" << p.radius()
          << " halo=" << halo;
    }
}

TEST(Registry, EveryKernelRunsAtDeclaredMinimumHalo3D) {
  const int nz = 12, ny = 10, nx = 20, tsteps = 4;
  for (const Pattern3D& p : {preset(Preset::Box3D27).p3, star<3>(5)})
    for (const KernelInfo* k : available_kernels(3)) {
      const int halo = k->required_halo(p.radius());
      Grid3D a(nz, ny, nx, halo), b(nz, ny, nx, halo), ra(nz, ny, nx, halo),
          rb(nz, ny, nx, halo);
      fill_random(a, 33);
      copy(a, b);
      copy(a, ra);
      copy(a, rb);
      run_reference(p, ra, rb, tsteps);
      k->run3(p, a, b, tsteps);
      EXPECT_LE(max_abs_diff(a, ra), 1e-12 * std::max(1.0, max_abs(ra)))
          << k->name << " " << isa_name(k->isa) << " r=" << p.radius()
          << " halo=" << halo;
    }
}

}  // namespace
}  // namespace sf
