// Vectorized temporal folding for 3-D stencils, m = 2.
//
// The paper manipulates a 3-D volume as an Nz-layer stack of 2-D slices
// (§3.3). The folded pattern Λ = p² is sliced by dz; every slice's columns
// enter one shared regression (fold/folding_plan.cpp), so each *source
// plane* contributes a small set of counterpart columns that are computed
// once per plane and reused by all 2R+1 output planes whose window contains
// it — a sliding-window generalization of the 2-D shifts reuse to the z
// dimension. Per plane and W-column set the pipeline is the 2-D one:
// vertical fold, in-register transpose, horizontal fold over (dz, dx) terms,
// transpose back. As in 2-D, that pipeline is one template over a fold shape
// (kernels/fold_shape.hpp), compiled for 3-D Heat's plan and read at run
// time for any other.
#include <vector>

#include "common/aligned_buffer.hpp"
#include "fold/region.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/fold_shape.hpp"
#include "kernels/registry.hpp"
#include "kernels/kernels3d_impl.hpp"
#include "simd/transpose.hpp"
#include "simd/vecd.hpp"
#include "stencil/reference.hpp"

namespace sf::detail {

Folded3DWindowShape folded3d_window_shape(const FoldingPlan& plan, int nx,
                                          int W) {
  const int R = plan.radius;
  const int nsrc =
      static_cast<int>(plan.basis.size()) + (plan.uses_impulse ? 1 : 0);
  const int ncols = nx / W * W + 2 * R;  // columns [-R, nxv+R)
  Folded3DWindowShape s;
  s.nbufs = static_cast<std::size_t>(2 * R + 1) *
            static_cast<std::size_t>(nsrc);
  s.doubles = static_cast<std::size_t>(ncols) * static_cast<std::size_t>(W);
  return s;
}

namespace {

template <int W>
using V = simd::vecd<W>;

constexpr int kMaxR3 = 2;  // folded radius cap (m = 2, r = 1 in 3-D presets)

// Compiled 3-D fold shape: the plan of 3-D Heat at m = 2
// (docs/ARCHITECTURE.md#fold-shapes says how to add one). Any other plan
// runs Fold3DDynamic.
struct Heat3DFold
    : FoldShape<2, false, BasisMasks<0b00100, 0b01110, 0b11111>, FoldAt<0, -2, 0>,
                FoldAt<0, 2, 0>, FoldAt<-1, -1, 0>, FoldAt<0, -1, 1>, FoldAt<1, -1, 0>,
                FoldAt<-1, 1, 0>, FoldAt<0, 1, 1>, FoldAt<1, 1, 0>, FoldAt<-2, 0, 0>,
                FoldAt<-1, 0, 1>, FoldAt<0, 0, 2>, FoldAt<1, 0, 1>, FoldAt<2, 0, 0>> {
  static constexpr const char* name = "3D-Heat";
};
using Fold3DShapes = FoldShapes<Heat3DFold>;
// Basis columns are independent, so nbasis <= 2R + 1; a (dz, dx) column's
// terms use each source at most once.
constexpr int kMaxSrc3 = 2 * kMaxR3 + 2;
using Fold3DDynamic =
    DynamicFold<kMaxR3, kMaxSrc3, (2 * kMaxR3 + 1) * (2 * kMaxR3 + 1) * kMaxSrc3>;

/// The vector part of folded3d_advance: planes [rz0, rz1), full W-row bands
/// over the aligned columns [0, nx / W * W), for one fold shape.
template <int W, class Shape>
void folded3d_bands(const Shape& sh, const FoldingPlan& plan, const FieldView3D& in,
                    const FieldView3D& out, std::vector<AlignedBuffer>& window, int rz0,
                    int rz1) {
  const int ny = in.ny(), nx = in.nx();
  const int R = sh.R;
  const int nsrc = sh.nsrc;
  const int nbx = nx / W;
  const int nxv = nbx * W;
  const int nyv = ny - ny % W;
  const int nwin = 2 * R + 1;
  const FoldValues<W, Shape> val(sh, plan);
  // window[slot * nsrc + src] holds one plane's counterpart columns for the
  // current band; column x lives at offset (x + R) * W.
  const auto buffer = [&](int q, int s) {
    const int slot = ((q % nwin) + nwin) % nwin;
    return window[static_cast<std::size_t>(slot * nsrc + s)].data();
  };

  for (int y0 = 0; y0 < nyv; y0 += W) {
    // Computes all counterpart columns of source plane q into its slot.
    auto fill_plane = [&](int q) {
      const double* row0 = in.row(q, y0);
      const std::ptrdiff_t stride = in.stride();
      double* bufs[Shape::kSrcCap];
      for (int s = 0; s < nsrc; ++s) bufs[s] = buffer(q, s);
      for (int xb = 0; xb < nbx; ++xb) {
        const double* base = row0 + static_cast<std::ptrdiff_t>(xb) * W;
        const auto row = [&](int k) { return base + k * stride; };
        for_src(sh, [&](auto s) {
          V<W> vf[W];
          fold_source<W>(sh, s, val, row, vf);
          simd::transpose(vf);
          double* col = bufs[s] + static_cast<std::size_t>(xb * W + R) * W;
          unroll<W>([&](auto j) { vf[j].store(col + j * W); });
        });
      }
      // Edge columns: the R columns on either side of the aligned region.
      for (int e = 0; e < R; ++e)
        for (int x : {-R + e, nxv + e})
          fold_edge_column<W>(
              sh, val, [&](int k) { return in.at(q, y0 + k, x); },
              [&](auto s, V<W> v) {
                v.store(bufs[s] + static_cast<std::size_t>(x + R) * W);
              });
    };

    for (int q = rz0 - R; q < rz0 + R; ++q) fill_plane(q);
    for (int z = rz0; z < rz1; ++z) {
      fill_plane(z + R);
      // Each term's source column block for plane z, resolved once per
      // plane rather than per output vector.
      const double* src[Shape::kTermCap];
      for_term(sh, [&](auto t) {
        const FoldTermPos tp = sh.term(t);
        src[t] = buffer(z + tp.dz, tp.src) + static_cast<std::ptrdiff_t>(tp.dx + R) * W;
      });
      double* orow[W];
      for (int i = 0; i < W; ++i) orow[i] = out.row(z, y0 + i);
      // Emit output plane z for this band, term by term over W accumulators.
      for (int xb = 0; xb < nbx; ++xb) {
        const std::size_t off = static_cast<std::size_t>(xb) * W * W;
        V<W> oc[W];
        unroll<W>([&](auto j) { oc[j] = V<W>::zero(); });
        for_term(sh, [&](auto t) {
          const V<W> w = val.cw[t];
          const double* col = src[t] + off;
          unroll<W>([&](auto j) { oc[j] = V<W>::fma(w, V<W>::load(col + j * W), oc[j]); });
        });
        simd::transpose(oc);
        for (int i = 0; i < W; ++i) oc[i].store(orow[i] + xb * W);
      }
    }
  }
}

}  // namespace

const char* folded3d_shape(const FoldingPlan& plan) {
  const char* name = nullptr;
  with_fold_shape<Fold3DDynamic>(Fold3DShapes{}, plan, FoldDispatch::Match,
                                 [&](const auto& sh) { name = sh.name; });
  return name;
}

template <int W>
void folded3d_advance(const Pattern3D& p, const FoldingPlan& plan,
                      const Pattern3D& lambda, const FieldView3D& in, const FieldView3D& out,
                      std::vector<AlignedBuffer>& window, int rz0, int rz1,
                      FoldDispatch dispatch) {
  const int nz = in.nz(), ny = in.ny(), nx = in.nx();
  const int r = p.radius();
  const int nxv = nx / W * W;
  const int nyv = ny - ny % W;

  const Folded3DWindowShape shape = folded3d_window_shape(plan, nx, W);
  if (window.size() != shape.nbufs ||
      (shape.nbufs > 0 && window[0].size() < shape.doubles)) {
    window.clear();
    for (std::size_t i = 0; i < shape.nbufs; ++i)
      window.emplace_back(shape.doubles);
  }

  with_fold_shape<Fold3DDynamic>(Fold3DShapes{}, plan, dispatch, [&](const auto& sh) {
    folded3d_bands<W>(sh, plan, in, out, window, rz0, rz1);
  });

  // Alignment tails, scalar with the folding matrix.
  if (nxv < nx) apply_pattern(lambda, in, out, rz0, rz1, 0, ny, nxv, nx);
  if (nyv < ny) apply_pattern(lambda, in, out, rz0, rz1, nyv, ny, 0, nxv);

  // Boundary-shell correction: the domain shell(r) intersected with planes
  // [rz0, rz1), each box fixed stepwise with a private buffer (thread-safe
  // across disjoint plane ranges).
  if (r > 0) {
    // A side the plane range does not touch is an empty box.
    const Box f2[] = {{rz0, rz1, 0, ny, 0, std::min(r, nx)},
                      {rz0, rz1, 0, ny, std::max(nx - r, r), nx},
                      {rz0, rz1, 0, std::min(r, ny), 0, nx},
                      {rz0, rz1, std::max(ny - r, r), ny, 0, nx},
                      {rz0, std::min(r, rz1), 0, ny, 0, nx},
                      {std::max(nz - r, rz0), rz1, 0, ny, 0, nx}};
    for (const Box& bx : f2)
      if (!bx.empty()) ring_fix(p, in, out, bx, nz, ny, nx);
  }
}

template void folded3d_advance<4>(const Pattern3D&, const FoldingPlan&,
                                  const Pattern3D&, const FieldView3D&, const FieldView3D&,
                                  std::vector<AlignedBuffer>&, int, int, FoldDispatch);
template void folded3d_advance<8>(const Pattern3D&, const FoldingPlan&,
                                  const Pattern3D&, const FieldView3D&, const FieldView3D&,
                                  std::vector<AlignedBuffer>&, int, int, FoldDispatch);

template <int W>
void run_ours2_3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps) {
  const int nz = a.nz(), ny = a.ny(), nx = a.nx();
  const FoldingPlan plan = plan_folding(p, 2);
  if (plan.radius > std::min(W, kMaxR3)) {
    run_naive3d(p, a, b, tsteps);
    return;
  }
  const Pattern3D lambda = power(p, 2);
  std::vector<AlignedBuffer> window;

  const FieldView3D* cur = &a;
  const FieldView3D* nxt = &b;
  int t = 0;
  for (; t + 2 <= tsteps; t += 2) {
    folded3d_advance<W>(p, plan, lambda, *cur, *nxt, window, 0, nz);
    std::swap(cur, nxt);
  }
  for (; t < tsteps; ++t) {
    step_region_ml3d<W>(p, *cur, *nxt, 0, nz, 0, ny, 0, nx);
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
}

template void run_ours2_3d<4>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);
template void run_ours2_3d<8>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);

}  // namespace sf::detail

namespace sf {
namespace {

// Folded-kernel registration: the folded pass applies power(p, 2) and the
// plane window caps the folded radius at min(W, kMaxR3), so the vector path
// engages only for r = 1 (exactly the 3-D presets).
const KernelRegistrar reg3d_folded{{
    // Tiled stage shares the plane window: tiled radius mirrors max_radius
    // (see folded2d.cpp).
    kernel3d_info(Method::Ours2, Isa::Avx2, 4, 2, &detail::run_ours2_3d<4>, 0,
                  1, 1),
    kernel3d_info(Method::Ours2, Isa::Avx512, 8, 2, &detail::run_ours2_3d<8>,
                  0, 1, 1),
}};

}  // namespace
}  // namespace sf
