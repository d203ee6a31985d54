// Vectorized temporal computation folding for 2-D stencils (paper §3.3,
// Figure 5), m = 2.
//
// Per W-row band and W-column vector set:
//   1. *Vertical folding*: each basis counterpart c_b is built from W+2R
//      aligned row loads, folded down with the basis column weights λ⁽ᵇ⁾.
//   2. *In-register transpose* of each counterpart square (the §2.3 kernel).
//   3. *Horizontal folding*: the output column at x is Σ coeff ·
//      c_b(x + dx); columns of neighbouring vector sets come from a
//      three-slot ring buffer — the trailing transposed counterpart vectors
//      of the previous square are exactly the paper's *shifts reuse* (§3.4).
//   4. Transpose back and store rows (the optional weighted transpose of
//      Fig. 5 folded into step 3's coefficients).
//
// The intermediate time level t+1 is never materialized anywhere: that is
// the arithmetic redundancy the method eliminates. Near the physical
// boundary the folded expansion is invalid (the Dirichlet halo never
// advances), so a stepwise ring correction overwrites the invalid band,
// exactly as in the scalar FoldedRunner2D.
//
// Steps 1-4 are one template over a fold shape (kernels/fold_shape.hpp):
// plans of a compiled shape run with every source, row offset and term
// position constant; any other plan runs the same loops over its structure
// read at run time.
#include <algorithm>

#include "fold/region.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/fold_shape.hpp"
#include "kernels/registry.hpp"
#include "kernels/kernels2d_impl.hpp"
#include "simd/transpose.hpp"
#include "simd/vecd.hpp"
#include "stencil/reference.hpp"

namespace sf::detail {
namespace {

template <int W>
using V = simd::vecd<W>;

constexpr int kMaxR2 = 4;        // folded radius cap (m=2, r<=2)
constexpr int kMaxSrc = 2 * kMaxR2 + 2;  // basis columns + impulse

inline int floor_div_w(int c, int w) { return c >= 0 ? c / w : -((-c - 1) / w) - 1; }

// Compiled 2-D fold shapes: the plans of 2-D Heat and 2D9P at m = 2
// (docs/ARCHITECTURE.md#fold-shapes says how to add one). Any other plan
// runs Fold2DDynamic.
struct Heat2DFold
    : FoldShape<2, false, BasisMasks<0b00100, 0b01110, 0b11111>, FoldAt<0, -2, 0>,
                FoldAt<0, 2, 0>, FoldAt<0, -1, 1>, FoldAt<0, 1, 1>, FoldAt<0, 0, 2>> {
  static constexpr const char* name = "2D-Heat";
};
struct Box2D9Fold
    : FoldShape<2, false, BasisMasks<0b11111>, FoldAt<0, -2, 0>, FoldAt<0, 2, 0>,
                FoldAt<0, -1, 0>, FoldAt<0, 1, 0>, FoldAt<0, 0, 0>> {
  static constexpr const char* name = "2D9P";
};
using Fold2DShapes = FoldShapes<Heat2DFold, Box2D9Fold>;
// A column's terms use each source at most once, so nterms <= ncols * nsrc.
using Fold2DDynamic = DynamicFold<kMaxR2, kMaxSrc, (2 * kMaxR2 + 1) * kMaxSrc>;

/// The vector part of folded2d_advance: full W-row bands of [ry0, ry1) over
/// the aligned columns [0, nx / W * W), for one fold shape.
template <int W, class Shape>
void folded2d_bands(const Shape& sh, const FoldingPlan& plan, const FieldView2D& in,
                    const FieldView2D& out, bool reuse, int ry0, int ry1) {
  using Set = V<W>[Shape::kSrcCap][W];
  const int R = sh.R;
  const int nbx = in.nx() / W;
  const int nyv = ry1 - (ry1 - ry0) % W;  // last full W-row band start bound
  const FoldValues<W, Shape> val(sh, plan);

  // Ring buffer: transposed counterpart columns of three consecutive vector
  // sets. set[src][j] = column vector (over the band's W rows) of column j.
  Set slots[3];

  for (int y0 = ry0; y0 < nyv; y0 += W) {
    const double* row0 = in.row(y0);
    const std::ptrdiff_t stride = in.stride();
    double* orow[W];
    for (int i = 0; i < W; ++i) orow[i] = out.row(y0 + i);

    // Builds the counterpart columns of vector-set `xb` into `set`.
    auto fill = [&](int xb, Set& set) {
      if (xb >= 0 && xb < nbx) {
        const double* base = row0 + static_cast<std::ptrdiff_t>(xb) * W;
        const auto row = [&](int k) { return base + k * stride; };
        for_src(sh, [&](auto s) {
          V<W> vf[W];
          fold_source<W>(sh, s, val, row, vf);
          simd::transpose(vf);
          unroll<W>([&](auto j) { set[s][j] = vf[j]; });
        });
      } else {
        // Edge pseudo-set: emit reads only its R columns next to the
        // aligned region, [-R, 0) or [nxv, nxv + R); build just those.
        const int j0 = xb < 0 ? W - R : 0;
        for (int j = j0; j < j0 + R; ++j) {
          const int x = xb * W + j;
          fold_edge_column<W>(
              sh, val, [&](int k) { return in.at(y0 + k, x); },
              [&](auto s, V<W> v) { set[s][j] = v; });
        }
      }
    };

    // Emits output vector-set `xb` from its neighbours' and its own columns.
    auto emit = [&](int xb, const Set& prev, const Set& cur, const Set& next) {
      const Set* sets[3] = {&prev, &cur, &next};
      V<W> oc[W];
      unroll<W>([&](auto j) { oc[j] = V<W>::zero(); });
      // Term by term over W accumulators: one coefficient live at a time.
      for_term(sh, [&](auto t) {
        const FoldTermPos tp = sh.term(t);
        const V<W> w = val.cw[t];
        unroll<W>([&](auto j) {
          const int c = j + tp.dx;
          const int k = floor_div_w(c, W);  // -1, 0 or 1: prev, cur, next
          oc[j] = V<W>::fma(w, (*sets[k + 1])[tp.src][c - k * W], oc[j]);
        });
      });
      simd::transpose(oc);
      for (int i = 0; i < W; ++i) oc[i].store(orow[i] + xb * W);
    };

    if (reuse) {
      // Pipeline: each vector set's counterparts are folded and transposed
      // exactly once; neighbours come from the ring buffer.
      Set* prev = &slots[0];
      Set* cur = &slots[1];
      Set* next = &slots[2];
      fill(-1, *prev);
      fill(0, *cur);
      for (int xb = 0; xb < nbx; ++xb) {
        fill(xb + 1, *next);
        emit(xb, *prev, *cur, *next);
        Set* const done = prev;
        prev = cur;
        cur = next;
        next = done;
      }
    } else {
      // Ablation: recompute all three neighbouring sets per output set.
      for (int xb = 0; xb < nbx; ++xb) {
        fill(xb - 1, slots[0]);
        fill(xb, slots[1]);
        fill(xb + 1, slots[2]);
        emit(xb, slots[0], slots[1], slots[2]);
      }
    }
  }
}

}  // namespace

const char* folded2d_shape(const FoldingPlan& plan) {
  const char* name = nullptr;
  with_fold_shape<Fold2DDynamic>(Fold2DShapes{}, plan, FoldDispatch::Match,
                                 [&](const auto& sh) { name = sh.name; });
  return name;
}

template <int W>
void folded2d_advance(const Pattern2D& p, const FoldingPlan& plan,
                      const Pattern2D& lambda, const FieldView2D& in, const FieldView2D& out,
                      bool reuse, int ry0, int ry1, FoldDispatch dispatch) {
  const int ny = in.ny(), nx = in.nx();
  const int r = p.radius();
  const int nxv = nx / W * W;
  const int nyv = ry1 - (ry1 - ry0) % W;

  with_fold_shape<Fold2DDynamic>(Fold2DShapes{}, plan, dispatch, [&](const auto& sh) {
    folded2d_bands<W>(sh, plan, in, out, reuse, ry0, ry1);
  });

  // Alignment tails: scalar application of the folding matrix.
  if (nxv < nx) apply_pattern(lambda, in, out, ry0, ry1, nxv, nx);
  if (nyv < ry1) apply_pattern(lambda, in, out, nyv, ry1, 0, nxv);

  // Boundary-ring correction: the folded expansion assumed the Dirichlet
  // halo advances in time; recompute the invalid band (the domain-boundary
  // shell intersected with this row range) stepwise. Each rectangle uses a
  // private t+1 buffer over its r-expansion, so concurrent tile updates
  // never share scratch.
  if (r > 0) {
    // shell(r) ∩ rows [ry0, ry1); a side the range does not touch is empty.
    const Rect f2[] = {{ry0, ry1, 0, std::min(r, nx)},
                       {ry0, ry1, std::max(nx - r, r), nx},
                       {ry0, std::min(r, ry1), 0, nx},
                       {std::max(ny - r, ry0), ry1, 0, nx}};
    for (const Rect& rc : f2)
      if (!rc.empty())
        ring_fix(p, in, out, Box{0, 1, rc.y0, rc.y1, rc.x0, rc.x1}, 1, ny, nx);
  }
}

namespace {

template <int W>
void run_ours2_2d_impl(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps,
                       bool reuse) {
  const int ny = a.ny(), nx = a.nx();
  const FoldingPlan plan = plan_folding(p, 2);
  if (plan.radius > std::min(W, kMaxR2) ||
      static_cast<int>(plan.basis.size()) + 1 > kMaxSrc) {
    run_naive2d(p, a, b, tsteps);
    return;
  }
  const Pattern2D lambda = power(p, 2);

  const FieldView2D* cur = &a;
  const FieldView2D* nxt = &b;
  int t = 0;
  for (; t + 2 <= tsteps; t += 2) {
    folded2d_advance<W>(p, plan, lambda, *cur, *nxt, reuse, 0, ny);
    std::swap(cur, nxt);
  }
  for (; t < tsteps; ++t) {
    step_region_ml2d<W>(p, *cur, *nxt, 0, ny, 0, nx);
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
}

}  // namespace

template <int W>
void run_ours2_2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps) {
  run_ours2_2d_impl<W>(p, a, b, tsteps, /*reuse=*/true);
}

template <int W>
void run_ours2_2d_noreuse(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps) {
  run_ours2_2d_impl<W>(p, a, b, tsteps, /*reuse=*/false);
}

template void run_ours2_2d<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours2_2d<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours2_2d_noreuse<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours2_2d_noreuse<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void folded2d_advance<4>(const Pattern2D&, const FoldingPlan&,
                                  const Pattern2D&, const FieldView2D&, const FieldView2D&,
                                  bool, int, int, FoldDispatch);
template void folded2d_advance<8>(const Pattern2D&, const FoldingPlan&,
                                  const Pattern2D&, const FieldView2D&, const FieldView2D&,
                                  bool, int, int, FoldDispatch);

}  // namespace sf::detail

namespace sf {
namespace {

// Folded-kernel registration. The folded pass applies power(p, 2), so the
// halo scales with fold_depth = 2 and the vector path engages only while
// 2r <= min(W, kMaxR2).
const KernelRegistrar reg2d_folded{{
    // The tiled stage (folded2d_advance over wedge row ranges) shares the
    // vector window, so the tiled radius range mirrors max_radius; the
    // wedge slope is fold-doubled (KernelInfo::wedge_slope).
    kernel2d_info(Method::Ours2, Isa::Avx2, 4, 2, &detail::run_ours2_2d<4>, 0,
                  2, 2),
    kernel2d_info(Method::Ours2, Isa::Avx512, 8, 2, &detail::run_ours2_2d<8>,
                  0, 2, 2),
}};

}  // namespace
}  // namespace sf
