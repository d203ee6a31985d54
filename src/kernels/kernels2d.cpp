// 2-D executors: naive, multiple-loads, data-reorganization, DLT, and the
// paper's 1-step register-transpose layout. The folded (m=2) executor lives
// in folded2d.cpp.
#include <stdexcept>
#include <vector>

#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "kernels/kernels2d_impl.hpp"
#include "kernels/tl_access.hpp"
#include "layout/dlt_layout.hpp"
#include "simd/vecd.hpp"
#include "stencil/reference.hpp"

namespace sf::detail {
namespace {

template <int W>
using V = simd::vecd<W>;

/// Taps grouped by row offset dy: per row a list of (dx, weight).
struct RowTaps {
  struct Entry {
    int dx;
    double w;
  };
  int dy;
  std::vector<Entry> taps;
};

std::vector<RowTaps> by_row(const Pattern2D& p) {
  std::vector<RowTaps> rows;
  for (const auto& t : p.taps) {
    RowTaps* row = nullptr;
    for (auto& r : rows)
      if (r.dy == t.off[0]) row = &r;
    if (row == nullptr) {
      rows.push_back({t.off[0], {}});
      row = &rows.back();
    }
    row->taps.push_back({t.off[1], t.w});
  }
  return rows;
}

double scalar_apply2(const Pattern2D& p, const FieldView2D& g, int y, int x) {
  double acc = 0;
  for (const auto& t : p.taps) acc += t.w * g.row(y + t.off[0])[x + t.off[1]];
  return acc;
}

}  // namespace

void run_naive2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps) {
  run_reference(p, a, b, tsteps);
}

// ---------------------------------------------------------------------------
// Multiple loads
// ---------------------------------------------------------------------------
template <int W>
void step_region_ml2d(const Pattern2D& p, const FieldView2D& in, const FieldView2D& out,
                      int y0, int y1, int x0, int x1) {
  const int nt = static_cast<int>(p.taps.size());
  std::vector<V<W>> w(static_cast<std::size_t>(nt));
  for (int i = 0; i < nt; ++i) w[static_cast<std::size_t>(i)] = V<W>::set1(p.taps[static_cast<std::size_t>(i)].w);

  for (int y = y0; y < y1; ++y) {
    double* o = out.row(y);
    int x = x0;
    for (; x + W <= x1; x += W) {
      V<W> acc = V<W>::zero();
      for (int i = 0; i < nt; ++i) {
        const auto& t = p.taps[static_cast<std::size_t>(i)];
        acc = V<W>::fma(w[static_cast<std::size_t>(i)],
                        V<W>::loadu(in.row(y + t.off[0]) + x + t.off[1]), acc);
      }
      acc.storeu(o + x);
    }
    for (; x < x1; ++x) o[x] = scalar_apply2(p, in, y, x);
  }
}

template <int W>
void run_ml2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps) {
  const FieldView2D* cur = &a;
  const FieldView2D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    step_region_ml2d<W>(p, *cur, *nxt, 0, cur->ny(), 0, cur->nx());
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
}

// ---------------------------------------------------------------------------
// Data reorganization
// ---------------------------------------------------------------------------
template <int W>
void run_dr2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps) {
  if (p.radius() > W) {
    run_naive2d(p, a, b, tsteps);
    return;
  }
  const auto rows = by_row(p);
  const int nx = a.nx(), ny = a.ny();

  const FieldView2D* cur = &a;
  const FieldView2D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    for (int y = 0; y < ny; ++y) {
      double* o = nxt->row(y);
      int x = 0;
      for (; x + W <= nx; x += W) {
        V<W> acc = V<W>::zero();
        for (const auto& r : rows) {
          const double* src = cur->row(y + r.dy);
          V<W> l = V<W>::loadu(src + x - W);
          V<W> c = V<W>::loadu(src + x);
          V<W> rr = V<W>::loadu(src + x + W);
          for (const auto& e : r.taps)
            acc = V<W>::fma(V<W>::set1(e.w), shifted<W>(l, c, rr, e.dx), acc);
        }
        acc.storeu(o + x);
      }
      for (; x < nx; ++x) o[x] = scalar_apply2(p, *cur, y, x);
    }
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
}

// ---------------------------------------------------------------------------
// DLT (per-row dimension lifting)
// ---------------------------------------------------------------------------

/// One DLT time step over rows [y0, y1); both grids must already be lifted.
template <int W>
void step_rows_dlt2d(const Pattern2D& p, const FieldView2D& in, const FieldView2D& out, int y0,
                     int y1) {
  const int nx = in.nx();
  const int L = nx / W;
  const int n0 = L * W;
  const int r = p.radius();
  const auto rows = by_row(p);
  for (int y = y0; y < y1; ++y) {
    double* o = out.row(y);
    // Lifted interior: x-neighbours are adjacent columns, same lanes;
    // y-neighbours are the same column of other rows (all rows lifted with
    // the same L).
    for (int j = r; j < L - r; ++j) {
      V<W> acc = V<W>::zero();
      for (const auto& rt : rows) {
        const double* src = in.row(y + rt.dy);
        for (const auto& e : rt.taps)
          acc = V<W>::fma(V<W>::set1(e.w), V<W>::load(src + (j + e.dx) * W),
                          acc);
      }
      acc.store(o + j * W);
    }
    // Seam columns + tail, scalar through the logical index map.
    auto scalar_at = [&](int i) {
      double acc = 0;
      for (const auto& tp : p.taps)
        acc += tp.w * in.row(y + tp.off[0])[dlt_index(i + tp.off[1], nx, W)];
      return acc;
    };
    for (int lane = 0; lane < W; ++lane)
      for (int j = 0; j < r; ++j) {
        const int il = lane * L + j;
        const int ir = lane * L + (L - 1 - j);
        o[dlt_index(il, nx, W)] = scalar_at(il);
        o[dlt_index(ir, nx, W)] = scalar_at(ir);
      }
    for (int i = n0; i < nx; ++i) o[i] = scalar_at(i);
  }
}

template <int W>
void run_dlt2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps) {
  const int nx = a.nx(), ny = a.ny();
  const int L = nx / W;
  const int r = p.radius();
  if (L < 2 * r + 1) {
    run_naive2d(p, a, b, tsteps);
    return;
  }
  grid_to_dlt(a, W);
  grid_to_dlt(b, W);  // halo rows of the scratch grid are read too

  const FieldView2D* cur = &a;
  const FieldView2D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    step_rows_dlt2d<W>(p, *cur, *nxt, 0, ny);
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
  grid_from_dlt(a, W);
  grid_from_dlt(b, W);  // leave the scratch grid as we found it
}

// ---------------------------------------------------------------------------
// Ours (register-transpose layout, 1-step)
// ---------------------------------------------------------------------------
/// One transpose-layout time step over rows [y0, y1); both grids must
/// already be in transpose layout. Radius must satisfy r <= min(W, 4).
template <int W>
void step_rows_tl2d(const Pattern2D& p, const FieldView2D& in, const FieldView2D& out, int y0,
                    int y1) {
  constexpr int kMaxR = 4;
  const int r = p.radius();
  const int nx = in.nx();
  const auto rows = by_row(p);
  const int bs = W * W;
  const int nb = tl_blocks<W>(nx);
  for (int y = y0; y < y1; ++y) {
    double* o = out.row(y);
    // vv[row-index][jj + r]: assembled vectors for each needed row.
    V<W> vv[2 * kMaxR + 1][W + 2 * kMaxR];
    for (int blk = 0; blk < nb; ++blk) {
      for (std::size_t ri = 0; ri < rows.size(); ++ri) {
        TLRow<W> row(in.row(y + rows[ri].dy), nx);
        for (int i = 0; i < W + 2 * r; ++i) vv[ri][i] = row.vec(blk, i - r);
      }
      for (int j = 0; j < W; ++j) {
        V<W> acc = V<W>::zero();
        for (std::size_t ri = 0; ri < rows.size(); ++ri)
          for (const auto& e : rows[ri].taps)
            acc = V<W>::fma(V<W>::set1(e.w), vv[ri][j + e.dx + r], acc);
        acc.store(o + blk * bs + j * W);
      }
    }
    // Untransposed tail columns.
    for (int i = nb * bs; i < nx; ++i) {
      double acc = 0;
      for (const auto& tp : p.taps) {
        TLRow<W> row(in.row(y + tp.off[0]), nx);
        acc += tp.w * row.logical(i + tp.off[1]);
      }
      o[i] = acc;
    }
  }
}

template <int W>
void run_ours1_2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps) {
  const int r = p.radius();
  const int ny = a.ny();
  if (r > 4 || r > W) {
    run_naive2d(p, a, b, tsteps);
    return;
  }
  // Transposed-resident views (core/engine.hpp) are already in layout on
  // both ping-pong buffers: skip the per-call involution entirely.
  const bool resident = a.layout() == Layout::Transposed;
  if (!resident) {
    grid_transpose_layout<W>(a);
    grid_transpose_layout<W>(b);  // halo rows of the scratch grid are read too
  }

  const FieldView2D* cur = &a;
  const FieldView2D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    step_rows_tl2d<W>(p, *cur, *nxt, 0, ny);
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
  if (!resident) {
    grid_transpose_layout<W>(a);
    grid_transpose_layout<W>(b);  // leave the scratch grid as we found it
  }
}

// Explicit instantiations used by the registry and the tiling framework.
template void run_ml2d<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ml2d<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_dr2d<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_dr2d<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_dlt2d<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_dlt2d<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours1_2d<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void run_ours1_2d<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int);
template void step_rows_tl2d<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int, int);
template void step_rows_tl2d<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int, int);
template void step_rows_dlt2d<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int, int);
template void step_rows_dlt2d<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int, int);
template void step_region_ml2d<4>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int,
                                  int, int, int);
template void step_region_ml2d<8>(const Pattern2D&, const FieldView2D&, const FieldView2D&, int,
                                  int, int, int);

}  // namespace sf::detail

namespace sf {
namespace {

// Baseline + 1-step transpose-layout registrations; the folded method
// (ours-2step) registers in folded2d.cpp. See the 1-D block in
// kernels1d.cpp for the capability rationale.
const KernelRegistrar reg2d{{
    // Naive executes at width 1 regardless of the registered ISA level and
    // is the only scalar-level entry (see kernels1d.cpp).
    // Tileability (last parameter): Naive and DLT wedge-tile at any radius
    // (DLT's lifted-row-count precondition is shape-dependent and checked by
    // tiled_path_engages); ours tiles while r fits the row-group window.
    kernel2d_info(Method::Naive, Isa::Scalar, 1, 1, &detail::run_naive2d, 0,
                  0, 0),
    kernel2d_info(Method::Naive, Isa::Avx2, 1, 1, &detail::run_naive2d, 0, 0,
                  0),
    kernel2d_info(Method::Naive, Isa::Avx512, 1, 1, &detail::run_naive2d, 0,
                  0, 0),
    kernel2d_info(Method::MultipleLoads, Isa::Avx2, 4, 1,
                  &detail::run_ml2d<4>),
    kernel2d_info(Method::MultipleLoads, Isa::Avx512, 8, 1,
                  &detail::run_ml2d<8>),
    kernel2d_info(Method::DataReorg, Isa::Avx2, 4, 1, &detail::run_dr2d<4>, 4,
                  4),
    kernel2d_info(Method::DataReorg, Isa::Avx512, 8, 1, &detail::run_dr2d<8>,
                  8, 8),
    kernel2d_info(Method::DLT, Isa::Avx2, 4, 1, &detail::run_dlt2d<4>, 0, 0,
                  0),
    kernel2d_info(Method::DLT, Isa::Avx512, 8, 1, &detail::run_dlt2d<8>, 0, 0,
                  0),
    // step_rows_tl2d's row-vector scratch caps the radius at min(W, 4).
    // Preferred layout Transposed: resident views skip the per-call
    // involution (see run_ours1_2d).
    kernel2d_info(Method::Ours, Isa::Avx2, 4, 1, &detail::run_ours1_2d<4>, 0,
                  4, 4, Layout::Transposed),
    kernel2d_info(Method::Ours, Isa::Avx512, 8, 1, &detail::run_ours1_2d<8>,
                  0, 4, 4, Layout::Transposed),
}};

}  // namespace
}  // namespace sf
