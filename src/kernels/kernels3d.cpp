// 3-D executors: naive, multiple-loads, data-reorganization, DLT, and the
// 1-step register-transpose layout. The paper treats a 3-D volume as an
// Nz-layer stack of 2-D slices (§3.3); the x dimension is vectorized exactly
// as in 2-D, with (dz,dy) selecting neighbour rows.
#include <stdexcept>
#include <vector>

#include "grid/grid_utils.hpp"
#include "kernels/registry.hpp"
#include "kernels/kernels3d_impl.hpp"
#include "kernels/tl_access.hpp"
#include "layout/dlt_layout.hpp"
#include "simd/vecd.hpp"
#include "stencil/reference.hpp"

namespace sf::detail {
namespace {

template <int W>
using V = simd::vecd<W>;

/// Taps grouped by (dz, dy) row.
struct RowTaps3 {
  struct Entry {
    int dx;
    double w;
  };
  int dz, dy;
  std::vector<Entry> taps;
};

std::vector<RowTaps3> by_row(const Pattern3D& p) {
  std::vector<RowTaps3> rows;
  for (const auto& t : p.taps) {
    RowTaps3* row = nullptr;
    for (auto& r : rows)
      if (r.dz == t.off[0] && r.dy == t.off[1]) row = &r;
    if (row == nullptr) {
      rows.push_back({t.off[0], t.off[1], {}});
      row = &rows.back();
    }
    row->taps.push_back({t.off[2], t.w});
  }
  return rows;
}

double scalar_apply3(const Pattern3D& p, const FieldView3D& g, int z, int y, int x) {
  double acc = 0;
  for (const auto& t : p.taps)
    acc += t.w * g.row(z + t.off[0], y + t.off[1])[x + t.off[2]];
  return acc;
}

}  // namespace

void run_naive3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps) {
  run_reference(p, a, b, tsteps);
}

// ---------------------------------------------------------------------------
// Multiple loads
// ---------------------------------------------------------------------------
template <int W>
void step_region_ml3d(const Pattern3D& p, const FieldView3D& in, const FieldView3D& out,
                      int z0, int z1, int y0, int y1, int x0, int x1) {
  const auto rows = by_row(p);
  for (int z = z0; z < z1; ++z)
    for (int y = y0; y < y1; ++y) {
      double* o = out.row(z, y);
      int x = x0;
      for (; x + W <= x1; x += W) {
        V<W> acc = V<W>::zero();
        for (const auto& r : rows) {
          const double* src = in.row(z + r.dz, y + r.dy);
          for (const auto& e : r.taps)
            acc = V<W>::fma(V<W>::set1(e.w), V<W>::loadu(src + x + e.dx), acc);
        }
        acc.storeu(o + x);
      }
      for (; x < x1; ++x) o[x] = scalar_apply3(p, in, z, y, x);
    }
}

template <int W>
void run_ml3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps) {
  const FieldView3D* cur = &a;
  const FieldView3D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    step_region_ml3d<W>(p, *cur, *nxt, 0, cur->nz(), 0, cur->ny(), 0, cur->nx());
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
}

// ---------------------------------------------------------------------------
// Data reorganization
// ---------------------------------------------------------------------------
template <int W>
void run_dr3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps) {
  if (p.radius() > W) {
    run_naive3d(p, a, b, tsteps);
    return;
  }
  const auto rows = by_row(p);
  const int nz = a.nz(), ny = a.ny(), nx = a.nx();

  const FieldView3D* cur = &a;
  const FieldView3D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    for (int z = 0; z < nz; ++z)
      for (int y = 0; y < ny; ++y) {
        double* o = nxt->row(z, y);
        int x = 0;
        for (; x + W <= nx; x += W) {
          V<W> acc = V<W>::zero();
          for (const auto& r : rows) {
            const double* src = cur->row(z + r.dz, y + r.dy);
            V<W> l = V<W>::loadu(src + x - W);
            V<W> c = V<W>::loadu(src + x);
            V<W> rr = V<W>::loadu(src + x + W);
            for (const auto& e : r.taps)
              acc = V<W>::fma(V<W>::set1(e.w), shifted<W>(l, c, rr, e.dx), acc);
          }
          acc.storeu(o + x);
        }
        for (; x < nx; ++x) o[x] = scalar_apply3(p, *cur, z, y, x);
      }
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
}

// ---------------------------------------------------------------------------
// DLT
// ---------------------------------------------------------------------------

/// One DLT step over planes [z0, z1); grids must be lifted, nx/W >= 2r+1.
template <int W>
void step_planes_dlt3d(const Pattern3D& p, const FieldView3D& in, const FieldView3D& out,
                       int z0, int z1) {
  const int ny = in.ny(), nx = in.nx();
  const int L = nx / W;
  const int n0 = L * W;
  const int r = p.radius();
  const auto rows = by_row(p);
  for (int z = z0; z < z1; ++z)
    for (int y = 0; y < ny; ++y) {
      double* o = out.row(z, y);
      for (int j = r; j < L - r; ++j) {
        V<W> acc = V<W>::zero();
        for (const auto& rt : rows) {
          const double* src = in.row(z + rt.dz, y + rt.dy);
          for (const auto& e : rt.taps)
            acc = V<W>::fma(V<W>::set1(e.w), V<W>::load(src + (j + e.dx) * W),
                            acc);
        }
        acc.store(o + j * W);
      }
      auto scalar_at = [&](int i) {
        double acc = 0;
        for (const auto& tp : p.taps)
          acc += tp.w * in.row(z + tp.off[0],
                               y + tp.off[1])[dlt_index(i + tp.off[2], nx, W)];
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
void run_dlt3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps) {
  const int nz = a.nz(), nx = a.nx();
  const int L = nx / W;
  const int r = p.radius();
  if (L < 2 * r + 1) {
    run_naive3d(p, a, b, tsteps);
    return;
  }
  grid_to_dlt(a, W);
  grid_to_dlt(b, W);

  const FieldView3D* cur = &a;
  const FieldView3D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    step_planes_dlt3d<W>(p, *cur, *nxt, 0, nz);
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
  grid_from_dlt(a, W);
  grid_from_dlt(b, W);
}

// ---------------------------------------------------------------------------
// Ours (register-transpose layout, 1-step)
// ---------------------------------------------------------------------------
/// One transpose-layout step over planes [z0, z1); grids must be in
/// transpose layout; r <= min(W, 2) and at most 32 (dz,dy) row groups.
template <int W>
void step_planes_tl3d(const Pattern3D& p, const FieldView3D& in, const FieldView3D& out,
                      int z0, int z1) {
  constexpr int kMaxRows = 32;
  constexpr int kMaxR = 2;
  const int r = p.radius();
  const int ny = in.ny(), nx = in.nx();
  const auto rows = by_row(p);
  const int bs = W * W;
  const int nb = tl_blocks<W>(nx);
  for (int z = z0; z < z1; ++z)
    for (int y = 0; y < ny; ++y) {
      double* o = out.row(z, y);
      V<W> vv[kMaxRows][W + 2 * kMaxR];
      for (int blk = 0; blk < nb; ++blk) {
        for (std::size_t ri = 0; ri < rows.size(); ++ri) {
          TLRow<W> row(in.row(z + rows[ri].dz, y + rows[ri].dy), nx);
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
      for (int i = nb * bs; i < nx; ++i) {
        double acc = 0;
        for (const auto& tp : p.taps) {
          TLRow<W> row(in.row(z + tp.off[0], y + tp.off[1]), nx);
          acc += tp.w * row.logical(i + tp.off[2]);
        }
        o[i] = acc;
      }
    }
}

template <int W>
void run_ours1_3d(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps) {
  const int r = p.radius();
  const auto rows = by_row(p);
  if (r > 2 || r > W || rows.size() > 32) {
    run_naive3d(p, a, b, tsteps);
    return;
  }
  // Transposed-resident views skip the per-call involution (see
  // run_ours1_2d).
  const bool resident = a.layout() == Layout::Transposed;
  if (!resident) {
    grid_transpose_layout<W>(a);
    grid_transpose_layout<W>(b);
  }

  const FieldView3D* cur = &a;
  const FieldView3D* nxt = &b;
  for (int t = 0; t < tsteps; ++t) {
    step_planes_tl3d<W>(p, *cur, *nxt, 0, a.nz());
    std::swap(cur, nxt);
  }
  if (cur != &a) copy_interior(*cur, a);
  if (!resident) {
    grid_transpose_layout<W>(a);
    grid_transpose_layout<W>(b);
  }
}

template void run_ml3d<4>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);
template void run_ml3d<8>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);
template void run_dr3d<4>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);
template void run_dr3d<8>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);
template void run_dlt3d<4>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);
template void run_dlt3d<8>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);
template void run_ours1_3d<4>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);
template void run_ours1_3d<8>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int);
template void step_planes_tl3d<4>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int, int);
template void step_planes_tl3d<8>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int, int);
template void step_planes_dlt3d<4>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int, int);
template void step_planes_dlt3d<8>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int, int);
template void step_region_ml3d<4>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int,
                                  int, int, int, int, int);
template void step_region_ml3d<8>(const Pattern3D&, const FieldView3D&, const FieldView3D&, int,
                                  int, int, int, int, int);

}  // namespace sf::detail

namespace sf {
namespace {

// Baseline + 1-step transpose-layout registrations; the folded method
// (ours-2step) registers in folded3d.cpp. See the 1-D block in
// kernels1d.cpp for the capability rationale.
const KernelRegistrar reg3d{{
    // Naive executes at width 1 regardless of the registered ISA level and
    // is the only scalar-level entry (see kernels1d.cpp).
    // Tileability (last parameter): see the 2-D block in kernels2d.cpp.
    kernel3d_info(Method::Naive, Isa::Scalar, 1, 1, &detail::run_naive3d, 0,
                  0, 0),
    kernel3d_info(Method::Naive, Isa::Avx2, 1, 1, &detail::run_naive3d, 0, 0,
                  0),
    kernel3d_info(Method::Naive, Isa::Avx512, 1, 1, &detail::run_naive3d, 0,
                  0, 0),
    kernel3d_info(Method::MultipleLoads, Isa::Avx2, 4, 1,
                  &detail::run_ml3d<4>),
    kernel3d_info(Method::MultipleLoads, Isa::Avx512, 8, 1,
                  &detail::run_ml3d<8>),
    kernel3d_info(Method::DataReorg, Isa::Avx2, 4, 1, &detail::run_dr3d<4>, 4,
                  4),
    kernel3d_info(Method::DataReorg, Isa::Avx512, 8, 1, &detail::run_dr3d<8>,
                  8, 8),
    kernel3d_info(Method::DLT, Isa::Avx2, 4, 1, &detail::run_dlt3d<4>, 0, 0,
                  0),
    kernel3d_info(Method::DLT, Isa::Avx512, 8, 1, &detail::run_dlt3d<8>, 0, 0,
                  0),
    // step_planes_tl3d's row-group scratch caps the radius at min(W, 2).
    // Preferred layout Transposed: resident views skip the per-call
    // involution (see run_ours1_3d).
    kernel3d_info(Method::Ours, Isa::Avx2, 4, 1, &detail::run_ours1_3d<4>, 0,
                  2, 2, Layout::Transposed),
    kernel3d_info(Method::Ours, Isa::Avx512, 8, 1, &detail::run_ours1_3d<8>,
                  0, 2, 2, Layout::Transposed),
}};

}  // namespace
}  // namespace sf
