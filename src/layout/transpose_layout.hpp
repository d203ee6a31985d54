// The paper's register-transpose layout (§2.2, Figure 1).
//
// Each aligned sub-sequence of W*W contiguous interior elements ("vector
// set") is viewed as a W x W matrix and transposed in place, so that an
// aligned vector load at offset j*W yields lanes {j, j+W, j+2W, ...} of the
// block. The transform is an involution: applying it twice restores the
// original layout. Halo cells and any tail shorter than W*W stay in original
// order; kernels access them scalar.
#pragma once

#include "grid/grid.hpp"
#include "simd/transpose.hpp"

namespace sf {

/// Number of full W*W blocks in a row of n elements.
template <int W>
constexpr int tl_blocks(int n) {
  return n / (W * W);
}

/// Storage index of logical element i of a transposed row (involution).
template <int W>
inline int tl_index(int i, int n) {
  const int bs = W * W;
  const int b = i / bs;
  if (i < 0 || b >= tl_blocks<W>(n)) return i;  // halo or tail: untouched
  const int r = i - b * bs;
  return b * bs + (r % W) * W + r / W;
}

/// Transposes every full W*W block of row[0..n) in place.
template <int W>
inline void row_transpose_layout(double* row, int n) {
  const int nb = tl_blocks<W>(n);
  for (int b = 0; b < nb; ++b) simd::transpose_block_inplace<W>(row + b * W * W);
}

template <int W>
inline void grid_transpose_layout(const FieldView1D& g) {
  row_transpose_layout<W>(g.data(), g.n());
}

/// 2-D/3-D transforms include the *halo rows/planes*: kernels read
/// y/z-neighbours of boundary rows through layout-aware views, so every row
/// a kernel can touch must be in the same layout. (Column halo stays in
/// original order — tl_index maps it to itself.)
template <int W>
inline void grid_transpose_layout(const FieldView2D& g) {
  for (int y = -g.halo(); y < g.ny() + g.halo(); ++y)
    row_transpose_layout<W>(g.row(y), g.nx());
}

template <int W>
inline void grid_transpose_layout(const FieldView3D& g) {
  for (int z = -g.halo(); z < g.nz() + g.halo(); ++z)
    for (int y = -g.halo(); y < g.ny() + g.halo(); ++y)
      row_transpose_layout<W>(g.row(z, y), g.nx());
}

/// Row-range form of the 2-D transform: transposes rows y in [y0, y1) only
/// (logical indices; halo rows at negative y). Rows are independent, so
/// disjoint ranges may run concurrently — the pool-parallel
/// to_resident_layout splits the row space over the placement map with each
/// worker transforming the rows of its own tiles.
template <int W>
inline void grid_transpose_layout_rows(const FieldView2D& g, int y0, int y1) {
  for (int y = y0; y < y1; ++y)
    row_transpose_layout<W>(g.row(y), g.nx());
}

/// Plane-range form of the 3-D transform: transposes planes z in [z0, z1)
/// only (logical indices; halo planes at negative z). See
/// grid_transpose_layout_rows().
template <int W>
inline void grid_transpose_layout_planes(const FieldView3D& g, int z0,
                                         int z1) {
  for (int z = z0; z < z1; ++z)
    for (int y = -g.halo(); y < g.ny() + g.halo(); ++y)
      row_transpose_layout<W>(g.row(z, y), g.nx());
}

/// Runtime-width dispatch (W in {1,4,8}). W = 1 is a no-op: it is the
/// width of naive, the one kernel with no vector layout (callers pass
/// KernelInfo::width straight through).
void apply_transpose_layout(const FieldView1D& g, int w);
void apply_transpose_layout(const FieldView2D& g, int w);
void apply_transpose_layout(const FieldView3D& g, int w);

/// Runtime-width dispatch of grid_transpose_layout_rows().
void apply_transpose_layout_rows(const FieldView2D& g, int w, int y0, int y1);
/// Runtime-width dispatch of grid_transpose_layout_planes().
void apply_transpose_layout_planes(const FieldView3D& g, int w, int z0,
                                   int z1);

}  // namespace sf
