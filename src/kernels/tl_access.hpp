// Vector-set access for rows stored in the register-transpose layout.
//
// A TLRow wraps one interior row (n elements, the leading tl_blocks full
// W*W blocks transposed, tail + halo in original order). vec(b, jj) returns
// the vector holding logical elements {b*W*W + jj + W*t : t in 0..W-1}:
//  * jj in [0, W): one aligned load;
//  * jj in [-W, 0) or [W, 2W): one aligned load, one blend with the
//    adjacent block's vector, one lane rotation — the paper's "two data
//    organization operations" per edge vector (§2.2, Figure 2). At the
//    first/last block the carried lane comes from the (untransposed) halo
//    or tail via a scalar insert.
#pragma once

#include "grid/grid_utils.hpp"
#include "layout/transpose_layout.hpp"
#include "simd/vecd.hpp"

namespace sf {

/// Staged 1-D source array for the transpose-layout kernels: resolves the
/// optional time-invariant source view `k` to the pointer kernels read
/// through. A Layout::Transposed-tagged view is read zero-copy (the caller
/// keeps it resident); otherwise the array is copied into private staging
/// and — when `to_layout` is set — transformed into the transpose layout,
/// leaving the caller's `k` untouched. Shared by the untiled kernels
/// (kernels1d.cpp) and the tiled 1-D engine (split_tiling.cpp).
template <int W>
struct StagedSource1D {
  Grid1D staging;
  const double* data = nullptr;  ///< What kernels read; null without source.

  explicit StagedSource1D(const FieldView1D* k, bool to_layout = true)
      : staging(needs_copy(k) ? k->n() : 1, needs_copy(k) ? k->halo() : 1) {
    if (k == nullptr) return;
    if (!needs_copy(k)) {
      data = k->data();
      return;
    }
    copy(*k, staging);
    if (to_layout) grid_transpose_layout<W>(staging);
    data = staging.data();
  }

 private:
  static bool needs_copy(const FieldView1D* k) {
    return k != nullptr && k->layout() != Layout::Transposed;
  }
};

template <int W>
struct TLRow {
  const double* p;  // interior pointer (halo at negative indices)
  int n;            // interior length
  int nb;           // full transposed blocks

  explicit TLRow(const double* row, int len)
      : p(row), n(len), nb(tl_blocks<W>(len)) {}

  using V = simd::vecd<W>;

  /// Aligned in-block vector (0 <= jj < W, 0 <= b < nb).
  V plain(int b, int jj) const { return V::load(p + b * W * W + jj * W); }

  /// General vector for jj in [-W, 2W). The single carried lane from the
  /// neighboring block is loaded as a scalar, never as a full vector: a
  /// W-wide neighbor load would over-read W-1 lanes that a concurrently
  /// executing wedge tile may be writing (the tile slope only protects the
  /// semantically-used element), which is a data race even though the
  /// lanes would be blended away.
  V vec(int b, int jj) const {
    if (0 <= jj && jj < W) return plain(b, jj);
    if (jj < 0) {
      const int q = jj + W;
      // Carried lane: last lane of the previous block's column q, or halo
      // element p[jj] (original order) at the row start.
      const double carry = b > 0 ? p[(b - 1) * W * W + q * W + (W - 1)] : p[jj];
      return simd::blend_first(simd::rotate_r1(plain(b, q)), V::set1(carry));
    }
    const int q = jj - W;
    // Carried lane: first lane of the next block's column q, or tail/halo
    // element at logical index (b+1)*W*W + q past the last full block.
    const double carry =
        b + 1 < nb ? p[(b + 1) * W * W + q * W] : p[(b + 1) * W * W + q];
    return simd::blend_last(simd::rotate_l1(plain(b, q)), V::set1(carry));
  }

  /// Scalar access by logical index (works for halo, tail, and transposed
  /// region alike).
  double logical(int i) const { return p[tl_index<W>(i, n)]; }
};

/// Mutable view for scalar stores into a transposed row.
template <int W>
struct TLRowMut {
  double* p;
  int n;

  TLRowMut(double* row, int len) : p(row), n(len) {}
  double& logical(int i) { return p[tl_index<W>(i, n)]; }
};

// ---------------------------------------------------------------------------
// Runtime-shift concatenated vectors for the data-reorganization baseline:
// shifted(L, C, R, s) = vector of elements (base + s .. base + s + W - 1)
// given aligned loads L = [base-W, base), C = [base, base+W),
// R = [base+W, base+2W), for |s| <= W.
// ---------------------------------------------------------------------------
template <int W>
inline simd::vecd<W> shifted(simd::vecd<W> l, simd::vecd<W> c, simd::vecd<W> r,
                             int s);

template <>
inline simd::vecd<4> shifted(simd::vecd<4> l, simd::vecd<4> c, simd::vecd<4> r,
                             int s) {
  using simd::align_r;
  switch (s) {
    case -4: return l;
    case -3: return align_r<1>(l, c);
    case -2: return align_r<2>(l, c);
    case -1: return align_r<3>(l, c);
    case 0: return c;
    case 1: return align_r<1>(c, r);
    case 2: return align_r<2>(c, r);
    case 3: return align_r<3>(c, r);
    default: return r;
  }
}

template <>
inline simd::vecd<8> shifted(simd::vecd<8> l, simd::vecd<8> c, simd::vecd<8> r,
                             int s) {
  using simd::align_r;
  switch (s) {
    case -8: return l;
    case -7: return align_r<1>(l, c);
    case -6: return align_r<2>(l, c);
    case -5: return align_r<3>(l, c);
    case -4: return align_r<4>(l, c);
    case -3: return align_r<5>(l, c);
    case -2: return align_r<6>(l, c);
    case -1: return align_r<7>(l, c);
    case 0: return c;
    case 1: return align_r<1>(c, r);
    case 2: return align_r<2>(c, r);
    case 3: return align_r<3>(c, r);
    case 4: return align_r<4>(c, r);
    case 5: return align_r<5>(c, r);
    case 6: return align_r<6>(c, r);
    case 7: return align_r<7>(c, r);
    default: return r;
  }
}

}  // namespace sf
