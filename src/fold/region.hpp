// Frame/ring region decomposition used by the folded executors.
//
// A folded m-step update is only valid where the whole dependency cone of
// intermediate time levels stays inside the interior (the Dirichlet halo
// never advances in time). The invalid *ring* of width rho = (m-1)*r is
// recomputed stepwise on shrinking *frames*; these helpers enumerate those
// regions as a handful of disjoint segments / rectangles / slabs, and
// ring_fix recomputes one such box for the vectorized folded kernels.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "stencil/pattern.hpp"

namespace sf {

struct Seg {
  int a, b;  // [a, b)
  bool empty() const { return a >= b; }
};

struct Rect {
  int y0, y1, x0, x1;
  bool empty() const { return y0 >= y1 || x0 >= x1; }
};

struct Box {
  int z0, z1, y0, y1, x0, x1;
  bool empty() const { return z0 >= z1 || y0 >= y1 || x0 >= x1; }
};

/// Points of [0,n) within distance < w of either end (disjoint segments).
inline std::vector<Seg> frame_segs(int n, int w) {
  std::vector<Seg> v;
  if (w <= 0 || n <= 0) return v;
  if (2 * w >= n) {
    v.push_back({0, n});
  } else {
    v.push_back({0, w});
    v.push_back({n - w, n});
  }
  return v;
}

/// Points of [0,ny) x [0,nx) within distance < w of the boundary, as at most
/// four disjoint rectangles.
inline std::vector<Rect> frame_rects(int ny, int nx, int w) {
  std::vector<Rect> v;
  if (w <= 0 || ny <= 0 || nx <= 0) return v;
  if (2 * w >= ny || 2 * w >= nx) {
    v.push_back({0, ny, 0, nx});
    return v;
  }
  v.push_back({0, w, 0, nx});            // top
  v.push_back({ny - w, ny, 0, nx});      // bottom
  v.push_back({w, ny - w, 0, w});        // left
  v.push_back({w, ny - w, nx - w, nx});  // right
  return v;
}

/// Boundary shell of width w of a 3-D box, as at most six disjoint slabs.
inline std::vector<Box> frame_boxes(int nz, int ny, int nx, int w) {
  std::vector<Box> v;
  if (w <= 0 || nz <= 0 || ny <= 0 || nx <= 0) return v;
  if (2 * w >= nz || 2 * w >= ny || 2 * w >= nx) {
    v.push_back({0, nz, 0, ny, 0, nx});
    return v;
  }
  v.push_back({0, w, 0, ny, 0, nx});                      // z-low
  v.push_back({nz - w, nz, 0, ny, 0, nx});                // z-high
  v.push_back({w, nz - w, 0, w, 0, nx});                  // y-low
  v.push_back({w, nz - w, ny - w, ny, 0, nx});            // y-high
  v.push_back({w, nz - w, w, ny - w, 0, w});              // x-low
  v.push_back({w, nz - w, w, ny - w, nx - w, nx});        // x-high
  return v;
}

namespace detail {

/// A pattern flattened for one memory layout: tap k reads src[off[k]]
/// relative to the output point and weighs it by w[k].
struct FlatTaps {
  std::vector<double> w;
  std::vector<std::ptrdiff_t> off;
};

/// Rows shorter than this run one point at a time in ring_row. With the
/// 7-tap 3-D Heat pattern at AVX2/AVX-512 (256-bit vectors, -O3), a point
/// costs about 5 ns either way at n = 6, while the taps-outer loop takes
/// 17 ns at n = 2 and 2.7 ns at n = 8; dropping the short branch made the
/// x-side strips of a 64 x 128 x 128 shell 2.2x slower.
constexpr int kRingRowShort = 8;

/// dst[i] = Σ_k w[k] · src[off[k] + i] for i in [0, n), taps in pattern
/// order. Long rows run taps outermost, so the loop over i is contiguous and
/// vectorizes; short rows (the x-side strips, r wide) run one point at a
/// time, which skips the vector loop's set-up per tap. Both orders add the
/// products in tap order; whether the compiler fuses each multiply-add may
/// differ between them, so they agree to rounding, not always bitwise.
inline void ring_row(const FlatTaps& taps, const double* src, double* dst, int n) {
  const std::size_t nt = taps.w.size();
  if (n < kRingRowShort) {
    for (int i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < nt; ++k) acc += taps.w[k] * src[taps.off[k] + i];
      dst[i] = acc;
    }
    return;
  }
  for (int i = 0; i < n; ++i) dst[i] = 0.0;
  for (std::size_t k = 0; k < nt; ++k) {
    const double* s = src + taps.off[k];
    const double w = taps.w[k];
    for (int i = 0; i < n; ++i) dst[i] += w * s[i];
  }
}

}  // namespace detail

/// Exact 2-step update of box `f2`, a part of the domain shell where the
/// folded expansion is invalid, for a 2-D or 3-D pattern (a 2-D box spans
/// the single plane z = 0 of an nz = 1 domain). Level t+1 goes into a
/// private buffer over f2 grown by r: the pattern inside the domain, the
/// time-invariant halo of `in` outside it. Level t+2 over f2 is then the
/// plain pattern over that buffer. The buffer is private to the call, so
/// concurrent updates of disjoint boxes share no scratch.
template <int D, class View>
void ring_fix(const Pattern<D>& p, const View& in, const View& out, const Box& f2,
              int nz, int ny, int nx) {
  static_assert(D == 2 || D == 3, "ring_fix covers 2-D and 3-D patterns");
  const auto row = [](const View& v, int z, int y) {
    if constexpr (D == 3) {
      return v.row(z, y);
    } else {
      (void)z;
      return v.row(y);
    }
  };
  const int r = p.radius();
  const int rz = D == 3 ? r : 0;
  const Box g{f2.z0 - rz, f2.z1 + rz, f2.y0 - r, f2.y1 + r, f2.x0 - r, f2.x1 + r};
  const int gw = g.x1 - g.x0, gh = g.y1 - g.y0;
  std::vector<double> buf(static_cast<std::size_t>(g.z1 - g.z0) * gh * gw);
  // The buffer scales with the box and is freed on return; the tap tables
  // hold a few entries and are kept per thread.
  struct Taps {
    detail::FlatTaps in, buf;
  };
  thread_local Taps taps;
  taps.in.w.clear();
  taps.in.off.clear();
  taps.buf.off.clear();
  // Row and plane strides of `in`, from its row pointers.
  const std::ptrdiff_t stride = row(in, 0, 1) - row(in, 0, 0);
  const std::ptrdiff_t plane = D == 3 ? row(in, 1, 0) - row(in, 0, 0) : 0;
  for (const auto& t : p.taps) {
    const std::ptrdiff_t dz = D == 3 ? t.off[0] : 0;
    const std::ptrdiff_t dy = t.off[D - 2], dx = t.off[D - 1];
    taps.in.w.push_back(t.w);
    taps.in.off.push_back(dz * plane + dy * stride + dx);
    taps.buf.off.push_back((dz * gh + dy) * gw + dx);
  }
  taps.buf.w = taps.in.w;
  // Element (z, y, x) of the buffer.
  const auto bat = [&](int z, int y, int x) {
    return buf.data() +
           (static_cast<std::size_t>(z - g.z0) * gh + (y - g.y0)) * gw + (x - g.x0);
  };
  const int xi0 = std::max(g.x0, 0), xi1 = std::min(g.x1, nx);
  for (int z = g.z0; z < g.z1; ++z)
    for (int y = g.y0; y < g.y1; ++y) {
      double* b = bat(z, y, g.x0);
      const double* h = row(in, z, y);
      const bool inside = z >= 0 && z < nz && y >= 0 && y < ny && xi0 < xi1;
      for (int x = g.x0; x < g.x1; ++x)
        if (!inside || x < xi0 || x >= xi1) b[x - g.x0] = h[x];
      if (inside) detail::ring_row(taps.in, h + xi0, b + (xi0 - g.x0), xi1 - xi0);
    }
  for (int z = f2.z0; z < f2.z1; ++z)
    for (int y = f2.y0; y < f2.y1; ++y)
      detail::ring_row(taps.buf, bat(z, y, f2.x0), row(out, z, y) + f2.x0,
                       f2.x1 - f2.x0);
}

}  // namespace sf
