#include "tiling/split_tiling.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "fold/folding_plan.hpp"
#include "grid/grid_utils.hpp"
#include "kernels/kernels2d_impl.hpp"
#include "kernels/kernels3d_impl.hpp"
#include "kernels/tl_access.hpp"
#include "layout/dlt_layout.hpp"
#include "layout/transpose_layout.hpp"
#include "simd/vecd.hpp"
#include "stencil/reference.hpp"
#include "telemetry/telemetry.hpp"

namespace sf {
namespace {

using detail::folded2d_advance;
using detail::folded3d_advance;
using detail::step_planes_dlt3d;
using detail::step_planes_tl3d;
using detail::step_region_ml2d;
using detail::step_region_ml3d;
using detail::step_rows_dlt2d;
using detail::step_rows_tl2d;

template <int W>
using V = simd::vecd<W>;

/// Geometry/schedule parameters of one wedge run (time in super-steps).
struct WedgePlan {
  int n = 0;      // extent of the tiled dimension
  int slope = 0;  // shift per super-step (m * r)
  int tile = 0;
  int H = 0;      // super-steps per time block
  int threads = 1;
  Affinity affinity = Affinity::None;
  bool blocked = true;  // false: domain too small, run unblocked
};

/// Internal view of negotiate_wedge() with time measured in super-steps.
WedgePlan make_plan(int n, int slope, int super_steps, const TilePlan& opt,
                    int fold_m, long slice_bytes) {
  const int m = std::max(1, fold_m);
  const WedgeGeometry g =
      negotiate_wedge(n, slope, m, super_steps * m, opt, slice_bytes);
  WedgePlan w;
  w.n = n;
  w.slope = slope;
  w.tile = g.tile;
  w.H = std::max(1, g.time_block / m);
  w.threads = g.threads;
  w.affinity = opt.affinity;
  w.blocked = g.blocked;
  return w;
}

/// The pool of a wedge plan: the shared (threads, affinity) pool for
/// parallel blocked runs, none otherwise. A non-null pool therefore always
/// has more than one worker and the caller is not one of them, which is
/// exactly when wedge_schedule() runs pipelined. Serial runs walk inline on
/// the calling thread, and so do runs nested on one of the pool's own
/// workers: a nested pipelined task cannot run inline (worker w's waits on
/// w+1 would never be satisfied in index order), and the pool's per-worker
/// arenas belong to the workers, not to a task nested on one of them.
std::shared_ptr<WorkerPool> plan_pool(const WedgePlan& w) {
  if (!w.blocked || w.threads <= 1) return nullptr;
  std::shared_ptr<WorkerPool> pool = shared_pool(w.threads, w.affinity);
  if (pool->on_worker_thread()) return nullptr;
  return pool;
}

/// The generic wedge schedule (tiles = triangles, boundaries = inverted
/// triangles; Jacobi parity buffers make partial-level reads exact).
/// adv(in, out, lo, hi, worker) performs one super-step on [lo, hi) of the
/// tiled dimension (`worker` is the executing pool worker, -1 on the
/// calling thread). The buffer-parity cursor is passed *by value* into each
/// stage call — explicit per (worker, round) state, never a shared variable
/// a pipelined worker could read torn while another advances it.
///
/// Every worker walks exactly the tile range the balanced_placement()
/// ownership map assigns it — the same contiguous chunks OpenMP's
/// schedule(static) produced, and the same map the planner reports
/// (ExecutionPlan::placement) and first_touch() initializes by, so a
/// worker's tiles stay on its NUMA node across all super-steps.
///
/// The walk *fuses* the two sweeps: the inverted wedge at an interior tile
/// boundary kt depends only on the up wedges at kt-1 and kt (the
/// blocked-geometry guarantee keeps every other wedge pair disjoint), so
/// the walk runs up(kt) immediately followed by down(kt), and the flank
/// rows the down wedge consumes are the ones the two preceding up wedges
/// just wrote — a reuse distance of one tile, not the worker's whole range.
/// Only the boundary wedge at t0 reads another worker's rows; it runs after
/// the neighbor wait. Each (row, parity) value is written exactly once per
/// block by the same adv call whatever the order, so results are bitwise
/// equal to sweeping all ups before all downs.
///
/// Two paths execute that wedge set (bitwise-identical results):
///
///  * Inline (pool == nullptr: serial or nested-on-pool runs, see
///    plan_pool()): the calling thread walks every tile as one range, so
///    only tile 0's boundary exists and it has no wedge.
///
///  * Pipelined (pool != nullptr): one long-lived task per worker with
///    point-to-point NeighborSync counters. Worker w publishes seq = 2b+1
///    after its own-tile stage of block b and seq = 2b+2 after its boundary
///    stage. With contiguous ownership exactly two waits cover every
///    cross-worker hazard: before own-tile(b>0), wait seq[w+1] >= 2b — the
///    boundary wedge at tile t1 (owned by w+1) rewrote rows w's top tile
///    reads, and w's own up writes into rows that wedge read (RAW + WAR in
///    one edge); before boundary(b), wait seq[w-1] >= 2b+1 — the inverted
///    wedge at tile t0 reads w-1's up flank below t0*tile. All remaining
///    stage overlaps are disjoint by the blocked-geometry guarantee
///    tile >= (2H+1)*slope.
///    Edge workers skip the missing-neighbor wait; empty-range workers
///    (ntiles < workers) execute nothing but still publish every round, so
///    neighbors indexed past them never deadlock.
///
/// `prologue(t0, t1, wk)`, when set, runs on each worker before its first
/// own-tile stage (pipelined path only — callers must gate on
/// pool != nullptr): the resident-layout transform of the worker's own
/// rows overlaps the first super-step instead of serializing in front of
/// it. No extra sync edge is needed: own-tile(0) reads only the worker's
/// own rows (plus domain-end halo rows, owned by the same edge worker), and
/// boundary(0) already waits on w-1's own-tile(0) publish, which
/// transitively orders w-1's prologue.
template <class G, class Adv>
int wedge_schedule(G& a, G& b, const WedgePlan& w, int super_steps, Adv&& adv,
                   WorkerPool* pool,
                   const std::function<void(int, int, int)>& prologue = {}) {
  G* bufs[2] = {&a, &b};
  const int ntiles = (w.n + w.tile - 1) / w.tile;
  // Schedule-shape telemetry, resolved once per process at the first tiled
  // run (function-local statics: the wedge entry is too hot for a registry
  // lookup per call). One add per *schedule*, never per tile or cell.
  struct WedgeTelemetry {
    telemetry::Counter pipelined_runs =
        telemetry::counter("tiling.wedge.pipelined_runs");
    telemetry::Counter serial_runs =
        telemetry::counter("tiling.wedge.serial_runs");
    telemetry::Counter blocks = telemetry::counter("tiling.wedge.blocks");
  };
  static const WedgeTelemetry wt;
  const long nblocks = w.H > 0 ? (super_steps + w.H - 1) / w.H : 0;
  auto up_tile = [&](int kt, int hb, int cur, int wk) {
    const int x0 = kt * w.tile;
    const int x1 = std::min(w.n, x0 + w.tile);
    for (int sg = 1; sg <= hb; ++sg) {
      const int lo = x0 == 0 ? 0 : x0 + sg * w.slope;
      const int hi = x1 == w.n ? w.n : x1 - sg * w.slope;
      if (lo < hi)
        adv(*bufs[(cur + sg - 1) & 1], *bufs[(cur + sg) & 1], lo, hi, wk);
    }
  };
  auto down_tile = [&](int kt, int hb, int cur, int wk) {
    const int xc = kt * w.tile;
    for (int sg = 1; sg <= hb; ++sg) {
      const int lo = std::max(0, xc - sg * w.slope);
      const int hi = std::min(w.n, xc + sg * w.slope);
      adv(*bufs[(cur + sg - 1) & 1], *bufs[(cur + sg) & 1], lo, hi, wk);
    }
  };
  // The fused walk over [t0, t1): every up wedge, each interior inverted
  // wedge right behind the second up wedge it reads.
  auto own_tiles = [&](int t0, int t1, int hb, int cur, int wk) {
    for (int kt = t0; kt < t1; ++kt) {
      up_tile(kt, hb, cur, wk);
      if (kt > t0) down_tile(kt, hb, cur, wk);
    }
  };
  // The boundary inverted wedge at t0 reads the up flank of the tile below.
  auto boundary_tile = [&](int t0, int t1, int hb, int cur, int wk) {
    if (t0 >= 1 && t0 < t1) down_tile(t0, hb, cur, wk);
  };
  wt.blocks.add(nblocks);
  if (pool != nullptr) {
    wt.pipelined_runs.add(1);
    telemetry::Span span("tiling.wedge.pipelined");
    const int nworkers = pool->threads();
    const PlacementPlan place =
        balanced_placement(ntiles, nworkers, w.affinity);
    pool->run_pipelined([&](int wk, NeighborSync& sync) {
      const auto [t0, t1] = place.tiles_of(wk);
      if (prologue) prologue(t0, t1, wk);
      int cur = 0;
      long b = 0;
      for (int s0 = 0; s0 < super_steps; s0 += w.H, ++b) {
        const int hb = std::min(w.H, super_steps - s0);
        if (b > 0 && wk + 1 < nworkers) sync.wait_for(wk + 1, 2 * b);
        test_jitter_stall(wk);
        own_tiles(t0, t1, hb, cur, wk);
        sync.publish(wk, 2 * b + 1);
        if (wk > 0) sync.wait_for(wk - 1, 2 * b + 1);
        test_jitter_stall(wk);
        boundary_tile(t0, t1, hb, cur, wk);
        sync.publish(wk, 2 * b + 2);
        cur = (cur + hb) & 1;
      }
    });
    // Every worker advanced parity identically; recompute, don't share.
    int cursor = 0;
    for (int s0 = 0; s0 < super_steps; s0 += w.H)
      cursor = (cursor + std::min(w.H, super_steps - s0)) & 1;
    return cursor;
  }
  wt.serial_runs.add(1);
  telemetry::Span span("tiling.wedge.serial");
  int cursor = 0;
  for (int s0 = 0; s0 < super_steps; s0 += w.H) {
    const int hb = std::min(w.H, super_steps - s0);
    own_tiles(0, ntiles, hb, cursor, -1);
    cursor = (cursor + hb) & 1;
  }
  return cursor;
}

// ---------------------------------------------------------------------------
// 1-D advancers (region [lo, hi) of x)
// ---------------------------------------------------------------------------

/// One step over [lo, hi) of a transposed row: whole vector sets inside the
/// region go vectorized, partial sets scalar through the index map.
template <int W>
void tl_region_step_1d(const Pattern1D& p, const Pattern1D* src,
                       const double* kk, int n, const double* in_p,
                       double* out_p, int lo, int hi) {
  const int bs = W * W;
  const int r = p.radius();
  TLRow<W> in(in_p, n);
  TLRow<W> kin(kk != nullptr ? kk : in_p, n);

  auto scalar_span = [&](int s0, int s1) {
    for (int i = s0; i < s1; ++i) {
      double acc = 0;
      for (const auto& t : p.taps) acc += t.w * in.logical(i + t.off[0]);
      if (src != nullptr)
        for (const auto& t : src->taps) acc += t.w * kin.logical(i + t.off[0]);
      out_p[tl_index<W>(i, n)] = acc;
    }
  };

  const int b0 = (lo + bs - 1) / bs;
  const int b1 = std::min(hi / bs, in.nb);
  if (b0 >= b1) {
    scalar_span(lo, hi);
    return;
  }
  scalar_span(lo, b0 * bs);
  V<W> vv[3 * W];
  V<W> vk[3 * W];
  const int sr = src != nullptr ? src->radius() : 0;
  for (int blk = b0; blk < b1; ++blk) {
    for (int i = 0; i < W + 2 * r; ++i) vv[i] = in.vec(blk, i - r);
    if (src != nullptr)
      for (int i = 0; i < W + 2 * sr; ++i) vk[i] = kin.vec(blk, i - sr);
    for (int j = 0; j < W; ++j) {
      V<W> acc = V<W>::zero();
      for (const auto& t : p.taps)
        acc = V<W>::fma(V<W>::set1(t.w), vv[j + t.off[0] + r], acc);
      if (src != nullptr)
        for (const auto& t : src->taps)
          acc = V<W>::fma(V<W>::set1(t.w), vk[j + t.off[0] + sr], acc);
      acc.store(out_p + blk * bs + j * W);
    }
  }
  scalar_span(b1 * bs, hi);
}

/// Folded (m = 2) super-step over [lo, hi) of a transposed row, with a
/// private-buffer boundary correction where the region touches the domain
/// ends (the folded expansion assumes the halo advances in time).
template <int W>
void tl_folded_region_step_1d(const Pattern1D& p, const Pattern1D& lam,
                              const Pattern1D* src, const Pattern1D* fsrc,
                              const double* kk, int n, const double* in_p,
                              double* out_p, int lo, int hi) {
  tl_region_step_1d<W>(lam, fsrc, kk, n, in_p, out_p, lo, hi);

  const int r = p.radius();
  if (r == 0) return;
  TLRow<W> in(in_p, n);
  TLRow<W> kin(kk != nullptr ? kk : in_p, n);
  auto stepwise_at = [&](int i, const std::function<double(int)>& level) {
    double acc = 0;
    for (const auto& t : p.taps) acc += t.w * level(i + t.off[0]);
    if (src != nullptr)
      for (const auto& t : src->taps) acc += t.w * kin.logical(i + t.off[0]);
    return acc;
  };
  for (int side = 0; side < 2; ++side) {
    const int r0 = side == 0 ? 0 : std::max(n - r, 0);
    const int r1 = side == 0 ? std::min(r, n) : n;
    const int f0 = std::max(r0 - r, 0), f1 = std::min(r1 + r, n);
    if (std::max(r0, lo) >= std::min(r1, hi)) continue;
    std::vector<double> t1(static_cast<std::size_t>(f1 - f0));
    std::function<double(int)> lvl0 = [&](int i) { return in.logical(i); };
    for (int i = f0; i < f1; ++i)
      t1[static_cast<std::size_t>(i - f0)] = stepwise_at(i, lvl0);
    std::function<double(int)> lvl1 = [&](int i) {
      if (i < f0 || i >= f1) return in.logical(i);  // halo never advances
      return t1[static_cast<std::size_t>(i - f0)];
    };
    for (int i = std::max(r0, lo); i < std::min(r1, hi); ++i)
      out_p[tl_index<W>(i, n)] = stepwise_at(i, lvl1);
  }
}

/// `serial` forces the whole run onto the calling thread (no pool
/// dispatch): the batched entry runs each item this way on the pool worker
/// that owns it without a pool lookup per item (plan_pool() would walk it
/// inline anyway, as a run nested on the pool). The wedge geometry is
/// negotiated identically either way, so serial and pooled runs are
/// bitwise identical.
template <int W>
void tiled1d_impl(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b, const Pattern1D* src,
                  const FieldView1D* k, int tsteps, const TilePlan& opt,
                  bool serial = false) {
  const int n = a.n();
  const int r = p.radius();
  const Method mth = opt.method;
  const int m = mth == Method::Ours2 ? 2 : 1;

  // Layout setup. Transposed-resident views (core/engine.hpp) are already
  // in layout — skip the per-run involution, and read a resident source
  // array zero-copy instead of through a transformed private copy.
  const bool tl = mth == Method::Ours || mth == Method::Ours2;
  const bool resident = tl && a.layout() == Layout::Transposed;
  StagedSource1D<W> ks(k, /*to_layout=*/tl);
  const double* kk = ks.data;
  if (tl && !resident) grid_transpose_layout<W>(a);

  const Pattern1D lam = power(p, 2);
  Pattern1D fsrc;
  if (src != nullptr) fsrc = compose(power_sum(p, 2), *src);

  const int n_tiled = n;
  const int slope_local = m * r;
  const int super = tsteps / m;
  const int rem = tsteps - super * m;
  WedgePlan w = make_plan(n_tiled, slope_local, super, opt, m,
                          sizeof(double));
  const std::shared_ptr<WorkerPool> pool = serial ? nullptr : plan_pool(w);

  auto adv = [&](const FieldView1D& in, const FieldView1D& out, int lo, int hi,
                 int) {
    switch (mth) {
      case Method::Ours:
        tl_region_step_1d<W>(p, src, kk, n, in.data(), out.data(), lo, hi);
        break;
      case Method::Ours2:
        tl_folded_region_step_1d<W>(p, lam, src, src != nullptr ? &fsrc : nullptr,
                                    kk, n, in.data(), out.data(), lo, hi);
        break;
      default:
        apply_pattern(p, in, out, lo, hi);
        if (src != nullptr && k != nullptr) {
          // Source reads must match the active layout (none here: Naive).
          add_source(*src, *k, out, lo, hi);
        }
        break;
    }
  };

  int cursor = 0;
  if (w.blocked) {
    cursor = wedge_schedule(a, b, w, super, adv, pool.get());
  } else {
    // Domain too small to tile: plain full sweeps.
    const FieldView1D* bufs[2] = {&a, &b};
    for (int s = 0; s < super; ++s) {
      adv(*bufs[cursor], *bufs[cursor ^ 1], 0, n_tiled, -1);
      cursor ^= 1;
    }
  }
  // Remainder single steps (folded runs only).
  const FieldView1D* bufs[2] = {&a, &b};
  for (int t = 0; t < rem; ++t) {
    tl_region_step_1d<W>(p, src, kk, n, bufs[cursor]->data(),
                         bufs[cursor ^ 1]->data(), 0, n);
    cursor ^= 1;
  }
  if (cursor != 0) copy_interior(b, a);

  if (tl && !resident) grid_transpose_layout<W>(a);
}

// ---------------------------------------------------------------------------
// 2-D (tiled dimension: y, rows [lo, hi))
// ---------------------------------------------------------------------------
/// `serial`: see tiled1d_impl().
template <int W>
void tiled2d_impl(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps,
                  const TilePlan& opt, bool serial = false) {
  const int ny = a.ny(), nx = a.nx();
  const int r = p.radius();
  const Method mth = opt.method;
  const int m = mth == Method::Ours2 ? 2 : 1;

  const bool tl = mth == Method::Ours;
  const bool dlt = mth == Method::DLT;
  const bool resident = tl && a.layout() == Layout::Transposed;

  const int super = tsteps / m;
  const int rem = tsteps - super * m;
  WedgePlan w = make_plan(ny, m * r, super, opt, m,
                          sizeof(double) * static_cast<long>(nx));
  const std::shared_ptr<WorkerPool> pool = serial ? nullptr : plan_pool(w);

  // Pipelined runs fold the to-layout transform into the schedule itself
  // (each worker transposes its own rows as the wedge prologue — see
  // wedge_schedule) instead of serializing it in front of the first stage.
  const bool overlap_layout = tl && !resident && pool != nullptr;
  if (tl && !resident && !overlap_layout) {
    grid_transpose_layout<W>(a);
    grid_transpose_layout<W>(b);
  } else if (dlt) {
    grid_to_dlt(a, W);
    grid_to_dlt(b, W);
  }

  const FoldingPlan plan = mth == Method::Ours2 ? plan_folding(p, 2) : FoldingPlan{};
  const Pattern2D lam = power(p, 2);

  auto adv = [&](const FieldView2D& in, const FieldView2D& out, int lo, int hi,
                 int) {
    switch (mth) {
      case Method::Ours:
        step_rows_tl2d<W>(p, in, out, lo, hi);
        break;
      case Method::Ours2:
        folded2d_advance<W>(p, plan, lam, in, out, /*reuse=*/true, lo, hi);
        break;
      case Method::DLT:
        step_rows_dlt2d<W>(p, in, out, lo, hi);
        break;
      default:
        apply_pattern(p, in, out, lo, hi, 0, nx);
        break;
    }
  };

  int cursor = 0;
  if (w.blocked) {
    std::function<void(int, int, int)> prologue;
    if (overlap_layout) {
      prologue = [&](int t0, int t1, int) {
        if (t0 >= t1) return;
        // Own rows plus the halo rows attached to the domain-end tiles:
        // the up stage reads y-neighbours of boundary rows, and both
        // parity buffers serve as the read level at some stage.
        const int y0 = t0 == 0 ? -a.halo() : t0 * w.tile;
        const int y1 = t1 * w.tile >= ny ? ny + a.halo() : t1 * w.tile;
        grid_transpose_layout_rows<W>(a, y0, y1);
        grid_transpose_layout_rows<W>(b, y0, y1);
      };
    }
    cursor = wedge_schedule(a, b, w, super, adv, pool.get(), prologue);
  } else {
    const FieldView2D* bufs[2] = {&a, &b};
    for (int s = 0; s < super; ++s) {
      adv(*bufs[cursor], *bufs[cursor ^ 1], 0, ny, -1);
      cursor ^= 1;
    }
  }
  const FieldView2D* bufs[2] = {&a, &b};
  for (int t = 0; t < rem; ++t) {
    step_region_ml2d<W>(p, *bufs[cursor], *bufs[cursor ^ 1], 0, ny, 0, nx);
    cursor ^= 1;
  }
  if (cursor != 0) copy_interior(b, a);

  if (tl && !resident) {
    grid_transpose_layout<W>(a);
    grid_transpose_layout<W>(b);
  } else if (dlt) {
    grid_from_dlt(a, W);
    grid_from_dlt(b, W);
  }
}

// ---------------------------------------------------------------------------
// 3-D (tiled dimension: z, planes [lo, hi))
// ---------------------------------------------------------------------------
/// `serial`: see tiled1d_impl().
template <int W>
void tiled3d_impl(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps,
                  const TilePlan& opt, bool serial = false) {
  const int nz = a.nz(), ny = a.ny(), nx = a.nx();
  const int r = p.radius();
  const Method mth = opt.method;
  const int m = mth == Method::Ours2 ? 2 : 1;

  const bool tl = mth == Method::Ours;
  const bool dlt = mth == Method::DLT;
  const bool resident = tl && a.layout() == Layout::Transposed;

  const int super = tsteps / m;
  const int rem = tsteps - super * m;
  WedgePlan w = make_plan(
      nz, m * r, super, opt, m,
      sizeof(double) * static_cast<long>(ny) * static_cast<long>(nx));
  const std::shared_ptr<WorkerPool> pool = serial ? nullptr : plan_pool(w);

  // See tiled2d_impl: pipelined runs transpose per worker inside the
  // schedule prologue instead of upfront.
  const bool overlap_layout = tl && !resident && pool != nullptr;
  if (tl && !resident && !overlap_layout) {
    grid_transpose_layout<W>(a);
    grid_transpose_layout<W>(b);
  } else if (dlt) {
    grid_to_dlt(a, W);
    grid_to_dlt(b, W);
  }

  const FoldingPlan plan = mth == Method::Ours2 ? plan_folding(p, 2) : FoldingPlan{};
  const Pattern3D lam = power(p, 2);

  auto adv = [&](const FieldView3D& in, const FieldView3D& out, int lo, int hi,
                 int wk) {
    switch (mth) {
      case Method::Ours:
        step_planes_tl3d<W>(p, in, out, lo, hi);
        break;
      case Method::Ours2: {
        // The sliding plane window lives in the owning worker's pool arena
        // (sized there by the prologue, so its pages sit on the worker's
        // NUMA node). Inline runs use a calling-thread-local window.
        thread_local std::vector<AlignedBuffer> tls_window;
        std::vector<AlignedBuffer>& window =
            pool != nullptr ? pool->arena(wk) : tls_window;
        folded3d_advance<W>(p, plan, lam, in, out, window, lo, hi);
        break;
      }
      case Method::DLT:
        step_planes_dlt3d<W>(p, in, out, lo, hi);
        break;
      default:
        apply_pattern(p, in, out, lo, hi, 0, ny, 0, nx);
        break;
    }
  };

  int cursor = 0;
  if (w.blocked) {
    // Pipelined folded runs first-touch the per-worker plane window in the
    // prologue slot that already overlaps the first super-step — the same
    // down(0) transitive wait orders it, so no extra sync edge and no
    // separate pool dispatch ahead of the run.
    const bool overlap_arena = mth == Method::Ours2 && pool != nullptr;
    const detail::Folded3DWindowShape window_shape =
        overlap_arena ? detail::folded3d_window_shape(plan, nx, W)
                      : detail::Folded3DWindowShape{};
    std::function<void(int, int, int)> prologue;
    if (overlap_layout || overlap_arena) {
      prologue = [&](int t0, int t1, int wk) {
        if (overlap_arena)
          pool->ensure_arena_local(wk, window_shape.nbufs,
                                   window_shape.doubles);
        if (!overlap_layout || t0 >= t1) return;
        const int z0 = t0 == 0 ? -a.halo() : t0 * w.tile;
        const int z1 = t1 * w.tile >= nz ? nz + a.halo() : t1 * w.tile;
        grid_transpose_layout_planes<W>(a, z0, z1);
        grid_transpose_layout_planes<W>(b, z0, z1);
      };
    }
    cursor = wedge_schedule(a, b, w, super, adv, pool.get(), prologue);
  } else {
    const FieldView3D* bufs[2] = {&a, &b};
    for (int s = 0; s < super; ++s) {
      adv(*bufs[cursor], *bufs[cursor ^ 1], 0, nz, -1);
      cursor ^= 1;
    }
  }
  const FieldView3D* bufs[2] = {&a, &b};
  for (int t = 0; t < rem; ++t) {
    step_region_ml3d<W>(p, *bufs[cursor], *bufs[cursor ^ 1], 0, nz, 0, ny, 0, nx);
    cursor ^= 1;
  }
  if (cursor != 0) copy_interior(b, a);

  if (tl && !resident) {
    grid_transpose_layout<W>(a);
    grid_transpose_layout<W>(b);
  } else if (dlt) {
    grid_from_dlt(a, W);
    grid_from_dlt(b, W);
  }
}

/// Calls f(std::integral_constant<int, W>{}) with the vector width of
/// `isa`: W = 8 at AVX-512, W = 4 otherwise. The vector kernels exist at
/// those two widths only; naive, the one kernel at Isa::Scalar, runs its
/// wedge stage through apply_pattern, which never reads W.
template <class F>
decltype(auto) dispatch_width(Isa isa, F&& f) {
  switch (isa_width(resolve_isa(isa))) {
    case 8: return f(std::integral_constant<int, 8>{});
    default: return f(std::integral_constant<int, 4>{});
  }
}

}  // namespace

WedgeGeometry negotiate_wedge(int n_tiled, int slope, int fold_m, int tsteps,
                              const TilePlan& requested, long slice_bytes) {
  const int m = std::max(1, fold_m);
  const int super_steps = tsteps / m;
  WedgeGeometry g;
  g.threads = requested.threads > 0 ? requested.threads : hardware_threads();
  if (requested.tile > 0) {
    g.tile = requested.tile;
  } else {
    long tile = n_tiled / std::max(1, g.threads);
    if (g.threads == 1) {
      // Serial runs get no per-thread split — the share above is the whole
      // domain and would never block. Cap the tile so its ping-pong pair
      // (2 buffers plus wedge slack) stays LLC-resident, turning serial
      // split tiling into the Fig. 8 cache-blocking optimization. With
      // multiple threads the per-thread split is the paper's Fig. 9/10
      // geometry and t concurrent tiles could not share the LLC anyway.
      const long cache_cap =
          llc_bytes() / std::max(1L, 3 * std::max<long>(slice_bytes, 1));
      if (cache_cap < tile) tile = cache_cap;
    }
    g.tile = static_cast<int>(std::max<long>(4 * slope, tile));
  }
  const int h_from_tile = std::max(1, (g.tile / std::max(1, slope) - 2) / 2);
  int H = requested.time_block > 0 ? std::max(1, requested.time_block / m)
                                   : h_from_tile;
  H = std::min({H, h_from_tile, std::max(1, super_steps)});
  g.time_block = H * m;
  // Wedges must stay disjoint from neighbour wedge writes during a stage.
  g.blocked =
      super_steps > 0 && g.tile < n_tiled && g.tile >= (2 * H + 1) * slope;
  return g;
}

bool tiled_path_engages(const KernelInfo& k, int radius, int src_radius,
                        long nx) {
  // The 1-D source term widens the wedge reads: the stage must cover the
  // wider of the two radii.
  if (!k.tileable(std::max(radius, src_radius))) return false;
  // DLT's lifted layout needs a full stencil of lifted rows per tile; with
  // fewer the lifted seam folds back into every tile (shape-, not
  // capability-dependent, so it lives here rather than in the registry).
  if (k.method == Method::DLT &&
      nx / std::max(k.width, 1) < 2L * radius + 1)
    return false;
  return true;
}

void run_tile_plan(const Pattern1D& p, const FieldView1D& a, const FieldView1D& b,
                   const Pattern1D* src, const FieldView1D* k, int tsteps,
                   const TilePlan& plan) {
  const KernelInfo& info = require_kernel(plan.method, 1, plan.isa);
  const int sr = src != nullptr ? src->radius() : 0;
  // 1-D DLT never engages (tiled_max_radius = -1): the lifted layout's seam
  // couples column 0 to column L-1 across lanes, so column tiles are not
  // spatially local and concurrent wedges would race on the seam. SDSL-1D
  // therefore runs the untiled lifted kernel (see
  // docs/ARCHITECTURE.md#why-1-d-dlt-is-never-wedge-tiled).
  if (!tiled_path_engages(info, p.radius(), sr, a.n())) {
    info.run1(p, a, b, src, k, tsteps);
    return;
  }
  dispatch_width(plan.isa, [&](auto wc) {
    tiled1d_impl<decltype(wc)::value>(p, a, b, src, k, tsteps, plan);
  });
}

void run_tile_plan(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps,
                   const TilePlan& plan) {
  const KernelInfo& info = require_kernel(plan.method, 2, plan.isa);
  if (!tiled_path_engages(info, p.radius(), 0, a.nx())) {
    info.run2(p, a, b, tsteps);
    return;
  }
  dispatch_width(plan.isa, [&](auto wc) {
    tiled2d_impl<decltype(wc)::value>(p, a, b, tsteps, plan);
  });
}

void run_tile_plan(const Pattern3D& p, const FieldView3D& a, const FieldView3D& b, int tsteps,
                   const TilePlan& plan) {
  const KernelInfo& info = require_kernel(plan.method, 3, plan.isa);
  if (!tiled_path_engages(info, p.radius(), 0, a.nx())) {
    info.run3(p, a, b, tsteps);
    return;
  }
  dispatch_width(plan.isa, [&](auto wc) {
    tiled3d_impl<decltype(wc)::value>(p, a, b, tsteps, plan);
  });
}

namespace {

/// The batch fan-out: one pool dispatch laying `nitems` over the shared
/// (threads, affinity) pool with the balanced_placement() ownership map;
/// `run_item(i)` executes item i's complete serial lifecycle on its owning
/// worker. Single-worker or single-item batches run inline on the caller.
void fan_out_items(std::size_t nitems, const TilePlan& plan,
                   const std::function<void(int)>& run_item) {
  const int threads =
      plan.threads > 0 ? plan.threads : hardware_threads();
  if (threads > 1 && nitems > 1) {
    shared_pool(threads, plan.affinity)
        ->parallel_for(0, static_cast<int>(nitems), run_item);
  } else {
    for (std::size_t i = 0; i < nitems; ++i)
      run_item(static_cast<int>(i));
  }
}

}  // namespace

void run_tile_plan_batch(const Pattern1D& p, const std::vector<TileBatch1D>& items,
                         const Pattern1D* src, int tsteps, const TilePlan& plan) {
  if (items.empty()) return;
  if (items.size() == 1) {
    run_tile_plan(p, items[0].a, items[0].b, src, items[0].k, tsteps, plan);
    return;
  }
  const KernelInfo& info = require_kernel(plan.method, 1, plan.isa);
  const int sr = src != nullptr ? src->radius() : 0;
  const bool engages = tiled_path_engages(info, p.radius(), sr, items[0].a.n());
  fan_out_items(items.size(), plan, [&](int i) {
    const TileBatch1D& it = items[static_cast<std::size_t>(i)];
    if (!engages) {
      info.run1(p, it.a, it.b, src, it.k, tsteps);
      return;
    }
    dispatch_width(plan.isa, [&](auto wc) {
      tiled1d_impl<decltype(wc)::value>(p, it.a, it.b, src, it.k, tsteps, plan,
                                        true);
    });
  });
}

void run_tile_plan_batch(const Pattern2D& p, const std::vector<TileBatch2D>& items,
                         int tsteps, const TilePlan& plan) {
  if (items.empty()) return;
  if (items.size() == 1) {
    run_tile_plan(p, items[0].a, items[0].b, tsteps, plan);
    return;
  }
  const KernelInfo& info = require_kernel(plan.method, 2, plan.isa);
  const bool engages = tiled_path_engages(info, p.radius(), 0, items[0].a.nx());
  fan_out_items(items.size(), plan, [&](int i) {
    const TileBatch2D& it = items[static_cast<std::size_t>(i)];
    if (!engages) {
      info.run2(p, it.a, it.b, tsteps);
      return;
    }
    dispatch_width(plan.isa, [&](auto wc) {
      tiled2d_impl<decltype(wc)::value>(p, it.a, it.b, tsteps, plan, true);
    });
  });
}

void run_tile_plan_batch(const Pattern3D& p, const std::vector<TileBatch3D>& items,
                         int tsteps, const TilePlan& plan) {
  if (items.empty()) return;
  if (items.size() == 1) {
    run_tile_plan(p, items[0].a, items[0].b, tsteps, plan);
    return;
  }
  const KernelInfo& info = require_kernel(plan.method, 3, plan.isa);
  const bool engages = tiled_path_engages(info, p.radius(), 0, items[0].a.nx());
  fan_out_items(items.size(), plan, [&](int i) {
    const TileBatch3D& it = items[static_cast<std::size_t>(i)];
    if (!engages) {
      info.run3(p, it.a, it.b, tsteps);
      return;
    }
    dispatch_width(plan.isa, [&](auto wc) {
      tiled3d_impl<decltype(wc)::value>(p, it.a, it.b, tsteps, plan, true);
    });
  });
}

}  // namespace sf
