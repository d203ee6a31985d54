#include "core/execution_plan.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "core/tuner.hpp"

namespace sf {

namespace {

int pattern_radius(const StencilSpec& s) {
  switch (s.dims) {
    case 1: return s.p1.radius();
    case 2: return s.p2.radius();
    default: return s.p3.radius();
  }
}

int source_radius(const StencilSpec& s) {
  return s.dims == 1 && s.has_source ? s.src1.radius() : 0;
}

// The dimension the wedge schedule tessellates: x in 1-D, y in 2-D, z in
// 3-D (always the outermost loop of the untiled executors).
long tiled_extent(const StencilSpec& s, long nx, long ny, long nz) {
  return s.dims == 1 ? nx : s.dims == 2 ? ny : nz;
}

bool engages(const PlanRequest& req) {
  return req.spec != nullptr && req.kernel != nullptr &&
         tiled_path_engages(*req.kernel, pattern_radius(*req.spec),
                            source_radius(*req.spec), req.nx);
}

// Bytes of one cross-section slice of the tiled dimension, mirroring what
// the engine impls pass make_plan (so plan() reports the exact geometry
// run_tile_plan will reconstruct).
long slice_bytes(const StencilSpec& s, long nx, long ny) {
  switch (s.dims) {
    case 1: return sizeof(double);
    case 2: return static_cast<long>(sizeof(double)) * nx;
    default: return static_cast<long>(sizeof(double)) * nx * ny;
  }
}

WedgeGeometry negotiate(const PlanRequest& req) {
  TilePlan requested;
  requested.method = req.kernel->method;
  requested.isa = req.kernel->isa;
  requested.tile = req.tile;
  requested.time_block = req.time_block;
  requested.threads = req.threads;
  requested.affinity = req.affinity;
  const int slope = req.kernel->wedge_slope(pattern_radius(*req.spec));
  return negotiate_wedge(
      static_cast<int>(tiled_extent(*req.spec, req.nx, req.ny, req.nz)),
      slope, req.kernel->fold_depth, req.tsteps, requested,
      slice_bytes(*req.spec, req.nx, req.ny));
}

}  // namespace

const char* plan_source_name(PlanSource s) {
  switch (s) {
    case PlanSource::Untiled: return "untiled";
    case PlanSource::Heuristic: return "heuristic";
    case PlanSource::Cached: return "cached";
    case PlanSource::Tuned: return "tuned";
  }
  return "?";
}

int effective_radius(const StencilSpec& spec) {
  return std::max(pattern_radius(spec), source_radius(spec));
}

long working_set_bytes(long nx, long ny, long nz) {
  return 2L * static_cast<long>(sizeof(double)) * nx * std::max(1L, ny) *
         std::max(1L, nz);
}

namespace {

// Working-set floor below which Tiling::Auto stays untiled even on
// multicore: smaller problems lose more to stage barriers than they gain
// from parallel wedges.
constexpr long kTileMinBytes = 2L << 20;

// The Tiling::Auto decision against an already-negotiated geometry (shared
// by tiling_profitable and plan_execution so the geometry is computed
// once and the two can never drift apart).
bool profitable_at(const PlanRequest& req, const WedgeGeometry& g) {
  // A time block needs at least two super-steps to amortize its two stage
  // barriers; shorter horizons run untiled.
  const int m = std::max(1, req.kernel->fold_depth);
  if (req.tsteps / m < 2) return false;
  if (!g.blocked) return false;
  const long bytes = working_set_bytes(req.nx, req.ny, req.nz);
  if (g.threads > 1) {
    // The untiled executors are serial, so parallel wedges win on anything
    // sizable; below the floor the stage barriers eat the gain.
    return bytes >= kTileMinBytes;
  }
  // Single-threaded split tiling is purely a cache-blocking play (Fig. 8):
  // profitable only once the ping-pong pair falls out of the LLC.
  return bytes > llc_bytes();
}

}  // namespace

bool tiling_profitable(const PlanRequest& req) {
  if (!engages(req)) return false;
  return profitable_at(req, negotiate(req));
}

WedgeGeometry plan_geometry(const PlanRequest& req) { return negotiate(req); }

ExecutionPlan plan_execution(const PlanRequest& req) {
  ExecutionPlan plan;
  plan.kernel = req.kernel;
  if (req.tiling == Tiling::Off || !engages(req)) return plan;

  const WedgeGeometry g = negotiate(req);
  if (req.tiling == Tiling::Auto && !profitable_at(req, g)) return plan;
  plan.tiled = true;
  plan.blocked = g.blocked;
  plan.source = PlanSource::Heuristic;
  plan.tile.method = req.kernel->method;
  plan.tile.isa = req.kernel->isa;
  plan.tile.tile = g.tile;
  plan.tile.time_block = g.time_block;
  plan.tile.threads = g.threads;
  plan.tile.affinity = req.affinity;
  // Explicit geometry outranks the cache; a fully-auto request recalls any
  // previously-measured result for this configuration — exact shape first,
  // then the quarter-octave shape bucket (core/tuner.hpp tune_bucket), so
  // nearby production sizes reuse measurements instead of re-tuning. A
  // cached geometry is re-validated against *this* domain before it is
  // trusted — a cache file can legitimately come from another machine or
  // be edited — and an unblockable entry is ignored in favor of the
  // heuristics. An entry that probed the thread-count axis deploys its
  // winning worker count too (a bandwidth-saturated stencil may have
  // measured fastest below the hardware maximum).
  if (req.tile == 0 && req.time_block == 0) {
    const TuneKey key =
        make_tune_key(*req.kernel, effective_radius(*req.spec), req.nx,
                      req.ny, req.nz, req.tsteps, g.threads);
    if (auto hit = TuneCache::instance().lookup_rounded(key)) {
      PlanRequest cached = req;
      cached.tile = hit->tile;
      cached.time_block = hit->time_block;
      if (hit->threads > 0) cached.threads = hit->threads;
      const WedgeGeometry cg = negotiate(cached);
      if (cg.blocked) {
        plan.tile.tile = cg.tile;
        plan.tile.time_block = cg.time_block;
        plan.tile.threads = cg.threads;
        plan.blocked = cg.blocked;
        plan.source = PlanSource::Cached;
      }
    }
  }
  // The placement map is part of the plan: who computes which tiles is
  // negotiated with the geometry, not improvised at run time.
  if (plan.blocked && plan.tile.threads > 1) {
    const long n_tiled = tiled_extent(*req.spec, req.nx, req.ny, req.nz);
    const int ntiles =
        static_cast<int>((n_tiled + plan.tile.tile - 1) / plan.tile.tile);
    plan.placement =
        balanced_placement(ntiles, plan.tile.threads, req.affinity);
  }
  return plan;
}

}  // namespace sf
