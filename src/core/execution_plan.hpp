/// \file
/// \brief The planning layer between the Solver facade and the executors.
///
/// `Solver::run` no longer hard-codes "tiled or not": it builds a
/// PlanRequest (selected kernel, extents, horizon, the user's
/// tiling/threads/tile/time_block knobs) and asks plan_execution() for an
/// ExecutionPlan. The plan says whether the temporal split-tiling multicore
/// path (paper §3.4, the Fig. 9 configuration) runs, and with which
/// concrete tile/time_block/threads geometry — negotiated from the wedge
/// heuristics, recalled from the tuner cache, or (after a measuring run)
/// tuned.
///
/// Deciding tiled-vs-untiled under Tiling::Auto is a cost model:
///  1. the selected kernel must declare an engaging tiled stage
///     (KernelInfo::tileable via tiled_path_engages);
///  2. the horizon must cover at least two folded super-steps — shorter
///     runs never amortize a stage barrier;
///  3. the negotiated wedge geometry must actually block (disjoint wedges,
///     see negotiate_wedge);
///  4. the working set must be worth it: at least 2 MiB when
///     multiple threads are available (parallel wedges win on anything
///     sizable because the untiled executors are serial), or larger than
///     the last-level cache in the single-threaded case (where split tiling
///     is purely a cache-blocking play, paper Fig. 8).
#pragma once

#include "kernels/registry.hpp"
#include "stencil/presets.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {

/// The Solver's tiling policy knob.
enum class Tiling {
  Auto,  ///< Tile when the cost model above predicts a win (default).
  On,    ///< Always tile when a tiled stage engages (the Fig. 9 setup).
  Off,   ///< Never tile; always run the untiled kernel.
};

/// Where an ExecutionPlan's tile geometry came from.
enum class PlanSource {
  Untiled,    ///< No tiling: geometry fields are meaningless.
  Heuristic,  ///< negotiate_wedge() defaults (or explicit user overrides).
  Cached,     ///< Recalled from the TuneCache (this process or SF_TUNE_CACHE).
  Tuned,      ///< Measured by this Solver's auto-tuning run just now.
};

/// Display name of a PlanSource ("untiled", "heuristic", "cached", "tuned").
const char* plan_source_name(PlanSource s);

/// Everything plan_execution() needs to decide how a run executes.
struct PlanRequest {
  const StencilSpec* spec = nullptr;    ///< The stencil being solved.
  const KernelInfo* kernel = nullptr;   ///< Kernel selected by the Solver.
  long nx = 0;                          ///< Resolved extents.
  long ny = 1;                          ///< Second extent (1 below 2-D).
  long nz = 1;                          ///< Third extent (1 below 3-D).
  int tsteps = 0;                       ///< Resolved time-step horizon.
  Tiling tiling = Tiling::Auto;         ///< The user's tiling policy.
  int threads = 0;     ///< Requested pool workers (0 = hardware threads).
  int tile = 0;        ///< Explicit tile extent (0 = negotiate/tune).
  int time_block = 0;  ///< Explicit time block (0 = negotiate/tune).
  Affinity affinity = Affinity::None;  ///< Worker placement policy (the
                                       ///< Engine resolves SF_AFFINITY
                                       ///< before building the request).
};

/// How one Solver run will execute: untiled kernel call, or the split-tiled
/// wedge schedule with this concrete geometry.
struct ExecutionPlan {
  const KernelInfo* kernel = nullptr;  ///< The kernel that will execute.
  bool tiled = false;                  ///< Split-tiled engine execution?
  bool blocked = false;  ///< Within a tiled plan: true when wedges stay
                         ///< disjoint at this geometry; false means the
                         ///< engine will run unblocked full sweeps (still
                         ///< correct — Tiling::On on a domain too small to
                         ///< block — and the tuner has nothing to measure).
  TilePlan tile;  ///< Concrete geometry when tiled (method/isa stamped from
                  ///< the kernel; tile/time_block/threads all non-zero).
  PlacementPlan placement;  ///< Which pool worker owns which run of wedge
                            ///< tiles, negotiated alongside tile/time_block
                            ///< for blocked parallel plans (workers == 0
                            ///< otherwise). The tiling engine recomputes
                            ///< the identical map (balanced_placement), so
                            ///< what executes is what this reports; the
                            ///< Engine's first-touch initialization walks
                            ///< it so a worker's tiles live on its node.
  PlanSource source = PlanSource::Untiled;  ///< Provenance of the geometry.
};

/// The largest radius the selected kernel must read with: the stencil's own
/// pattern radius, widened by the 1-D source term's where one exists (APOP).
int effective_radius(const StencilSpec& spec);

/// Bytes the ping-pong grid pair occupies (2 * 8 bytes per point, halos
/// excluded) — the working set the Tiling::Auto cost model reasons about.
long working_set_bytes(long nx, long ny, long nz);

/// The Tiling::Auto cost model in isolation: true when plan_execution()
/// would tile this request had the policy been Auto. Exposed for tests and
/// for harnesses that want to report the decision.
bool tiling_profitable(const PlanRequest& req);

/// The wedge geometry negotiate_wedge() settles on for this request
/// (explicit tile/time_block/threads respected; slope, tiled extent and
/// slice bytes derived from the spec exactly as plan_execution does).
/// Exposed so the Solver's tuning pass measures candidates with the same
/// geometry the planner would deploy — one derivation, no drift.
WedgeGeometry plan_geometry(const PlanRequest& req);

/// Builds the execution plan for one run. With Tiling::Off (or a kernel
/// whose tiled stage cannot engage) the plan is untiled. Otherwise the
/// geometry is resolved in priority order: explicit user tile/time_block,
/// then a TuneCache hit, then the negotiate_wedge() heuristics. The
/// measuring pass that *fills* the cache lives in Solver::run (it needs
/// allocated grids); plan_execution only ever reads the cache.
ExecutionPlan plan_execution(const PlanRequest& req);

}  // namespace sf
