/// \file
/// \brief Environment-variable knobs, in one place.
///
/// Every `SF_*` variable the library reads is declared here (docs/TUNING.md
/// documents them for users):
///
///  * `SF_BENCH_FULL=1`   — benches use the paper's Table-1 problem sizes
///    (slow, minutes per bench); default is a scaled-down sweep that
///    finishes fast.
///  * `SF_BENCH_REPS=n`   — override the bench measurement repetition count.
///  * `SF_BENCH_OUT=dir`  — directory the bench harnesses write their CSVs
///    into (created if missing; default: the working directory). Files are
///    suffixed with a per-run timestamp so repeated sweeps never overwrite
///    each other.
///  * `SF_TUNE=1`         — force the Solver's measure-once auto-tuner on
///    for every tiled run (equivalent to calling `Solver::tune(true)`).
///  * `SF_TUNE_CACHE=path` — persist tuned tile geometries to `path` and
///    reload them at startup, so production runs skip re-measurement across
///    processes (see core/tuner.hpp).
///  * `SF_LLC_BYTES=n`    — override the detected last-level-cache size the
///    Tiling::Auto cost model compares working sets against
///    (common/cpu.hpp llc_bytes()).
///  * `SF_THREADS=n`      — default worker count for tiled stages when the
///    caller leaves `threads` unset (0/unset = hardware threads).
///  * `SF_AFFINITY=none|compact|scatter` — default worker-placement policy
///    of the runtime's WorkerPool when ExecOptions::affinity is left at
///    Affinity::None (runtime/topology.hpp env_affinity()).
///  * `SF_POOL_CACHE=n`   — max (threads, affinity) configurations the
///    shared_pool() registry keeps cached (default 8, floor 1). Acquiring
///    a pool beyond the cap evicts the least-recently-used unreferenced
///    configuration; pools still referenced by prepared plans or servers
///    are never evicted (runtime/worker_pool.hpp).
///  * `SF_TEST_JITTER=n`  — test-only fault injection: each pipelined wedge
///    stage first sleeps its worker a pseudo-random 0..n microseconds
///    (runtime/worker_pool.hpp test_jitter_stall), forcing maximal stage
///    skew between neighbors. Unset/0 (the default) is a no-op.
///  * `SF_METRICS=1`      — enable the telemetry counters/histograms
///    (telemetry/telemetry.hpp). Unset/0 hands out dead no-op handles;
///    resolution happens at construct/prepare time, never per operation.
///  * `SF_TRACE=1`        — enable the scoped trace-span journal (bounded
///    per-thread rings, chrome-trace JSON export).
///  * `SF_TRACE_BUF=n`    — per-thread trace ring capacity in events
///    (default 8192, floor 16; oldest events overwritten on wrap).
///  * `SF_TELEMETRY_OUT=dir` — write the telemetry CSV/JSON artifact set
///    into `dir` at process exit (telemetry::write_reports()).
#pragma once

#include <cstdlib>
#include <string>

namespace sf {

/// True when `name` is set to anything but "" or "0".
inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::string(v) != "0" && std::string(v) != "";
}

/// Integer value of `name`, or `fallback` when unset.
inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v ? std::atol(v) : fallback;
}

/// String value of `name`, or an empty string when unset.
inline std::string env_str(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

/// SF_BENCH_FULL: paper-size bench sweeps.
inline bool bench_full() { return env_flag("SF_BENCH_FULL"); }

/// SF_BENCH_OUT: output directory for bench CSVs ("" = working directory).
inline std::string bench_out_dir() { return env_str("SF_BENCH_OUT"); }

/// SF_TUNE: auto-tune every tiled Solver run (measure-once, cached).
inline bool tune_forced() { return env_flag("SF_TUNE"); }

/// SF_TUNE_CACHE: path of the persistent tuning cache ("" = in-process
/// only).
inline std::string tune_cache_path() { return env_str("SF_TUNE_CACHE"); }

/// SF_THREADS: default tiled-stage worker count (0 = hardware threads).
inline int env_threads() {
  return static_cast<int>(env_long("SF_THREADS", 0));
}

/// SF_POOL_CACHE: shared_pool() registry capacity (default 8, floor 1).
inline int pool_cache_cap() {
  const long cap = env_long("SF_POOL_CACHE", 8);
  return cap < 1 ? 1 : static_cast<int>(cap);
}

/// SF_TEST_JITTER: max per-stage fault-injection stall in microseconds
/// (unset/0 = disabled). Deliberately re-read per call — the stress tests
/// setenv/unsetenv around individual cases, so a cached parse would go
/// stale (runtime/worker_pool.hpp test_jitter_stall).
inline long test_jitter_us() { return env_long("SF_TEST_JITTER", 0); }

}  // namespace sf
