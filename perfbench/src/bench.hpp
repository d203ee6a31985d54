// Shared pieces of the repository benchmark binary: options, metric
// reports, sample statistics, the in-memory span recorder, the correctness
// checker and the host ceilings. Each workload lives in its own file and
// only calls the library's public entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "grid/grid.hpp"
#include "stencil/presets.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

/// Seconds since the benchmark's main() started (steady clock).
double now_s();
/// The steady-clock instant of now_s() == t.
Clock::time_point at_time(double t);
/// Waits until now_s() reaches `t`: sleeps, then spins the last ~100 us so
/// open-loop arrivals stay punctual.
void wait_until(double t);

/// Command-line options. Serving rates and limits come from
/// perfbench/workloads.json through run.py.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool digest = false;         // print a digest of the generated inputs
  bool inject_defect = false;  // perturb one checked output cell
  bool ladder = true;          // serve-small: run the rps_max search
  std::string trace_out;       // chrome-trace JSON path (trace mode)
  double rate_light = 0, rate_heavy = 0;  // req/s
  double limit_ms = 0;         // rps_max tail-latency limit (p99)
  double ladder_lo = 0, ladder_hi = 0, ladder_step = 0;
};

/// One named measurement with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports. `metrics` holds every value the
/// run produced (end-to-end and per-layer); run.py selects the declared
/// subset for the result line.
struct Report {
  std::map<std::string, Metric> metrics;
  long attempted = 0;  // operations attempted (calls, requests)
  long failed = 0;     // mismatches, exceptions and rejections
  double err_ratio_max = 0;  // worst checked error over its tolerance
  std::vector<std::string> text;  // human-readable lines (stdout)

  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void line(const std::string& s) { text.push_back(s); }
};

/// Median and tail of a timing sample. The tail is the highest order
/// statistic with at least ten samples beyond it (so its percentile
/// depends on `n`, reported as `tail_pct`).
struct Summary {
  double p50 = 0, tail = 0, tail_pct = 0, mean = 0;
  long n = 0;
};
Summary summarize(std::vector<double> v);
/// Plain percentile (nearest rank on the sorted sample), p in [0, 1].
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory around calls into the library's public
// functions, written as chrome-trace JSON at exit.
// ---------------------------------------------------------------------------
struct Span {
  std::string name;  // "<layer>.<call>", e.g. "engine.advance"
  double t0 = 0, t1 = 0;  // seconds since start
  int parent = -1;        // index of the enclosing span, -1 at the root
  long req = -1;          // request/op id shared by one op's spans
  int tid = 0;            // recording thread (0 = main thread)
  std::string args;       // extra JSON members ("\"kernel\":\"ours\"")
};

class Tracer {
 public:
  bool on = false;
  /// Opens a span now; returns its id (or -1 when tracing is off).
  int begin(const std::string& name, long req = -1, int parent = -1,
            std::string args = {});
  void end(int id);
  /// Records an already-measured interval.
  int add(const std::string& name, double t0, double t1, long req = -1,
          int parent = -1, std::string args = {}, int tid = 0);
  const std::vector<Span>& spans() const { return spans_; }
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Span arguments naming the kernel, ISA and plan (tiled, tile,
/// time_block) that Method::Auto chose for `ps`, for shape `shape`.
std::string plan_args(const sf::PreparedStencil& ps, const std::string& shape);

/// RAII span over one scope.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, long req = -1, int parent = -1,
        std::string args = {})
      : t_(t), id_(t.begin(name, req, parent, std::move(args))) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Correctness: outputs against stencil/reference.hpp.
// ---------------------------------------------------------------------------

/// Tolerance of an optimized result after `steps` steps of a `taps`-point
/// stencil whose values are bounded by `scale`: rounding grows at most
/// linearly in steps x taps, so tol = 8 * steps * taps * eps * scale.
double tolerance(int steps, int taps, double scale);

/// Tallies checks: each record() is one checked operation.
struct Checker {
  long checked = 0, mismatched = 0;
  double err_ratio_max = 0;
  /// Records one comparison of max |got - want| against `tol`.
  bool record(double max_err, double tol);
};

/// A halo field of 1, 2 or 3 dimensions behind one type, so the workloads
/// can treat the six base shapes alike. `v1`/`v2`/`v3` is the live view
/// (retagged when the buffer moves to a resident layout).
struct Field {
  int dims = 0;
  std::unique_ptr<sf::Grid1D> g1;
  std::unique_ptr<sf::Grid2D> g2;
  std::unique_ptr<sf::Grid3D> g3;
  sf::FieldView1D v1;
  sf::FieldView2D v2;
  sf::FieldView3D v3;

  Field() = default;
  Field(int dims, long nx, long ny, long nz, int halo, bool zero = true);
  long points() const;
  /// Raw byte digest of the whole buffer (halo included).
  std::uint64_t digest(std::uint64_t h) const;
};
void fill_random(Field& f, std::uint64_t seed);
void copy_all(const Field& src, Field& dst);  // halo + interior, positional
void to_resident(const sf::PreparedStencil& ps, Field& f);
void advance(const sf::PreparedStencil& ps, Field& a, Field& b, int steps);
/// Direct call of the kernel's executor (KernelInfo::run1/2/3).
void kernel_run(const sf::KernelInfo& k, const sf::StencilSpec& spec,
                Field& a, Field& b, int steps);
/// Natural-layout copy for checking: copies `src` (any layout) into the
/// natural field `dst` positionally and transforms it back to natural
/// order through `ps`.
void natural_copy(const sf::PreparedStencil& ps, const Field& src, Field& dst);
/// Checks `got` (any layout) against `steps` reference steps from the
/// natural-layout `before`; `scratch` is a natural field of the same shape.
/// Returns max |error| / tolerance.
double check_against_reference(const sf::PreparedStencil& ps,
                               const sf::StencilSpec& spec, const Field& before,
                               const Field& got, Field& ref, Field& scratch,
                               int steps);
/// Adds `delta` to one interior cell (the seeded-defect self-test).
void perturb(Field& f, double delta);

/// Stable 64-bit digest (FNV-1a) over raw bytes, for the input-determinism
/// self-test.
std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h);

// ---------------------------------------------------------------------------
// Host ceilings and signature.
// ---------------------------------------------------------------------------
struct Host {
  std::string cpu_model, isa;
  int cores = 0;
  long llc_bytes = 0;
  double fma_gflops_1core = 0, fma_gflops_all = 0;
  double stream_gbs_1core = 0, stream_gbs_all = 0;
  double copy_gbs_1core = 0, copy_gbs_all = 0;
  long stream_array_bytes = 0;
};
/// Identity only (no measurement): CPU model, ISA, cores, LLC.
Host host_signature();
/// Measures the FMA peak and stream bandwidth (arrays >= 4x the LLC each).
void measure_ceilings(Host& h, Report& rep);
/// Roofline bound in GFLOP/s: min(peak, AI * BW) with AI = flops / bytes.
double roof_gflops(double peak_gflops, double bw_gbs, double flops_per_pt,
                   double bytes_per_pt);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Workloads. `probe` runs the short form used by another workload's traced
// run to fill the per-layer metrics of this one.
// ---------------------------------------------------------------------------
struct Ctx {
  const Options& opt;
  Report& rep;
  Tracer& tr;
  const Host& host;
  bool probe = false;  // short form inside another workload's traced run
};

void run_stream_cache(Ctx& c);
void run_tiled_llc(Ctx& c);
void run_serve_small(Ctx& c);
/// Direct calls into the runtime, engine, fold, layout and kernel public
/// functions on the serving request shapes.
void run_layer_probes(Ctx& c);

/// The serving request kinds (Heat2D and Box2D9, 64 x 64, 8 steps),
/// prepared exactly as serve-small prepares them.
struct ServeKind {
  const char* name;
  sf::Preset preset;
  double share;  // fraction of the request mix
};
extern const ServeKind kServeKinds[2];
constexpr long kServeN = 64;
constexpr int kServeSteps = 8;
constexpr int kServeThreads = 2;
sf::PreparedStencil prepare_serve(const ServeKind& k, int tsteps = kServeSteps);

/// One layer's share of an op's wall time in a traced run.
struct LayerTime {
  std::string layer;  // module name: kernels, layout, tiling, runtime, ...
  double ms = 0;      // self time per op
  std::string how;    // "span" (measured self time) or "modelled: ..."
};
/// Prints one workload's per-layer self-time table and the unaccounted
/// residual (wall minus every attributed layer) per op, and records
/// `bench.residual_frac`.
void print_breakdown(Ctx& c, double wall_ms_per_op,
                     const std::vector<LayerTime>& layers);

}  // namespace pb
