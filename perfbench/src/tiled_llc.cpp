// tiled-llc: Heat3D 256 x 256 x 512 (two 268 MB grids, 1.8x the 300 MB
// LLC of the reference host), split-tiled on every hardware thread,
// natural layout, repeated run() over a fixed horizon on first-touched
// grids. Only here do the tiling and runtime layers do most of the work
// (wedge schedules, NeighborSync waits, LLC-capped tiles).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/cpu.hpp"
#include "stencil/reference.hpp"
#include "tiling/split_tiling.hpp"

namespace pb {

namespace {

constexpr long kNx = 256, kNy = 256, kNz = 512;
constexpr int kHorizon = 4;      // steps per run()
constexpr int kCheckEvery = 4;   // every 4th run() is checked
constexpr int kSamples = 6;      // dependency cones per checked run()

struct Cone {
  int z, y, x;
  std::unique_ptr<sf::Grid3D> a, b;  // natural copy of the cone box
  int oz, oy, ox;                    // box origin in the big grid
};

// Copies the dependency cone of (z, y, x) over `steps` steps (half-width
// steps * r, plus an r-wide ring that holds the true step-0 values or the
// real Dirichlet halo) out of `g`.
void take_cone(const sf::FieldView3D& g, int r, int steps, Cone& c) {
  const int w = steps * r;
  const auto lo = [&](int v) { return std::max(v - w, 0); };
  const auto hi = [&](int v, int n) { return std::min(v + w + 1, n); };
  c.oz = lo(c.z);
  c.oy = lo(c.y);
  c.ox = lo(c.x);
  const int nz = hi(c.z, g.nz()) - c.oz, ny = hi(c.y, g.ny()) - c.oy,
            nx = hi(c.x, g.nx()) - c.ox;
  c.a = std::make_unique<sf::Grid3D>(nz, ny, nx, r);
  c.b = std::make_unique<sf::Grid3D>(nz, ny, nx, r);
  for (int z = -r; z < nz + r; ++z)
    for (int y = -r; y < ny + r; ++y)
      for (int x = -r; x < nx + r; ++x) {
        const double v = g.at(c.oz + z, c.oy + y, c.ox + x);
        c.a->at(z, y, x) = v;
        c.b->at(z, y, x) = v;
      }
}

}  // namespace

void run_tiled_llc(Ctx& c) {
  const Options& o = c.opt;
  const sf::StencilSpec& spec = sf::preset(sf::Preset::Heat3D);
  const int threads = sf::hardware_threads();
  sf::ExecOptions eo;
  eo.threads = threads;
  eo.tsteps = kHorizon;
  const double t_prep = now_s();
  const sf::PreparedStencil ps =
      sf::Engine::instance().prepare(spec, sf::Extents{kNx, kNy, kNz}, eo);
  const double t_alloc = now_s();
  const int h = ps.halo();
  Field a(3, kNx, kNy, kNz, h, false), b(3, kNx, kNy, kNz, h, false);
  const double t_touch = now_s();
  ps.first_touch(a.v3);
  ps.first_touch(b.v3);
  const double t_fill = now_s();
  fill_random(a, o.seed * 1000003 + 17);
  if (o.digest) {
    c.rep.add("inputs.digest", static_cast<double>(a.digest(1469598103934665603ull) >> 11),
              "hash");
    return;
  }
  const double t_ready = now_s();
  if (!c.probe) c.rep.add("setup_s", t_ready, "s");
  c.rep.add("runtime.first_touch_ms", (t_fill - t_touch) * 1e3, "ms");
  const sf::ExecutionPlan& plan = ps.plan();
  c.rep.add("tiling.tile", plan.tiled ? plan.tile.tile : 0, "count");
  c.rep.add("tiling.time_block", plan.tiled ? plan.tile.time_block : 0, "count");
  char buf[400];
  std::snprintf(buf, sizeof buf,
                "tiled-llc: %s/%s tiled=%d tile=%d time_block=%d threads=%d; "
                "setup: prepare %.3f s, alloc %.3f s, first touch %.3f s, "
                "fill %.3f s",
                ps.kernel().name, sf::isa_name(ps.kernel().isa),
                plan.tiled ? 1 : 0, plan.tile.tile, plan.tile.time_block,
                threads, t_alloc - t_prep, t_touch - t_alloc, t_fill - t_touch,
                t_ready - t_fill);
  c.rep.line(buf);

  const std::string args = plan_args(ps, "heat3d");
  const int r = sf::effective_radius(spec);
  const double flops_per_run =
      sf::flops_per_step(spec, kNx, kNy, kNz) * kHorizon;
  const double pts_per_run = double{kNx} * kNy * kNz * kHorizon;

  std::mt19937_64 rng(o.seed * 7919 + 3);
  std::vector<Cone> cones(kSamples);
  Checker chk;
  long attempted = 0, failed = 0;
  bool defect_pending = o.inject_defect;
  std::vector<double> untraced, traced_runs, tile_plan_s;
  const bool tracing = c.tr.on;
  // The probe form (inside another workload's traced run) makes one
  // checked run() and one direct run_tile_plan().
  const double t_end = now_s() + (c.probe ? 0.0 : o.seconds);
  for (long run = 0; run == 0 || now_s() < t_end; ++run) {
    const bool check = run % kCheckEvery == 0;
    if (check)
      for (Cone& cn : cones) {
        cn.z = static_cast<int>(rng() % kNz);
        cn.y = static_cast<int>(rng() % kNy);
        cn.x = static_cast<int>(rng() % kNx);
        take_cone(a.v3, r, kHorizon, cn);
      }
    const bool traced = tracing && (c.probe || run % 2 == 1);
    ++attempted;
    const double t0 = now_s();
    try {
      ps.run(a.v3, b.v3, kHorizon);
    } catch (const std::exception& e) {
      ++failed;
      c.rep.line(std::string("run failed: ") + e.what());
    }
    const double dt = now_s() - t0;
    if (traced) c.tr.add("engine.run", t0, t0 + dt, run, -1, args);
    if (check) {
      if (defect_pending) {
        a.v3.at(cones[0].z, cones[0].y, cones[0].x) += 1e-3;
        defect_pending = false;
      }
      double worst = 0;
      for (Cone& cn : cones) {
        sf::run_reference(spec.p3, cn.a->view(), cn.b->view(), kHorizon);
        const double want = cn.a->at(cn.z - cn.oz, cn.y - cn.oy, cn.x - cn.ox);
        const double got = a.v3.at(cn.z, cn.y, cn.x);
        const double tol = tolerance(kHorizon, spec.points(), 1.0);
        worst = std::max(worst, std::fabs(got - want) / tol);
        if (std::isnan(got)) worst = NAN;
        cn.a.reset();
        cn.b.reset();
      }
      if (!chk.record(worst, 1.0)) ++failed;
    }
    // The cones are copied and recomputed outside the timed interval, so
    // checked runs are timing samples too.
    (traced ? traced_runs : untraced).push_back(dt);
    if (traced) {
      // Direct call into the tiling layer with the prepared geometry: the
      // run() wall minus this is the engine's own per-call work.
      const double s0 = now_s();
      sf::run_tile_plan(spec.p3, a.v3, b.v3, kHorizon, plan.tile);
      const double s1 = now_s();
      c.tr.add("tiling.run_tile_plan", s0, s1, run, -1, args);
      tile_plan_s.push_back(s1 - s0);
    }
  }
  c.rep.attempted += attempted;
  c.rep.failed += failed;
  c.rep.err_ratio_max = std::max(c.rep.err_ratio_max, chk.err_ratio_max);
  std::snprintf(buf, sizeof buf,
                "tiled-llc: %zu timed runs of %d steps, %zu traced, %ld checked "
                "(%d cones each; %ld mismatched, worst err/tol %.3g)",
                untraced.size(), kHorizon, traced_runs.size(), chk.checked,
                kSamples, chk.mismatched, chk.err_ratio_max);
  c.rep.line(buf);
  if (!c.probe && !untraced.empty()) {
    const Summary s = summarize(untraced);
    double sum = 0;
    for (double v : untraced) sum += v;
    c.rep.add("gpts_per_s",
              pts_per_run * static_cast<double>(untraced.size()) / sum / 1e9,
              "Gpt/s");
    c.rep.add("latency_ms_p50", s.p50 * 1e3, "ms");
    c.rep.add("bench.latency_ms_tail", s.tail * 1e3, "ms");
    std::snprintf(buf, sizeof buf,
                  "round_ms_p50 %.1f ms, round_ms_tail %.1f ms (one run(); p%.1f "
                  "of %ld runs)",
                  s.p50 * 1e3, s.tail * 1e3, s.tail_pct, s.n);
    c.rep.line(buf);
  }
  if (!tracing) return;

  // Tiled traffic model (computed): 16 B per point-step, divided by the
  // time-block height the wedges reuse each tile for.
  const double tp = median(tile_plan_s);
  const double gf = flops_per_run / tp / 1e9;
  const double tb = plan.tiled ? std::max(plan.tile.time_block, 1) : 1;
  const double roof =
      roof_gflops(c.host.fma_gflops_all, c.host.stream_gbs_all,
                  flops_per_run / pts_per_run, 16.0 / tb);
  c.rep.add("tiling.run_ms", tp * 1e3, "ms");
  c.rep.add("tiling.gflops", gf, "GFLOP/s");
  c.rep.add("tiling.roof_frac", gf / roof, "ratio");
  std::snprintf(buf, sizeof buf,
                "  run_tile_plan %.1f ms, %.2f GFLOP/s, roof %.2f GFLOP/s "
                "(computed %.2f B/pt)",
                tp * 1e3, gf, roof, 16.0 / tb);
  c.rep.line(buf);
  if (c.probe) return;
  const double wall = median(traced_runs) * 1e3;
  c.rep.add("bench.trace_overhead", median(traced_runs) / median(untraced) - 1.0,
            "ratio");
  // Kernel arithmetic inside the wedges is modelled at the cache-resident
  // heat3d kernel rate of this run (stream-cache probe) on every worker.
  const auto it = c.rep.metrics.find("kernels.heat3d.gflops");
  const double kms = it == c.rep.metrics.end()
                         ? 0.0
                         : flops_per_run / (it->second.value * threads) / 1e6;
  c.rep.line("tiled-llc breakdown (per run(), medians of traced runs):");
  print_breakdown(
      c, wall,
      {{"kernels", std::min(kms, tp * 1e3),
        "modelled: flops at the cache-resident heat3d kernel rate x workers"},
       {"tiling", std::max(tp * 1e3 - kms, 0.0),
        "span: run_tile_plan minus modelled kernels (wedges, waits, memory)"},
       {"engine", wall - tp * 1e3, "span: run() minus run_tile_plan"}});
}

}  // namespace pb
