// stream-cache: one thread, untiled, one cache-resident ping-pong pair per
// base shape, kept in the kernel's preferred resident layout and advanced
// with HaloPolicy::Clean. Each round advances every pair by a fixed chunk
// in a fixed order, so host noise lands on all shapes alike. Kernel
// arithmetic is nearly all of the time; no pool, tiling, serving or
// per-call layout transform is involved.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "kernels/registry.hpp"

namespace pb {

namespace {

struct Shape {
  const char* name;
  sf::Preset preset;
  long nx, ny, nz;
};

// With halos each pair is 1.0-1.7 MB, inside one core's 2 MiB L2.
const Shape kShapes[] = {
    {"heat1d", sf::Preset::Heat1D, 65536, 1, 1},
    {"p1d5", sf::Preset::P1D5, 65536, 1, 1},
    {"heat2d", sf::Preset::Heat2D, 256, 256, 1},
    {"box2d9", sf::Preset::Box2D9, 256, 256, 1},
    {"heat3d", sf::Preset::Heat3D, 40, 40, 40},
    {"box3d27", sf::Preset::Box3D27, 40, 40, 40},
};
constexpr int kChunk = 16;       // steps per pair per round
constexpr int kCheckEvery = 6;   // every 6th round checks one shape

struct Pair {
  const Shape* shape = nullptr;
  const sf::StencilSpec* spec = nullptr;
  sf::PreparedStencil clean;  // streaming handle (HaloPolicy::Clean)
  Field a, b;
  Field before, ref, scratch;  // natural-layout check buffers
  double flops_per_chunk = 0;
  std::vector<double> advance_s, kernel_s;  // traced samples
};

}  // namespace

void run_stream_cache(Ctx& c) {
  const Options& o = c.opt;
  std::vector<Pair> pairs(std::size(kShapes));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    Pair& p = pairs[i];
    p.shape = &kShapes[i];
    p.spec = &sf::preset(p.shape->preset);
    sf::ExecOptions eo;
    eo.threads = 1;
    eo.tiling = sf::Tiling::Off;
    eo.tsteps = kChunk;
    const sf::Extents ext{p.shape->nx, p.shape->ny, p.shape->nz};
    eo.layout = sf::Engine::instance().prepare(*p.spec, ext, eo).preferred_layout();
    const sf::PreparedStencil warm = sf::Engine::instance().prepare(*p.spec, ext, eo);
    eo.halo_policy = sf::HaloPolicy::Clean;
    p.clean = sf::Engine::instance().prepare(*p.spec, ext, eo);
    const int d = p.spec->dims, h = p.clean.halo();
    p.a = Field(d, ext.nx, ext.ny, ext.nz, h, false);
    p.b = Field(d, ext.nx, ext.ny, ext.nz, h);
    fill_random(p.a, o.seed * 1000003 + i);
    if (o.digest) continue;
    to_resident(p.clean, p.a);
    to_resident(p.clean, p.b);
    advance(warm, p.a, p.b, kChunk);  // syncs b's halo once
    p.before = Field(d, ext.nx, ext.ny, ext.nz, h);
    p.ref = Field(d, ext.nx, ext.ny, ext.nz, h);
    p.scratch = Field(d, ext.nx, ext.ny, ext.nz, h);
    p.flops_per_chunk =
        sf::flops_per_step(*p.spec, ext.nx, ext.ny, ext.nz) * kChunk;
  }
  if (o.digest) {
    std::uint64_t h = 1469598103934665603ull;
    for (const Pair& p : pairs) h = p.a.digest(h);
    c.rep.add("inputs.digest", static_cast<double>(h >> 11), "hash");
    return;
  }
  if (!c.probe) c.rep.add("setup_s", now_s(), "s");

  double points_per_round = 0;
  for (const Pair& p : pairs) points_per_round += p.a.points() * double{kChunk};

  const bool tracing = c.tr.on;
  const double seconds = c.probe ? 1.5 : o.seconds;
  std::vector<double> rounds_untraced, rounds_traced;
  Checker chk;
  long attempted = 0, failed = 0;
  bool defect_pending = o.inject_defect;
  double timed_s = 0, timed_pts = 0;
  const double t_end = now_s() + seconds;
  for (long round = 0; now_s() < t_end; ++round) {
    const bool check = round % kCheckEvery == 0;
    Pair* cp = check ? &pairs[static_cast<std::size_t>(round / kCheckEvery) %
                             pairs.size()]
                     : nullptr;
    if (cp != nullptr) natural_copy(cp->clean, cp->a, cp->before);
    // Traced runs cycle untraced / traced advance() / traced direct kernel
    // rounds, so the kernel's share is measured under the same cache
    // conditions as the advance() it sits under.
    const int mode = !tracing ? 0 : c.probe ? 1 + round % 2 : round % 3;
    const bool traced = mode != 0;
    const int root = traced ? c.tr.begin("bench.round", round) : -1;
    const double t0 = now_s();
    for (Pair& p : pairs) {
      ++attempted;
      const double s0 = now_s();
      try {
        if (mode == 2)
          kernel_run(p.clean.kernel(), *p.spec, p.a, p.b, kChunk);
        else
          advance(p.clean, p.a, p.b, kChunk);
      } catch (const std::exception& e) {
        ++failed;
        c.rep.line(std::string("advance failed: ") + e.what());
      }
      if (traced) {
        const double s1 = now_s();
        c.tr.add(mode == 2 ? "kernels.run" : "engine.advance", s0, s1, round, root,
                 plan_args(p.clean, p.shape->name));
        (mode == 2 ? p.kernel_s : p.advance_s).push_back(s1 - s0);
      }
    }
    const double dt = now_s() - t0;
    c.tr.end(root);
    if (cp != nullptr) {
      if (defect_pending) {
        perturb(cp->a, 1e-3);
        defect_pending = false;
      }
      const double r = check_against_reference(cp->clean, *cp->spec, cp->before,
                                                cp->a, cp->ref, cp->scratch, kChunk);
      if (!chk.record(r, 1.0)) ++failed;
      continue;  // check rounds are not timing samples
    }
    if (mode == 2) continue;
    (traced ? rounds_traced : rounds_untraced).push_back(dt);
    if (!traced) {
      timed_s += dt;
      timed_pts += points_per_round;
    }
  }
  c.rep.attempted += attempted;
  c.rep.failed += failed;
  c.rep.err_ratio_max = std::max(c.rep.err_ratio_max, chk.err_ratio_max);

  char buf[320];
  std::snprintf(buf, sizeof buf,
                "stream-cache: %zu timed rounds, %zu traced, %ld checks "
                "(%ld mismatched, worst err/tol %.3g)",
                rounds_untraced.size(), rounds_traced.size(), chk.checked,
                chk.mismatched, chk.err_ratio_max);
  c.rep.line(buf);

  if (!c.probe && !rounds_untraced.empty()) {
    const Summary s = summarize(rounds_untraced);
    c.rep.add("gpts_per_s", timed_pts / timed_s / 1e9, "Gpt/s");
    c.rep.add("latency_ms_p50", s.p50 * 1e3, "ms");
    c.rep.add("bench.latency_ms_tail", s.tail * 1e3, "ms");
    std::snprintf(buf, sizeof buf,
                  "round_ms_p50 %.3f ms, round_ms_tail %.3f ms (p%.1f of %ld rounds)",
                  s.p50 * 1e3, s.tail * 1e3, s.tail_pct, s.n);
    c.rep.line(buf);
  }
  if (!tracing) return;

  // Per-layer metrics: each shape's kernel rate and its share of the
  // roofline (compulsory traffic: 16 B per point-step, computed).
  double adv_ms = 0, ker_ms = 0;
  for (Pair& p : pairs) {
    const double ks = median(p.kernel_s), as = median(p.advance_s);
    adv_ms += as * 1e3;
    ker_ms += ks * 1e3;
    const double gf = p.flops_per_chunk / ks / 1e9;
    const double fpp = p.flops_per_chunk / (p.a.points() * double{kChunk});
    const double roof =
        roof_gflops(c.host.fma_gflops_1core, c.host.stream_gbs_1core, fpp, 16.0);
    const std::string k = std::string("kernels.") + p.shape->name;
    c.rep.add(k + ".gflops", gf, "GFLOP/s");
    c.rep.add(k + ".roof_frac", gf / roof, "ratio");
    std::snprintf(buf, sizeof buf,
                  "  %-8s kernel %-14s %-6s advance %.3f ms, kernel %.3f ms, "
                  "%.2f GFLOP/s, roof %.2f GFLOP/s (computed 16 B/pt)",
                  p.shape->name, p.clean.kernel().name,
                  sf::isa_name(p.clean.kernel().isa), as * 1e3, ks * 1e3, gf,
                  roof);
    c.rep.line(buf);
  }
  if (c.probe) return;
  const double wall = median(rounds_traced) * 1e3;
  c.rep.add("bench.trace_overhead",
            median(rounds_traced) / median(rounds_untraced) - 1.0, "ratio");
  c.rep.line("stream-cache breakdown (per round, medians of traced rounds):");
  print_breakdown(c, wall,
                  {{"kernels", ker_ms, "span: direct KernelInfo::run rounds"},
                   {"engine", adv_ms - ker_ms, "span: advance() minus kernel"}});
}

}  // namespace pb
