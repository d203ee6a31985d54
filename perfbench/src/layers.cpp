// Direct calls into each layer's public functions, on the serving request
// shapes: the costs the per-request breakdown of serve-small is built
// from, plus the set-up layers (prepare, fold planning, pool build).
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/cpu.hpp"
#include "fold/folding_plan.hpp"
#include "layout/transpose_layout.hpp"
#include "runtime/worker_pool.hpp"
#include "tiling/split_tiling.hpp"

namespace pb {

namespace {

// Median seconds of `reps` calls of `fn`, inside one span.
double time_median(Ctx& c, const std::string& span, int reps,
                   const std::function<void()>& fn) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(reps));
  Scope s(c.tr, span, -1, -1, "\"reps\":" + std::to_string(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    v.push_back(now_s() - t0);
  }
  return median(v);
}

}  // namespace

void run_layer_probes(Ctx& c) {
  const int root = c.tr.begin("bench.layer_probes");

  // Engine: a cold prepare (a horizon no earlier call used, so the plan
  // cache misses) and a cache hit; fold planning of the 2-D/3-D shapes.
  static int horizon = 1000;
  const double cold = time_median(c, "engine.prepare_cold", 5, [] {
    prepare_serve(kServeKinds[0], ++horizon);
  });
  prepare_serve(kServeKinds[0]);
  const double hit = time_median(c, "engine.prepare_hit", 200,
                                 [] { prepare_serve(kServeKinds[0]); });
  c.rep.add("engine.prepare_ms", cold * 1e3, "ms");
  c.rep.add("engine.prepare_hit_us", hit * 1e6, "us");
  double fold = 0;
  const sf::Preset folded[] = {sf::Preset::Heat2D, sf::Preset::Box2D9,
                               sf::Preset::Heat3D, sf::Preset::Box3D27};
  for (sf::Preset p : folded) {
    const sf::StencilSpec& s = sf::preset(p);
    fold += time_median(c, "fold.plan_folding", 20, [&] {
      if (s.dims == 2) sf::plan_folding(s.p2, 2);
      else sf::plan_folding(s.p3, 2);
    });
  }
  c.rep.add("fold.plan_us", fold / std::size(folded) * 1e6, "us");

  // Per request kind, weighted by the mix.
  double validate = 0, transform = 0, kernel = 0, item = 0, adv = 0;
  for (const ServeKind& kd : kServeKinds) {
    const sf::PreparedStencil ps = prepare_serve(kd);
    const sf::StencilSpec& spec = sf::preset(kd.preset);
    const int h = ps.halo();
    Field a(2, kServeN, kServeN, 1, h, false), b(2, kServeN, kServeN, 1, h);
    fill_random(a, 7);
    copy_all(a, b);
    validate += kd.share * time_median(c, "engine.validate_views", 500, [&] {
      ps.validate_views(a.v2, b.v2);
    });
    const int w = ps.kernel().width;
    transform += kd.share * time_median(c, "layout.apply_transpose_layout", 200, [&] {
      sf::apply_transpose_layout(a.v2, w);
    });
    item += kd.share * time_median(c, "tiling.run_tile_plan", 100, [&] {
      sf::run_tile_plan(spec.p2, a.v2, b.v2, kServeSteps, ps.plan().tile);
    });
    adv += kd.share * time_median(c, "engine.advance", 100, [&] {
      ps.advance(a.v2, b.v2, kServeSteps);
    });
    // The kernel alone, on views already in its resident layout.
    Field ta(2, kServeN, kServeN, 1, h), tb(2, kServeN, kServeN, 1, h);
    copy_all(a, ta);
    copy_all(a, tb);
    to_resident(ps, ta);
    to_resident(ps, tb);
    kernel += kd.share * time_median(c, "kernels.run", 100, [&] {
      kernel_run(ps.kernel(), spec, ta, tb, kServeSteps);
    });
  }
  c.rep.add("engine.validate_us", validate * 1e6, "us");
  c.rep.add("layout.transform_us", transform * 1e6, "us");
  c.rep.add("kernels.serve_us", kernel * 1e6, "us");
  c.rep.add("tiling.serve_item_us", item * 1e6, "us");
  c.rep.add("engine.self_us", (adv - validate - item) * 1e6, "us");

  // Runtime: an empty dispatch on the serving pool, and building a pool.
  const std::shared_ptr<sf::WorkerPool> pool =
      sf::shared_pool(kServeThreads, sf::Affinity::None);
  const double dispatch = time_median(c, "runtime.pool_run", 1000,
                                      [&] { pool->run([](int) {}); });
  c.rep.add("runtime.dispatch_us", dispatch * 1e6, "us");
  std::vector<double> build;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    auto p = std::make_unique<sf::WorkerPool>(sf::hardware_threads());
    build.push_back(now_s() - t0);
    c.tr.add("runtime.pool_build", t0, t0 + build.back());
  }
  c.rep.add("runtime.pool_build_ms", median(build) * 1e3, "ms");
  c.tr.end(root);

  char buf[400];
  std::snprintf(buf, sizeof buf,
                "layer probes: prepare cold %.3f ms, hit %.2f us, fold plan %.1f "
                "us; serve item: validate %.2f us, transform %.2f us, "
                "kernel %.1f us, run_tile_plan %.1f us, advance %.1f us; "
                "dispatch %.2f us, pool build %.3f ms",
                cold * 1e3, hit * 1e6, fold / std::size(folded) * 1e6,
                validate * 1e6, transform * 1e6, kernel * 1e6,
                item * 1e6, adv * 1e6, dispatch * 1e6, median(build) * 1e3);
  c.rep.line(buf);
}

}  // namespace pb
