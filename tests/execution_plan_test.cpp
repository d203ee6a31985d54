// The ExecutionPlan layer and the auto-tuner: unified tiled-vs-untiled
// execution through Solver::run for every Table-1 preset, the Tiling::Auto
// cost model, registry tileability metadata, geometry negotiation, and the
// measure-once / cache-reuse tuning contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "core/solver.hpp"
#include "core/tuner.hpp"
#include "grid/grid_utils.hpp"

namespace sf {
namespace {

double result_diff(const Workspace& x, const Workspace& y) {
  switch (x.dims) {
    case 1: return max_abs_diff(*x.a1, *y.a1);
    case 2: return max_abs_diff(*x.a2, *y.a2);
    default: return max_abs_diff(*x.a3, *y.a3);
  }
}

double result_scale(const Workspace& x) {
  switch (x.dims) {
    case 1: return max_abs(*x.a1);
    case 2: return max_abs(*x.a2);
    default: return max_abs(*x.a3);
  }
}

void apply_test_size(Solver& s, int dims) {
  switch (dims) {
    case 1: s.size(2000); break;
    case 2: s.size(72, 64); break;
    default: s.size(36, 24, 20); break;
  }
  s.steps(8);
}

// The split-tiled multicore path through the unified Solver::run must agree
// with the untiled kernel on identical inputs, for all nine presets at
// their native dimensionality (and both must match the naive reference).
TEST(UnifiedRun, TiledMatchesUntiledAllPresets) {
  for (const auto& spec : all_presets()) {
    Solver tiled = Solver::make(spec.id).tiling(Tiling::On).threads(3);
    Solver flat = Solver::make(spec.id).tiling(Tiling::Off);
    apply_test_size(tiled, spec.dims);
    apply_test_size(flat, spec.dims);

    RunResult tr = tiled.run_verified();
    EXPECT_GE(tr.max_error, 0.0) << spec.name;
    EXPECT_LE(tr.max_error, 1e-10) << spec.name;
    flat.run();

    // Same kernel (Auto resolves identically), same seed: the wedge
    // schedule only reorders per-point updates, so the results agree to
    // rounding.
    EXPECT_EQ(&tiled.kernel(), &flat.kernel()) << spec.name;
    const double scale = std::max(1.0, result_scale(flat.workspace()));
    EXPECT_LE(result_diff(tiled.workspace(), flat.workspace()),
              1e-10 * scale)
        << spec.name;
  }
}

TEST(ExecutionPlan, OnForcesTiledWithNegotiatedGeometry) {
  Solver s = Solver::make(Preset::Heat2D)
                 .size(512, 384)
                 .steps(16)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(2);
  const ExecutionPlan& plan = s.plan();
  EXPECT_TRUE(plan.tiled);
  EXPECT_EQ(plan.source, PlanSource::Heuristic);
  EXPECT_EQ(plan.kernel, &s.kernel());
  EXPECT_EQ(plan.tile.method, s.kernel().method);
  EXPECT_GT(plan.tile.tile, 0);
  EXPECT_GT(plan.tile.time_block, 0);
  EXPECT_EQ(plan.tile.threads, 2);
  // The negotiated time block is a whole number of folded super-steps.
  EXPECT_EQ(plan.tile.time_block % s.kernel().fold_depth, 0);
}

TEST(ExecutionPlan, PlacementNegotiatedWithGeometry) {
  Solver s = Solver::make(Preset::Heat2D)
                 .size(512, 384)
                 .steps(16)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(3)
                 .affinity(Affinity::Compact);
  const ExecutionPlan& plan = s.plan();
  ASSERT_TRUE(plan.tiled);
  ASSERT_TRUE(plan.blocked);
  EXPECT_EQ(plan.tile.affinity, Affinity::Compact);
  const PlacementPlan& place = plan.placement;
  EXPECT_EQ(place.workers, 3);
  EXPECT_EQ(place.affinity, Affinity::Compact);
  // Placement covers exactly the negotiated tile count, in worker order.
  const int ntiles = (384 + plan.tile.tile - 1) / plan.tile.tile;
  EXPECT_EQ(place.ntiles(), ntiles);
  int covered = 0;
  for (int w = 0; w < place.workers; ++w) {
    const auto [t0, t1] = place.tiles_of(w);
    EXPECT_LE(t0, t1);
    covered += t1 - t0;
  }
  EXPECT_EQ(covered, ntiles);
  // Serial plans carry no placement.
  Solver serial = Solver::make(Preset::Heat2D)
                      .size(512, 384)
                      .steps(16)
                      .method(Method::Ours2)
                      .tiling(Tiling::On)
                      .threads(1);
  EXPECT_TRUE(serial.plan().tiled);
  EXPECT_EQ(serial.plan().placement.workers, 0);
}

TEST(ExecutionPlan, OffAndNonTileableKernelsStayUntiled) {
  Solver off = Solver::make(Preset::Heat2D).size(512, 384).steps(16).tiling(
      Tiling::Off);
  EXPECT_FALSE(off.plan().tiled);
  EXPECT_EQ(off.plan().source, PlanSource::Untiled);

  // multiple-loads has no tiled stage: Tiling::On degrades to untiled.
  Solver ml = Solver::make(Preset::Heat2D)
                  .size(512, 384)
                  .steps(16)
                  .method(Method::MultipleLoads)
                  .tiling(Tiling::On);
  EXPECT_FALSE(ml.plan().tiled);
  RunResult r = ml.run_verified();
  EXPECT_LE(r.max_error, 1e-11);
}

TEST(ExecutionPlan, AutoCostModelScalesWithWorkingSet) {
  // Pin the LLC the cost model sees: machines report anything from 4 MB to
  // hundreds of MB, and the decision must be deterministic under test.
  ASSERT_EQ(setenv("SF_LLC_BYTES", "33554432", 1), 0);  // 32 MiB

  // Tiny problem: stage barriers outweigh the parallel win; stays untiled.
  Solver small =
      Solver::make(Preset::Heat2D).size(64, 64).steps(8).method(Method::Ours2);
  EXPECT_FALSE(small.plan().tiled);

  // Production-sized problem (plan only — never allocated/run here): the
  // 256 MiB ping-pong pair exceeds the LLC, so Auto tiles it on any
  // machine, single- or multi-core.
  Solver big = Solver::make(Preset::Heat2D)
                   .size(4096, 4096)
                   .steps(64)
                   .method(Method::Ours2);
  const ExecutionPlan& plan = big.plan();
  EXPECT_TRUE(plan.tiled);
  EXPECT_GT(plan.tile.tile, 0);
  EXPECT_LT(plan.tile.tile, 4096);  // blocked: never one whole-domain tile
  unsetenv("SF_LLC_BYTES");
}

TEST(ExecutionPlan, ExplicitGeometryOutranksNegotiation) {
  Solver s = Solver::make(Preset::Box2D9)
                 .size(96, 96)
                 .steps(12)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .tile(24)
                 .threads(2);
  EXPECT_TRUE(s.plan().tiled);
  EXPECT_EQ(s.plan().tile.tile, 24);
  RunResult r = s.run_verified();
  EXPECT_LE(r.max_error, 1e-10);
}

// An explicit tile is how a plan gets an LLC-capped wedge tile. At this
// shape (Heat2D 96x384, 4 workers, 768-byte slices) 24 planes is the cap
// llc / (workers * 3 slices) of a 221184-byte LLC, and the plan reports
// exactly the geometry the former depth-3 tile tree negotiated for it.
TEST(ExecutionPlan, ExplicitTileReproducesLlcCappedGeometry) {
  Solver s = Solver::make(Preset::Heat2D)
                 .size(96, 384)
                 .steps(16)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(4)
                 .tile(24);
  const ExecutionPlan& plan = s.plan();
  ASSERT_TRUE(plan.tiled);
  ASSERT_TRUE(plan.blocked);
  EXPECT_EQ(plan.source, PlanSource::Heuristic);
  EXPECT_EQ(plan.tile.tile, 24);
  EXPECT_EQ(plan.tile.time_block, 10);
  EXPECT_EQ(plan.tile.threads, 4);
  EXPECT_EQ(plan.placement.workers, 4);
  EXPECT_EQ(plan.placement.bounds, (std::vector<int>{0, 4, 8, 12, 16}));
  RunResult r = s.run_verified();
  EXPECT_GE(r.max_error, 0.0);
  EXPECT_LE(r.max_error, 1e-10);
}

TEST(Registry, TileabilityMetadata) {
  // The folded method fold-doubles the wedge slope (odd levels skipped,
  // Fig. 7) and tiles only while the folded radius fits the vector window.
  const KernelInfo& folded = require_kernel(Method::Ours2, 2, Isa::Avx2);
  EXPECT_EQ(folded.fold_depth, 2);
  EXPECT_EQ(folded.wedge_slope(1), 2);
  EXPECT_TRUE(folded.tileable(1));
  EXPECT_FALSE(folded.tileable(3));

  const KernelInfo& naive = require_kernel(Method::Naive, 2, Isa::Avx2);
  EXPECT_TRUE(naive.tileable(5));  // any radius
  EXPECT_EQ(naive.wedge_slope(2), 2);

  EXPECT_FALSE(require_kernel(Method::MultipleLoads, 2, Isa::Avx2).tileable(1));
  EXPECT_FALSE(require_kernel(Method::DataReorg, 1, Isa::Avx2).tileable(1));
  // DLT tiles in 2-D/3-D but never in 1-D (lifted-seam coupling).
  EXPECT_TRUE(require_kernel(Method::DLT, 2, Isa::Avx2).tileable(1));
  EXPECT_FALSE(require_kernel(Method::DLT, 1, Isa::Avx2).tileable(1));
}

TEST(Registry, TiledPathShapeGuards) {
  // DLT needs a full stencil of lifted rows: engages at nx = 64, not 8.
  const KernelInfo& dlt = require_kernel(Method::DLT, 2, Isa::Avx2);
  EXPECT_TRUE(tiled_path_engages(dlt, 1, 0, 64));
  EXPECT_FALSE(tiled_path_engages(dlt, 1, 0, 8));
  // The 1-D source term widens the wedge reads past the vector window.
  const KernelInfo& folded1 = require_kernel(Method::Ours2, 1, Isa::Avx2);
  EXPECT_TRUE(tiled_path_engages(folded1, 1, 1, 1000));
  EXPECT_FALSE(tiled_path_engages(folded1, 1, 3, 1000));
}

// The measure-once contract: the first tuned run measures and stores
// exactly once; the second run of the same configuration (same Solver or a
// fresh one) reuses the cached geometry without re-measuring.
TEST(Tuner, CachedPlanReusedWithoutRemeasure) {
  TuneCache& cache = TuneCache::instance();
  cache.clear();
  const long before = cache.stored_count();

  Solver s = Solver::make(Preset::Heat2D)
                 .size(256, 192)
                 .steps(12)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(2)
                 .tune(true);
  s.run();
  EXPECT_EQ(cache.stored_count(), before + 1);
  EXPECT_EQ(s.plan().source, PlanSource::Tuned);
  const int tuned_tile = s.plan().tile.tile;
  EXPECT_GT(tuned_tile, 0);

  // Same Solver again: the plan is already tuned, nothing re-measures.
  s.run();
  EXPECT_EQ(cache.stored_count(), before + 1);

  // A fresh Solver for the same configuration recalls the cached geometry
  // at plan time and never measures.
  Solver again = Solver::make(Preset::Heat2D)
                     .size(256, 192)
                     .steps(12)
                     .method(Method::Ours2)
                     .tiling(Tiling::On)
                     .threads(2)
                     .tune(true);
  EXPECT_EQ(again.plan().source, PlanSource::Cached);
  EXPECT_EQ(again.plan().tile.tile, tuned_tile);
  again.run();
  EXPECT_EQ(cache.stored_count(), before + 1);

  // A different shape is a different key: it measures (once) again.
  Solver other = Solver::make(Preset::Heat2D)
                     .size(192, 256)
                     .steps(12)
                     .method(Method::Ours2)
                     .tiling(Tiling::On)
                     .threads(2)
                     .tune(true);
  other.run();
  EXPECT_EQ(cache.stored_count(), before + 2);
  cache.clear();
}

// The search measures (tile × time_block) pairs and candidate thread
// counts, not just tile extents: whatever wins, the recorded geometry is a
// fully-specified pair (and optionally a thread count) that deploys as a
// blocked wedge schedule — and re-deploys identically from the cache.
TEST(Tuner, RecordsPairAndThreadAxis) {
  TuneCache& cache = TuneCache::instance();
  cache.clear();

  Solver s = Solver::make(Preset::Heat2D)
                 .size(320, 256)
                 .steps(16)
                 .method(Method::Ours2)
                 .tiling(Tiling::On)
                 .threads(2)
                 .tune(true);
  s.run();
  EXPECT_EQ(s.plan().source, PlanSource::Tuned);

  // The stored entry is keyed on the *requested* resolved thread count...
  const TuneKey key = make_tune_key(s.kernel(), 1, 320, 256, 1, 16, 2);
  auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_GT(hit->tile, 0);
  EXPECT_GT(hit->time_block, 0);  // the pair was recorded, not re-derived
  // ...and its thread axis either kept the request (0) or settled on a
  // strictly smaller measured count.
  EXPECT_GE(hit->threads, 0);
  EXPECT_LE(hit->threads, 2);
  // Whatever was recorded deploys: the executed plan carries it.
  EXPECT_EQ(s.plan().tile.tile, hit->tile);
  EXPECT_EQ(s.plan().tile.time_block, hit->time_block);
  if (hit->threads > 0) EXPECT_EQ(s.plan().tile.threads, hit->threads);

  // A fresh Solver recalls and deploys the identical geometry.
  Solver again = Solver::make(Preset::Heat2D)
                     .size(320, 256)
                     .steps(16)
                     .method(Method::Ours2)
                     .tiling(Tiling::On)
                     .threads(2)
                     .tune(true);
  EXPECT_EQ(again.plan().source, PlanSource::Cached);
  EXPECT_EQ(again.plan().tile.tile, s.plan().tile.tile);
  EXPECT_EQ(again.plan().tile.time_block, s.plan().tile.time_block);
  EXPECT_EQ(again.plan().tile.threads, s.plan().tile.threads);
  cache.clear();
}

TEST(Tuner, TunedRunStaysExact) {
  TuneCache::instance().clear();
  RunResult r = Solver::make(Preset::Box2D9)
                    .size(128, 96)
                    .steps(10)
                    .method(Method::Ours2)
                    .tiling(Tiling::On)
                    .threads(2)
                    .tune(true)
                    .run_verified();
  EXPECT_GE(r.max_error, 0.0);
  EXPECT_LE(r.max_error, 1e-10);
  TuneCache::instance().clear();
}

TEST(Tuner, DiskRoundTrip) {
  TuneCache a;
  const TuneKey key =
      make_tune_key(require_kernel(Method::Ours2, 2, Isa::Avx2), /*radius=*/1,
                    128, 96, 1, 10, 4);
  a.store(key, TunedGeometry{40, 6});
  // A measured thread count is the last v2 column and round-trips too.
  const TuneKey threaded =
      make_tune_key(require_kernel(Method::Ours2, 2, Isa::Avx2), 1, 256, 96,
                    1, 10, 4);
  a.store(threaded, TunedGeometry{48, 8, 2});
  const std::string path =
      ::testing::TempDir() + "sf_tune_cache_roundtrip.txt";
  ASSERT_TRUE(a.save_file(path));
  {
    // Every entry line carries the v2 tag (the header is a comment).
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[256];
    int entries = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (line[0] == '#') continue;
      EXPECT_EQ(std::string(line).rfind("v2 ", 0), 0u) << line;
      ++entries;
    }
    std::fclose(f);
    EXPECT_EQ(entries, 2);
  }

  TuneCache b;
  EXPECT_EQ(b.load_file(path), 2u);
  auto hit = b.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tile, 40);
  EXPECT_EQ(hit->time_block, 6);
  EXPECT_EQ(hit->threads, 0);
  auto thr = b.lookup(threaded);
  ASSERT_TRUE(thr.has_value());
  EXPECT_EQ(*thr, (TunedGeometry{48, 8, 2}));

  // Later lines win: an appended update shadows its predecessor, which is
  // how the append-only SF_TUNE_CACHE persistence upgrades entries.
  {
    TuneCache c;
    c.store(key, TunedGeometry{56, 8});
    const std::string tmp = path + ".updated";
    ASSERT_TRUE(c.save_file(tmp));
    std::FILE* in = std::fopen(tmp.c_str(), "r");
    std::FILE* out = std::fopen(path.c_str(), "a");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    char buf[256];
    while (std::fgets(buf, sizeof buf, in) != nullptr) std::fputs(buf, out);
    std::fclose(in);
    std::fclose(out);
    std::remove(tmp.c_str());
  }
  TuneCache d;
  EXPECT_GE(d.load_file(path), 1u);
  auto updated = d.lookup(key);
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(updated->tile, 56);
  EXPECT_EQ(updated->time_block, 8);
  std::remove(path.c_str());
}

TEST(Tuner, UnparsableLinesAreSkipped) {
  const std::string path = ::testing::TempDir() + "sf_tune_cache_bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# comment\n", f);
  std::fputs("garbage line\n", f);
  std::fputs("v2 ours-2step 1 2 1 128 96 1 10 4 40 6 2\n", f);
  std::fputs("v2 ours-2step 1 2 1 64 64 1 10 4 40 0 0\n", f);  // bad tb
  std::fputs("v2 ours-2step 1 2 1 64 96 1 10 4 40 6\n", f);  // short
  // Retired formats: v1 (no tuned_threads), v3 (plus levels and leaf).
  std::fputs("v1 ours-2step 1 2 1 256 96 1 10 4 40 6\n", f);
  std::fputs("v3 ours-2step 1 2 1 384 96 1 10 4 40 6 2 2 8\n", f);
  std::fputs("v0 wrong tag 0 0 0 0 0 0 0 0 0\n", f);
  std::fclose(f);
  TuneCache c;
  EXPECT_EQ(c.load_file(path), 1u);
  EXPECT_EQ(c.size(), 1u);
  const KernelInfo& k = require_kernel(Method::Ours2, 2, Isa::Avx2);
  auto v2 = c.lookup(make_tune_key(k, 1, 128, 96, 1, 10, 4));
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->threads, 2);
  EXPECT_FALSE(c.lookup(make_tune_key(k, 1, 256, 96, 1, 10, 4)).has_value());
  EXPECT_FALSE(c.lookup(make_tune_key(k, 1, 384, 96, 1, 10, 4)).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sf
