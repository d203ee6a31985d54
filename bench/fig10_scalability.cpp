// Figure 10: scalability of the tiled methods from 1 core up to the
// machine's hardware threads, for all nine benchmarks. One table per
// stencil, one row per core count, matching the paper's nine panels.
//
// `--pinned` (or SF_AFFINITY=compact|scatter) runs every configuration
// through the topology-pinned WorkerPool with first-touch workspaces —
// each worker's tiles placed on its own NUMA node — which is the setup
// under which the paper's near-linear scaling reproduces on multi-node
// machines. Default remains unpinned (identical results; placement only
// affects locality).
#include <cstring>
#include <iostream>

#include "bench_util/harness.hpp"

int main(int argc, char** argv) {
  using namespace sf;
  const bool full = bench_full();
  Affinity aff = env_affinity();
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--pinned") == 0 && aff == Affinity::None)
      aff = Affinity::Compact;
  const int maxthreads = hardware_threads();
  std::vector<int> cores;
  for (int c = 1; c < maxthreads; c *= 2) cores.push_back(c);
  cores.push_back(maxthreads);

  const auto& methods = bench::paper_competitors();

  std::vector<std::string> header{"cores", "affinity"};
  for (const auto& m : methods) header.push_back(m.label);

  // Machine-readable trajectory: every (stencil, method, cores) GFLOP/s
  // lands in BENCH_fig10.json alongside the CSVs (scripts/bench_summary.py
  // merges these across runs/PRs).
  std::vector<std::pair<std::string, double>> summary;
  for (const auto& spec : all_presets()) {
    Table t(header);
    std::cout << "Figure 10 (" << spec.name << "): GFLOP/s vs cores"
              << (aff != Affinity::None
                      ? std::string(" [") + affinity_name(aff) + "]"
                      : "")
              << "\n";
    for (int c : cores) {
      std::vector<std::string> row{std::to_string(c), affinity_name(aff)};
      for (const auto& m : methods) {
        if (m.isa == Isa::Avx512 && !cpu_has_avx512()) {
          row.push_back("-");
          continue;
        }
        Solver s = bench::competitor_solver(m, spec, full);
        s.threads(c).affinity(aff);
        const double gflops = s.run().gflops;
        summary.emplace_back(std::string(spec.name) + "." + m.label + ".c" +
                                 std::to_string(c),
                             gflops);
        row.push_back(Table::num(gflops));
      }
      t.add_row(row);
    }
    bench::emit(t, std::string("fig10_") + spec.name);
  }
  bench::emit_bench_json("fig10", summary);
  return 0;
}
