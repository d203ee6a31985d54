// Conway's Game of Life, two ways:
//  1. the *exact* rule, computed by applying the library's 8-point pattern
//     (neighbour count) and thresholding — verifies a glider's period-4
//     diagonal walk;
//  2. the paper's throughput benchmark: the arithmetic 8-point surrogate,
//     run with the folded multicore executor (see
//     docs/ARCHITECTURE.md#the-game-of-life-surrogate for why the exact
//     rule cannot be temporally folded).
//
//   $ ./game_of_life [n] [steps]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/solver.hpp"
#include "grid/grid_utils.hpp"
#include "stencil/reference.hpp"

int main(int argc, char** argv) {
  using namespace sf;
  const int n = argc > 1 ? std::atoi(argv[1]) : 1000;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 50;

  // --- Exact rule with a glider. ------------------------------------------
  // Count neighbours with the library's 8-point pattern, then threshold.
  Pattern2D count;
  for (int dy = -1; dy <= 1; ++dy)
    for (int dx = -1; dx <= 1; ++dx)
      if (dy != 0 || dx != 0) count.taps.push_back({{dy, dx}, 1.0});

  const int gn = 32;
  Grid2D world(gn, gn, 8), neigh(gn, gn, 8);
  // Glider at (1,1): moves one cell diagonally every 4 generations.
  world.at(1, 2) = 1;
  world.at(2, 3) = 1;
  world.at(3, 1) = world.at(3, 2) = world.at(3, 3) = 1;
  for (int t = 0; t < 8; ++t) {
    apply_pattern(count, world, neigh, 0, gn, 0, gn);
    for (int y = 0; y < gn; ++y)
      for (int x = 0; x < gn; ++x) {
        const int c = static_cast<int>(neigh.at(y, x) + 0.5);
        const bool alive = world.at(y, x) > 0.5;
        world.at(y, x) = (c == 3 || (alive && c == 2)) ? 1.0 : 0.0;
      }
  }
  // After 8 generations the glider pattern sits shifted by (2,2).
  const bool glider_ok = world.at(3, 4) > 0.5 && world.at(4, 5) > 0.5 &&
                         world.at(5, 3) > 0.5 && world.at(5, 4) > 0.5 &&
                         world.at(5, 5) > 0.5;
  std::cout << "glider after 8 generations " << (glider_ok ? "OK" : "WRONG")
            << "\n";

  // --- Throughput benchmark (paper's Game of Life row). -------------------
  Solver solver =
      Solver::make(Preset::Life).size(n, n).steps(steps).tiling(Tiling::On);
  RunResult ours = solver.method("ours-2step").run();
  RunResult tess = solver.method("naive").run();
  std::cout << "surrogate kernel " << n << "^2, T=" << steps << ": our-2step "
            << ours.gflops << " GFLOP/s vs tessellation " << tess.gflops
            << " GFLOP/s (" << ours.gflops / tess.gflops << "x)\n";
  return glider_ok ? 0 : 1;
}
