// Internal declarations shared between kernels2d.cpp (baselines + 1-step
// transpose layout) and folded2d.cpp (temporal folding). Not part of the
// public API.
//
// Layout contract of the run_* entry points: views tagged Layout::Natural
// are transformed into the kernel's working layout on entry and back on
// exit; views tagged with the kernel's preferred layout (Transposed for
// run_ours1_2d — see KernelInfo::preferred_layout) are executed in place
// with the per-call involution skipped. The step_/advance region functions
// below always require data already in the working layout.
#pragma once

#include "fold/folding_plan.hpp"
#include "grid/grid.hpp"
#include "kernels/fold_shape.hpp"
#include "stencil/pattern.hpp"

namespace sf::detail {

void run_naive2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps);

template <int W>
void run_ml2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps);
template <int W>
void run_dr2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps);
template <int W>
void run_dlt2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps);
template <int W>
void run_ours1_2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps);
template <int W>
void run_ours2_2d(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps);

/// Ours2 with the shifts-reuse ring buffer disabled (each vector set's
/// counterparts recomputed from scratch) — the §3.4 ablation.
template <int W>
void run_ours2_2d_noreuse(const Pattern2D& p, const FieldView2D& a, const FieldView2D& b, int tsteps);

/// One multiple-loads time step over a rectangular region (used by the
/// folded kernel's odd-step remainder and by the tiling framework).
template <int W>
void step_region_ml2d(const Pattern2D& p, const FieldView2D& in, const FieldView2D& out,
                      int y0, int y1, int x0, int x1);

/// One transpose-layout step over rows [y0, y1); grids must be in transpose
/// layout and r <= min(W, 4).
template <int W>
void step_rows_tl2d(const Pattern2D& p, const FieldView2D& in, const FieldView2D& out, int y0,
                    int y1);

/// One DLT step over rows [y0, y1); grids must be lifted and nx/W >= 2r+1.
template <int W>
void step_rows_dlt2d(const Pattern2D& p, const FieldView2D& in, const FieldView2D& out, int y0,
                     int y1);

/// One folded (m = 2) advance over rows [ry0, ry1), vectorized per the
/// paper's Fig. 5 pipeline (full grid: ry0 = 0, ry1 = ny). `reuse` toggles
/// the shifts-reuse ring buffer. `dispatch` picks the compiled fold shape
/// matching `plan` (default) or forces the dynamic one; both give the same
/// bits. Requires plan.radius <= min(W, 4). Thread-safe across disjoint row
/// ranges (ring corrections use private buffers).
///
/// Correctness over a partial row range relies on the caller guaranteeing
/// (as split tiling's wedge slopes do) that `in` holds time-t values on
/// rows [ry0 - 2r, ry1 + 2r).
template <int W>
void folded2d_advance(const Pattern2D& p, const FoldingPlan& plan,
                      const Pattern2D& lambda, const FieldView2D& in, const FieldView2D& out,
                      bool reuse, int ry0, int ry1,
                      FoldDispatch dispatch = FoldDispatch::Match);

/// Name of the compiled 2-D fold shape `plan` runs with ("2D-Heat",
/// "2D9P"), or nullptr when it runs the dynamic shape.
const char* folded2d_shape(const FoldingPlan& plan);

}  // namespace sf::detail
