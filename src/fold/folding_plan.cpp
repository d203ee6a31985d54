#include "fold/folding_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "linalg/least_squares.hpp"

namespace sf {

namespace {

long nnz(const std::vector<double>& v) {
  long n = 0;
  for (double x : v) n += x != 0.0;
  return n;
}

/// Shared planner body: `columns[i]` is the column weight vector for key
/// (dz,dx) = keys[i]; visits columns outermost-first.
FoldingPlan plan_columns(int m, int radius,
                         const std::vector<std::pair<int, int>>& keys,
                         const std::vector<std::vector<double>>& columns) {
  FoldingPlan plan;
  plan.m = m;
  plan.radius = radius;

  const int h = 2 * radius + 1;
  // Impulse basis vector: the raw (unfolded) rows of the original square,
  // realizing the bias b_n of Eq. 7. Only offered to the regression, charged
  // in the cost model if used.
  std::vector<double> impulse(h, 0.0);
  impulse[radius] = 1.0;

  // Visit order: |dx| (then |dz|) descending, so the outermost column becomes
  // counterpart c1 exactly as in the paper's worked example.
  std::vector<int> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int ra = std::abs(keys[a].second), rb = std::abs(keys[b].second);
    if (ra != rb) return ra > rb;
    if (keys[a].second != keys[b].second) return keys[a].second < keys[b].second;
    return keys[a].first < keys[b].first;
  });

  for (int i : order) {
    const auto& col = columns[i];
    if (nnz(col) == 0) continue;
    const auto [dz, dx] = keys[i];

    // Try to express this column with the existing counterparts (+ impulse).
    std::vector<std::vector<double>> basis_and_impulse = plan.basis;
    basis_and_impulse.push_back(impulse);
    LsqFit fit = least_squares(basis_and_impulse, col);

    if (fit.exact && !plan.basis.empty()) {
      for (std::size_t b = 0; b < plan.basis.size(); ++b)
        if (fit.coeff[b] != 0.0)
          plan.terms.push_back({dz, dx, static_cast<int>(b), fit.coeff[b]});
      const double bias = fit.coeff.back();
      if (bias != 0.0) {
        plan.terms.push_back({dz, dx, -1, bias});
        plan.uses_impulse = true;
      }
    } else {
      // New counterpart: the column itself becomes a basis vector.
      plan.basis.push_back(col);
      plan.terms.push_back({dz, dx, static_cast<int>(plan.basis.size()) - 1, 1.0});
    }
  }
  return plan;
}

}  // namespace

long FoldingPlan::vec_collect() const {
  // Counting rule (docs/ARCHITECTURE.md#the-fold-cost-counting-rule,
  // validated against the paper's §3.3 example): each basis column costs
  // one ⟨grid,weight⟩ pair per non-zero entry (the vertical folding), each
  // horizontal term one pair, except that the defining use of each basis
  // column is free (the vertical folding result is consumed directly).
  long c = 0;
  for (const auto& b : basis) c += nnz(b);
  c += static_cast<long>(terms.size());
  c -= static_cast<long>(basis.size());
  return c;
}

FoldingPlan plan_folding(const Pattern2D& p, int m) {
  const Pattern2D lambda = power(p, m);
  const int R = lambda.radius();
  const int h = 2 * R + 1;

  std::vector<std::pair<int, int>> keys;
  std::vector<std::vector<double>> cols;
  for (int dx = -R; dx <= R; ++dx) {
    std::vector<double> col(h, 0.0);
    for (int dy = -R; dy <= R; ++dy) col[dy + R] = lambda.weight_at({dy, dx});
    keys.emplace_back(0, dx);
    cols.push_back(std::move(col));
  }
  return plan_columns(m, R, keys, cols);
}

FoldingPlan plan_folding(const Pattern3D& p, int m) {
  const Pattern3D lambda = power(p, m);
  const int R = lambda.radius();
  const int h = 2 * R + 1;

  std::vector<std::pair<int, int>> keys;
  std::vector<std::vector<double>> cols;
  for (int dz = -R; dz <= R; ++dz)
    for (int dx = -R; dx <= R; ++dx) {
      std::vector<double> col(h, 0.0);
      for (int dy = -R; dy <= R; ++dy)
        col[dy + R] = lambda.weight_at({dz, dy, dx});
      keys.emplace_back(dz, dx);
      cols.push_back(std::move(col));
    }
  return plan_columns(m, R, keys, cols);
}

}  // namespace sf
