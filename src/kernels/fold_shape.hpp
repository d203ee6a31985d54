// Fold shapes: the structure of a folding plan as a kernel template
// parameter (paper §3.3–3.4).
//
// A FoldingPlan carries two kinds of data. Its *structure* is the fold
// radius R, the counterpart sources (the basis columns, plus the impulse
// rows when a term uses them), each basis column's nonzero rows, and the
// horizontal term positions (dz, dx, source). Its *values* are the basis
// weights and the term coefficients. The folded kernels (folded2d.cpp,
// folded3d.cpp) are written once per dimensionality over a Shape that
// supplies the structure:
//
//  * FoldShape<R, Impulse, BasisMasks<...>, FoldAt<dz, dx, src>...> fixes it
//    at compile time: every loop over sources, rows and terms unrolls with
//    constant positions, and the zero-weight skips of the vertical fold
//    vanish from the generated code;
//  * DynamicFold reads it from the plan at run time, for plans no compiled
//    shape matches (GameOfLife, GB, 3D27P, user stencils).
//
// Values stay runtime data in both; FoldValues broadcasts them once per call.
// A plan runs a compiled shape only when its structure equals the shape
// exactly (fold_shape_matches). The structure depends on the weights as well
// as on the taps, so two stencils with equal tap sets may fold differently.
// Both kinds of shape drive the same loop nests in the same order, so a plan
// gives bitwise-identical results through its compiled shape and through
// DynamicFold.
#pragma once

#include <array>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "fold/folding_plan.hpp"
#include "simd/vecd.hpp"

namespace sf::detail {

/// One horizontal term's position: source plane offset, column offset and
/// counterpart source (basis index; nbasis names the impulse rows).
struct FoldTermPos {
  int dz, dx, src;
};

/// Which shape folded{2,3}d_advance runs a plan with: the compiled shape
/// whose structure equals the plan's when there is one (Match), or always
/// the dynamic shape (Dynamic, the differential tests' reference path).
enum class FoldDispatch { Match, Dynamic };

template <class F, int... I>
inline void unroll_seq(F& f, std::integer_sequence<int, I...>) {
  (f(std::integral_constant<int, I>{}), ...);
}

/// Calls f(std::integral_constant<int, I>{}) for I = 0 .. N-1.
template <int N, class F>
inline void unroll(F&& f) {
  unroll_seq(f, std::make_integer_sequence<int, N>{});
}

/// Nonzero rows of a basis column, bit dy + R for row offset dy.
inline unsigned nonzero_mask(const std::vector<double>& column) {
  unsigned m = 0;
  for (std::size_t d = 0; d < column.size(); ++d)
    if (column[d] != 0.0) m |= 1u << d;
  return m;
}

/// Counterpart source of a plan term: its basis index, or nbasis for the
/// impulse rows.
inline int term_source(const FoldingPlan& plan, const FoldTerm& t) {
  return t.basis_id >= 0 ? t.basis_id : static_cast<int>(plan.basis.size());
}

template <unsigned... M>
struct BasisMasks {};
template <int Dz, int Dx, int Src>
struct FoldAt {};

template <int R_, bool Impulse, class Masks, class... Terms>
struct FoldShape;

/// Compile-time fold shape: radius, impulse use, one nonzero-row mask per
/// basis column (bit dy + R), and the term positions in plan order.
template <int R_, bool Impulse, unsigned... M, int... Dz, int... Dx, int... Src>
struct FoldShape<R_, Impulse, BasisMasks<M...>, FoldAt<Dz, Dx, Src>...> {
  static constexpr bool kCompiled = true;
  static constexpr int R = R_;
  static constexpr int nbasis = static_cast<int>(sizeof...(M));
  static constexpr bool impulse = Impulse;
  static constexpr int nsrc = nbasis + (Impulse ? 1 : 0);
  static constexpr int nterms = static_cast<int>(sizeof...(Dz));
  // Array extents for FoldValues and the kernels' scratch.
  static constexpr int kRCap = R, kSrcCap = nsrc, kTermCap = nterms;

  static constexpr unsigned kMasks[nbasis] = {M...};
  static constexpr FoldTermPos kTerms[nterms] = {{Dz, Dx, Src}...};
  static constexpr unsigned mask(int s) { return kMasks[s]; }
  static constexpr FoldTermPos term(int t) { return kTerms[t]; }
};

/// True when `plan`'s structure equals compiled shape S: same radius,
/// sources, nonzero rows per basis column, and terms in the same order.
template <class S>
bool fold_shape_matches(const FoldingPlan& plan) {
  if (plan.radius != S::R || static_cast<int>(plan.basis.size()) != S::nbasis ||
      plan.uses_impulse != S::impulse ||
      static_cast<int>(plan.terms.size()) != S::nterms)
    return false;
  for (int s = 0; s < S::nbasis; ++s)
    if (nonzero_mask(plan.basis[static_cast<std::size_t>(s)]) != S::mask(s))
      return false;
  for (int t = 0; t < S::nterms; ++t) {
    const FoldTerm& ft = plan.terms[static_cast<std::size_t>(t)];
    const FoldTermPos want = S::term(t);
    if (ft.dz != want.dz || ft.dx != want.dx || term_source(plan, ft) != want.src)
      return false;
  }
  return true;
}

/// Run-time fold shape read from a plan, for plans no compiled shape
/// matches. The caps bound the scratch arrays; a plan beyond them throws.
template <int MaxR, int MaxSrc, int MaxTerms>
struct DynamicFold {
  static constexpr bool kCompiled = false;
  static constexpr const char* name = nullptr;
  static constexpr int kRCap = MaxR, kSrcCap = MaxSrc, kTermCap = MaxTerms;
  int R = 0, nbasis = 0, nsrc = 0, nterms = 0;
  std::array<unsigned, MaxSrc> masks{};
  std::array<FoldTermPos, MaxTerms> terms{};

  explicit DynamicFold(const FoldingPlan& plan)
      : R(plan.radius),
        nbasis(static_cast<int>(plan.basis.size())),
        nsrc(nbasis + (plan.uses_impulse ? 1 : 0)),
        nterms(static_cast<int>(plan.terms.size())) {
    if (R > MaxR || nsrc > MaxSrc || nterms > MaxTerms)
      throw std::logic_error("folding plan exceeds the dynamic fold shape");
    for (int s = 0; s < nbasis; ++s)
      masks[static_cast<std::size_t>(s)] =
          nonzero_mask(plan.basis[static_cast<std::size_t>(s)]);
    for (int t = 0; t < nterms; ++t) {
      const FoldTerm& ft = plan.terms[static_cast<std::size_t>(t)];
      terms[static_cast<std::size_t>(t)] = {ft.dz, ft.dx, term_source(plan, ft)};
    }
  }
  unsigned mask(int s) const { return masks[static_cast<std::size_t>(s)]; }
  FoldTermPos term(int t) const { return terms[static_cast<std::size_t>(t)]; }
};

/// The compiled shapes of one dimensionality, in lookup order.
template <class... Shapes>
struct FoldShapes {};

/// Calls f(shape) with the first of the compiled `Shapes` that `plan`
/// matches, or with Dynamic(plan) when none does (or `d` asks for it).
template <class Dynamic, class... Shapes, class F>
void with_fold_shape(FoldShapes<Shapes...>, const FoldingPlan& plan,
                     FoldDispatch d, F&& f) {
  bool done = false;
  if (d == FoldDispatch::Match)
    ((done = done || (fold_shape_matches<Shapes>(plan) && (f(Shapes{}), true))), ...);
  if (!done) f(Dynamic(plan));
}

// Loops over a shape's sources, row offsets (d = dy + R) and terms: unrolled
// with constant indices for compiled shapes, plain loops otherwise.
template <class Shape, class F>
inline void for_src(const Shape& sh, F&& f) {
  if constexpr (Shape::kCompiled) {
    unroll<Shape::nsrc>(f);
  } else {
    for (int s = 0; s < sh.nsrc; ++s) f(s);
  }
}
template <class Shape, class F>
inline void for_row_offset(const Shape& sh, F&& f) {
  if constexpr (Shape::kCompiled) {
    unroll<2 * Shape::R + 1>(f);
  } else {
    for (int d = 0; d <= 2 * sh.R; ++d) f(d);
  }
}
template <class Shape, class F>
inline void for_term(const Shape& sh, F&& f) {
  if constexpr (Shape::kCompiled) {
    unroll<Shape::nterms>(f);
  } else {
    for (int t = 0; t < sh.nterms; ++t) f(t);
  }
}

/// A plan's values, broadcast once per call: basis weights by (source,
/// dy + R) and term coefficients in plan order.
template <int W, class Shape>
struct FoldValues {
  simd::vecd<W> bw[Shape::kSrcCap][2 * Shape::kRCap + 1];
  simd::vecd<W> cw[Shape::kTermCap];

  FoldValues(const Shape& sh, const FoldingPlan& plan) {
    for (int s = 0; s < sh.nbasis; ++s)
      for (int d = 0; d <= 2 * sh.R; ++d)
        bw[s][d] = simd::vecd<W>::set1(
            plan.basis[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)]);
    for (int t = 0; t < sh.nterms; ++t)
      cw[t] = simd::vecd<W>::set1(plan.terms[static_cast<std::size_t>(t)].coeff);
  }
};

/// Vertical folding of source `s` over one W x W square (paper §3.3):
/// vf[i] = Σ_dy λ_s(dy) · row(i + dy) for a basis column, vf[i] = row(i) for
/// the impulse rows. `row(k)` points at the square's first column in band
/// row k, k in [-R, W + R). One source at a time keeps W accumulators and
/// one weight live, which fits the 16 vector registers of either ISA.
template <int W, class Shape, class Src, class Row>
inline void fold_source(const Shape& sh, Src s, const FoldValues<W, Shape>& val,
                        const Row& row, simd::vecd<W> (&vf)[W]) {
  using V = simd::vecd<W>;
  if (s == sh.nbasis) {
    unroll<W>([&](auto i) { vf[i] = V::loadu(row(i)); });
    return;
  }
  unroll<W>([&](auto i) { vf[i] = V::zero(); });
  // Per accumulator the rows enter in ascending dy, the order every shape
  // shares.
  for_row_offset(sh, [&](auto d) {
    if (((sh.mask(s) >> d) & 1u) == 0) return;
    const V w = val.bw[s][d];
    unroll<W>([&](auto i) { vf[i] = V::fma(w, V::loadu(row(i + d - sh.R)), vf[i]); });
  });
}

/// Counterpart columns of every source at one column x over a band's W
/// rows, for the x-halo and alignment-edge columns the W x W squares do not
/// cover: store(s, v) receives source s's column vector. `at(k)` reads band
/// row k of the column, k in [-R, W + R). The column is gathered once; each
/// lane then takes the same FMAs, in the same order, as fold_source gives an
/// interior column.
template <int W, class Shape, class At, class Store>
inline void fold_edge_column(const Shape& sh, const FoldValues<W, Shape>& val,
                             const At& at, const Store& store) {
  using V = simd::vecd<W>;
  alignas(64) double col[W + 2 * Shape::kRCap];
  for (int k = -sh.R; k < W + sh.R; ++k) col[k + sh.R] = at(k);
  for_src(sh, [&](auto s) {
    if (s == sh.nbasis) {
      store(s, V::loadu(col + sh.R));
      return;
    }
    V v = V::zero();
    for_row_offset(sh, [&](auto d) {
      if (((sh.mask(s) >> d) & 1u) != 0) v = V::fma(val.bw[s][d], V::loadu(col + d), v);
    });
    store(s, v);
  });
}

}  // namespace sf::detail
