#include "core/engine.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/env.hpp"
#include "core/tuner.hpp"
#include "fold/cost_model.hpp"
#include "grid/grid_utils.hpp"
#include "layout/transpose_layout.hpp"
#include "telemetry/telemetry.hpp"
#include "tiling/split_tiling.hpp"

namespace sf {

// ---------------------------------------------------------------------------
// Auto method selection + flop accounting (shared by Engine and Solver).
// ---------------------------------------------------------------------------

double flops_per_step(const StencilSpec& spec, long nx, long ny, long nz) {
  double pts = static_cast<double>(nx);
  long f = 0;
  switch (spec.dims) {
    case 1:
      f = spec.p1.flops_per_point();
      if (spec.has_source) f += 2 * static_cast<long>(spec.src1.size());
      break;
    case 2:
      pts *= static_cast<double>(ny);
      f = spec.p2.flops_per_point();
      break;
    case 3:
      pts *= static_cast<double>(ny) * static_cast<double>(nz);
      f = spec.p3.flops_per_point();
      break;
    default:
      throw std::logic_error("bad dims");
  }
  return pts * static_cast<double>(f);
}

namespace {

bool fold_profitable(const StencilSpec& s, int m) {
  switch (s.dims) {
    case 1: return profitability(s.p1, m).index_vec() > 1.0;
    case 2: return profitability(s.p2, m).index_vec() > 1.0;
    default: return profitability(s.p3, m).index_vec() > 1.0;
  }
}

}  // namespace

Method auto_method(const StencilSpec& spec, Isa isa) {
  const int r = effective_radius(spec);
  // Deepest fold first: fold when the cost model says the folded collect
  // beats the naive expansion *and* the folded vector path engages at this
  // radius. Then the paper's single-step ordering (Table 2):
  // ours > dlt > data-reorg > multiple-loads > naive.
  const KernelInfo* folded = find_kernel(Method::Ours2, spec.dims, isa);
  if (folded != nullptr && folded->supports(r) &&
      fold_profitable(spec, folded->fold_depth))
    return Method::Ours2;
  for (Method m : {Method::Ours, Method::DLT, Method::DataReorg,
                   Method::MultipleLoads}) {
    const KernelInfo* k = find_kernel(m, spec.dims, isa);
    if (k != nullptr && k->supports(r)) return m;
  }
  return Method::Naive;
}

// ---------------------------------------------------------------------------
// Prepared state
// ---------------------------------------------------------------------------

namespace {

// The item of a single-grid entry point (run, advance, validate_views): a
// one-element batch on the caller's stack.
template <class Item>
using One = std::array<Item, 1>;

}  // namespace

struct PreparedStencil::State {
  StencilSpec spec;
  const KernelInfo* kernel = nullptr;
  int halo = 0;
  ExecutionPlan plan;
  long nx = 0, ny = 1, nz = 1;
  int tsteps = 0;
  Layout preferred = Layout::Natural;  // kernel's layout at this radius
  Layout accept = Layout::Natural;     // resident layout run() accepts
  HaloPolicy halo_policy = HaloPolicy::Sync;
  Affinity affinity = Affinity::None;  // resolved placement policy
  int threads = 0;                     // resolved request thread count (0 =
                                       // hardware); batch fan-out pool size
  std::uint64_t plan_key = 0;          // effective-request hash (batch key)
  std::shared_ptr<WorkerPool> pool;    // runtime pool of the tiled stages
                                       // (shared per (threads, affinity);
                                       // null for untiled/serial plans)

  // The one per-call path behind every run(), advance(), validate_views()
  // and advance_batch() overload, generic over the TileBatch{1,2,3}D item
  // type. `items` is a One<Item> for the single-grid entry points and the
  // caller's vector for advance_batch(); `entry` names the public entry
  // point in error messages. checked() runs the empty-handle, dims and
  // view checks; execute() adds the halo sync and the tiled / untiled /
  // fan-out dispatch.
  template <class Items>
  static const State& checked(const State* st, const char* entry,
                              const Items& items);
  template <class Items>
  static void execute(const State* st, const char* entry, const Items& items,
                      int nsteps);

  // Per-dimension leaves of that path.
  template <class Item>
  void check(const char* entry, const Item& it) const;
  void check_shape(const char* entry, const char* which,
                   const FieldView1D& v) const;
  void check_shape(const char* entry, const char* which,
                   const FieldView2D& v) const;
  void check_shape(const char* entry, const char* which,
                   const FieldView3D& v) const;
  const Pattern1D* source() const;
  void run_kernel(const TileBatch1D& it, int nsteps) const;
  void run_kernel(const TileBatch2D& it, int nsteps) const;
  void run_kernel(const TileBatch3D& it, int nsteps) const;
  void run_tiled(const One<TileBatch1D>& one, int nsteps) const;
  void run_tiled(const One<TileBatch2D>& one, int nsteps) const;
  void run_tiled(const One<TileBatch3D>& one, int nsteps) const;
  void run_tiled(const std::vector<TileBatch1D>& items, int nsteps) const;
  void run_tiled(const std::vector<TileBatch2D>& items, int nsteps) const;
  void run_tiled(const std::vector<TileBatch3D>& items, int nsteps) const;
};

const StencilSpec& PreparedStencil::spec() const { return st_->spec; }
const KernelInfo& PreparedStencil::kernel() const { return *st_->kernel; }
int PreparedStencil::halo() const { return st_->halo; }
const ExecutionPlan& PreparedStencil::plan() const { return st_->plan; }
long PreparedStencil::nx() const { return st_->nx; }
long PreparedStencil::ny() const { return st_->ny; }
long PreparedStencil::nz() const { return st_->nz; }
int PreparedStencil::tsteps() const { return st_->tsteps; }
Layout PreparedStencil::preferred_layout() const { return st_->preferred; }
Layout PreparedStencil::resident_layout() const { return st_->accept; }
HaloPolicy PreparedStencil::halo_policy() const { return st_->halo_policy; }
Affinity PreparedStencil::affinity() const { return st_->affinity; }
std::uint64_t PreparedStencil::plan_key() const { return st_->plan_key; }
const WorkerPool* PreparedStencil::pool() const { return st_->pool.get(); }

// ---------------------------------------------------------------------------
// View validation
// ---------------------------------------------------------------------------

namespace {

bool aligned64(const double* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 63u) == 0;
}

// `entry` names the public entry point that was called (run, advance,
// validate_views, advance_batch), so the message says where it came from.
[[noreturn]] void bad_view(const char* entry, const char* which,
                           const std::string& why) {
  throw std::invalid_argument(std::string("PreparedStencil::") + entry +
                              ": view '" + which + "' " + why);
}

// `accept` is the resident layout this preparation admits beyond Natural
// (ExecOptions::layout): Natural-tagged views are always valid (the kernel
// transforms in/out per call), accept-tagged views execute resident —
// provided their recorded layout width matches the prepared kernel's (the
// transforms permute differently per SIMD width, so a W=4-resident buffer
// handed to a W=8 kernel would be silently misread, never detectably).
template <class View>
void check_common(const char* entry, const char* which, const View& v,
                  int need_halo, Layout accept, int want_width) {
  if (!v.valid()) bad_view(entry, which, "is empty (default-constructed)");
  const Layout layout = v.layout();
  if (layout != Layout::Natural && layout != accept)
    bad_view(entry, which,
             std::string("is tagged ") + layout_name(layout) +
                 "; this preparation accepts " +
                 (accept == Layout::Natural
                      ? std::string("only natural-layout views (prepare with "
                                    "ExecOptions::layout = the kernel's "
                                    "preferred_layout() for resident "
                                    "execution)")
                      : std::string("natural or ") + layout_name(accept) +
                            " views (transform via to_resident_layout)"));
  if (layout != Layout::Natural && v.layout_width() != want_width) {
    std::ostringstream os;
    os << "is tagged " << layout_name(layout) << " for SIMD width "
       << v.layout_width() << " but the prepared kernel reads width "
       << want_width
       << "; transform via to_resident_layout on this handle (hand-tagged "
          "views must record the width: with_layout(layout, width))";
    bad_view(entry, which, os.str());
  }
  if (v.halo() < need_halo) {
    std::ostringstream os;
    os << "has halo " << v.halo() << " but the prepared kernel requires >= "
       << need_halo;
    bad_view(entry, which, os.str());
  }
  if (!aligned64(v.data()))
    bad_view(entry, which, "interior is not 64-byte aligned (allocate via Grid or "
                    "an aligned allocator)");
}

// The ping-pong pair must share one layout: the kernels treat both buffers
// as being in the same storage order throughout the run.
void check_same_layout(const char* entry, Layout a, Layout b) {
  if (a != b)
    bad_view(entry, "b",
             std::string("is tagged ") + layout_name(b) + " but 'a' is tagged " +
                 layout_name(a) + "; ping-pong buffers must share one layout");
}

// Addressable span of a view, as [lo, hi) byte-order addresses. Pointer
// order across distinct allocations is compared via uintptr_t, which every
// supported platform orders consistently.
struct Span {
  std::uintptr_t lo, hi;
};

Span span_of(const FieldView1D& v) {
  const double* lo = v.data() - v.halo();
  return {reinterpret_cast<std::uintptr_t>(lo),
          reinterpret_cast<std::uintptr_t>(v.data() + v.n() + v.halo())};
}

Span span_of(const FieldView2D& v) {
  const double* lo = v.row(-v.halo()) - v.halo();
  const double* hi = v.row(v.ny() + v.halo() - 1) + v.nx() + v.halo();
  return {reinterpret_cast<std::uintptr_t>(lo),
          reinterpret_cast<std::uintptr_t>(hi)};
}

Span span_of(const FieldView3D& v) {
  const double* lo = v.row(-v.halo(), -v.halo()) - v.halo();
  const double* hi = v.row(v.nz() + v.halo() - 1, v.ny() + v.halo() - 1) +
                     v.nx() + v.halo();
  return {reinterpret_cast<std::uintptr_t>(lo),
          reinterpret_cast<std::uintptr_t>(hi)};
}

template <class View>
void check_disjoint(const char* entry, const char* which, const View& v,
                    const char* other_name, const View& other) {
  const Span a = span_of(v), b = span_of(other);
  if (a.lo < b.hi && b.lo < a.hi)
    bad_view(entry, which, std::string("overlaps view '") + other_name +
                               "'; executors need disjoint buffers");
}

void check_extent(const char* entry, const char* which, const char* axis,
                  long have, long want) {
  if (have != want) {
    std::ostringstream os;
    os << "has " << axis << " = " << have << " but was prepared for "
       << want;
    bad_view(entry, which, os.str());
  }
}

void check_stride(const char* entry, const char* which, int stride, int nx,
                  int halo) {
  if (stride % 8 != 0) {
    std::ostringstream os;
    os << "has row stride " << stride
       << ", which is not a multiple of 8 doubles";
    bad_view(entry, which, os.str());
  }
  if (stride < nx + 2 * halo) {
    std::ostringstream os;
    os << "has row stride " << stride
       << " < nx + 2*halo = " << nx + 2 * halo
       << "; consecutive rows would alias";
    bad_view(entry, which, os.str());
  }
}

void check_plane_stride(const char* entry, const char* which,
                        std::size_t plane, int stride, int ny, int halo) {
  const std::size_t need =
      static_cast<std::size_t>(stride) * (ny + 2 * halo);
  if (plane % 8 != 0) {
    std::ostringstream os;
    os << "has plane stride " << plane
       << ", which is not a multiple of 8 doubles";
    bad_view(entry, which, os.str());
  }
  if (plane < need) {
    std::ostringstream os;
    os << "has plane stride " << plane << " < stride * (ny + 2*halo) = "
       << need << "; consecutive planes would alias";
    bad_view(entry, which, os.str());
  }
}

// The Dirichlet halo is input state on *both* ping-pong buffers (kernels
// read whichever buffer holds the current parity), so run() mirrors a's
// halo ring into b before executing. Interior cells are not touched —
// that is the zero-copy contract. The copy is positional, so it is valid
// in any resident layout as long as both buffers share one (validated):
// permute-then-copy and copy-then-permute produce identical bytes.
void sync_halo(const FieldView1D& a, const FieldView1D& b) {
  const int h = std::min(a.halo(), b.halo());
  for (int i = -h; i < 0; ++i) b.at(i) = a.at(i);
  for (int i = a.n(); i < a.n() + h; ++i) b.at(i) = a.at(i);
}

// O(surface), not O(volume): only the halo shell is copied — rows fully
// inside the halo slabs in full, interior rows just their x rims.
void sync_row_halo(const double* s, double* d, int nx, int h, bool full) {
  if (full) {
    for (int x = -h; x < nx + h; ++x) d[x] = s[x];
  } else {
    for (int x = -h; x < 0; ++x) d[x] = s[x];
    for (int x = nx; x < nx + h; ++x) d[x] = s[x];
  }
}

void sync_halo(const FieldView2D& a, const FieldView2D& b) {
  const int h = std::min(a.halo(), b.halo());
  for (int y = -h; y < a.ny() + h; ++y)
    sync_row_halo(a.row(y), b.row(y), a.nx(), h, y < 0 || y >= a.ny());
}

void sync_halo(const FieldView3D& a, const FieldView3D& b) {
  const int h = std::min(a.halo(), b.halo());
  for (int z = -h; z < a.nz() + h; ++z) {
    const bool halo_plane = z < 0 || z >= a.nz();
    for (int y = -h; y < a.ny() + h; ++y)
      sync_row_halo(a.row(z, y), b.row(z, y), a.nx(), h,
                    halo_plane || y < 0 || y >= a.ny());
  }
}

// Dimensionality of a batch item type.
template <class Item>
constexpr int kItemDims = 0;
template <>
constexpr int kItemDims<TileBatch1D> = 1;
template <>
constexpr int kItemDims<TileBatch2D> = 2;
template <>
constexpr int kItemDims<TileBatch3D> = 3;

}  // namespace

// ---------------------------------------------------------------------------
// Per-dimension leaves of the per-call path: the shape checks, the untiled
// kernel, and the tiled executor for one item or a batch.
// ---------------------------------------------------------------------------

void PreparedStencil::State::check_shape(const char* entry,
                                         const char* which,
                                         const FieldView1D& v) const {
  check_extent(entry, which, "n", v.n(), nx);
}

void PreparedStencil::State::check_shape(const char* entry,
                                         const char* which,
                                         const FieldView2D& v) const {
  check_extent(entry, which, "nx", v.nx(), nx);
  check_extent(entry, which, "ny", v.ny(), ny);
  check_stride(entry, which, v.stride(), v.nx(), v.halo());
}

void PreparedStencil::State::check_shape(const char* entry,
                                         const char* which,
                                         const FieldView3D& v) const {
  check_extent(entry, which, "nx", v.nx(), nx);
  check_extent(entry, which, "ny", v.ny(), ny);
  check_extent(entry, which, "nz", v.nz(), nz);
  check_stride(entry, which, v.stride(), v.nx(), v.halo());
  check_plane_stride(entry, which, v.plane_stride(), v.stride(), v.ny(),
                     v.halo());
}

template <class Item>
void PreparedStencil::State::check(const char* entry, const Item& it) const {
  const int width = kernel->width;
  check_common(entry, "a", it.a, halo, accept, width);
  check_common(entry, "b", it.b, halo, accept, width);
  check_same_layout(entry, it.a.layout(), it.b.layout());
  check_shape(entry, "a", it.a);
  check_shape(entry, "b", it.b);
  check_disjoint(entry, "b", it.b, "a", it.a);
  if constexpr (kItemDims<Item> == 1) {
    if (spec.has_source && it.k == nullptr)
      throw std::invalid_argument(
          std::string("PreparedStencil::") + entry +
          ": this stencil has a source term; use the overload taking the "
          "source view 'k'");
    if (!spec.has_source && it.k != nullptr)
      throw std::invalid_argument(
          std::string("PreparedStencil::") + entry +
          ": source view 'k' passed but the prepared stencil has no source "
          "term");
    if (it.k != nullptr) {
      // The source array's layout is independent of the pair's: a
      // natural-tagged k is copied+transformed per call, a resident-tagged
      // one is read zero-copy.
      check_common(entry, "k", *it.k, halo, accept, width);
      check_shape(entry, "k", *it.k);
      check_disjoint(entry, "k", *it.k, "a", it.a);
      check_disjoint(entry, "k", *it.k, "b", it.b);
    }
  }
}

const Pattern1D* PreparedStencil::State::source() const {
  return spec.has_source ? &spec.src1 : nullptr;
}

void PreparedStencil::State::run_kernel(const TileBatch1D& it,
                                        int nsteps) const {
  kernel->run1(spec.p1, it.a, it.b, source(), it.k, nsteps);
}
void PreparedStencil::State::run_kernel(const TileBatch2D& it,
                                        int nsteps) const {
  kernel->run2(spec.p2, it.a, it.b, nsteps);
}
void PreparedStencil::State::run_kernel(const TileBatch3D& it,
                                        int nsteps) const {
  kernel->run3(spec.p3, it.a, it.b, nsteps);
}

void PreparedStencil::State::run_tiled(const One<TileBatch1D>& one,
                                       int nsteps) const {
  run_tile_plan(spec.p1, one[0].a, one[0].b, source(), one[0].k, nsteps,
                plan.tile);
}
void PreparedStencil::State::run_tiled(const One<TileBatch2D>& one,
                                       int nsteps) const {
  run_tile_plan(spec.p2, one[0].a, one[0].b, nsteps, plan.tile);
}
void PreparedStencil::State::run_tiled(const One<TileBatch3D>& one,
                                       int nsteps) const {
  run_tile_plan(spec.p3, one[0].a, one[0].b, nsteps, plan.tile);
}
void PreparedStencil::State::run_tiled(const std::vector<TileBatch1D>& items,
                                       int nsteps) const {
  run_tile_plan_batch(spec.p1, items, source(), nsteps, plan.tile);
}
void PreparedStencil::State::run_tiled(const std::vector<TileBatch2D>& items,
                                       int nsteps) const {
  run_tile_plan_batch(spec.p2, items, nsteps, plan.tile);
}
void PreparedStencil::State::run_tiled(const std::vector<TileBatch3D>& items,
                                       int nsteps) const {
  run_tile_plan_batch(spec.p3, items, nsteps, plan.tile);
}

// ---------------------------------------------------------------------------
// The per-call path
// ---------------------------------------------------------------------------

template <class Items>
const PreparedStencil::State& PreparedStencil::State::checked(
    const State* st, const char* entry, const Items& items) {
  using Item = typename Items::value_type;
  if (st == nullptr)
    throw std::invalid_argument(std::string("PreparedStencil::") + entry +
                                " on an empty handle");
  if (st->spec.dims != kItemDims<Item>)
    throw std::invalid_argument(
        std::to_string(kItemDims<Item>) + "-D " + entry +
        "() on a stencil prepared for " + std::to_string(st->spec.dims) +
        "-D");
  // Every item is checked before any is touched: a batch with one bad item
  // leaves all of its fields as they were.
  for (const Item& it : items) st->check(entry, it);
  return *st;
}

template <class Items>
void PreparedStencil::State::execute(const State* st, const char* entry,
                                     const Items& items, int nsteps) {
  const State& s = checked(st, entry, items);
  if (s.halo_policy == HaloPolicy::Sync)
    for (const auto& it : items) sync_halo(it.a, it.b);
  if (s.plan.tiled) {
    s.run_tiled(items, nsteps);
  } else if (items.size() > 1 && s.threads != 1) {
    // Untiled plan: the batch *is* the parallelism — fan the independent
    // per-item kernel runs over the shared pool in one dispatch.
    shared_pool(s.threads, s.affinity)
        ->parallel_for(0, static_cast<int>(items.size()), [&](int i) {
          s.run_kernel(items[static_cast<std::size_t>(i)], nsteps);
        });
  } else {
    for (const auto& it : items) s.run_kernel(it, nsteps);
  }
}

// The public entry points: each builds its one item (or hands over the
// caller's batch) and forwards.

void PreparedStencil::run(FieldView1D a, FieldView1D b, int tsteps) const {
  State::execute(st_.get(), "run", One<TileBatch1D>{{{a, b, nullptr}}},
                 tsteps);
}
void PreparedStencil::run(FieldView1D a, FieldView1D b, FieldView1D k,
                          int tsteps) const {
  State::execute(st_.get(), "run",
                 One<TileBatch1D>{{{a, b, k.valid() ? &k : nullptr}}}, tsteps);
}
void PreparedStencil::run(FieldView2D a, FieldView2D b, int tsteps) const {
  State::execute(st_.get(), "run", One<TileBatch2D>{{{a, b}}}, tsteps);
}
void PreparedStencil::run(FieldView3D a, FieldView3D b, int tsteps) const {
  State::execute(st_.get(), "run", One<TileBatch3D>{{{a, b}}}, tsteps);
}

void PreparedStencil::advance(FieldView1D a, FieldView1D b,
                              int nsteps) const {
  State::execute(st_.get(), "advance", One<TileBatch1D>{{{a, b, nullptr}}},
                 nsteps);
}
void PreparedStencil::advance(FieldView1D a, FieldView1D b, FieldView1D k,
                              int nsteps) const {
  State::execute(st_.get(), "advance",
                 One<TileBatch1D>{{{a, b, k.valid() ? &k : nullptr}}}, nsteps);
}
void PreparedStencil::advance(FieldView2D a, FieldView2D b,
                              int nsteps) const {
  State::execute(st_.get(), "advance", One<TileBatch2D>{{{a, b}}}, nsteps);
}
void PreparedStencil::advance(FieldView3D a, FieldView3D b,
                              int nsteps) const {
  State::execute(st_.get(), "advance", One<TileBatch3D>{{{a, b}}}, nsteps);
}

void PreparedStencil::validate_views(FieldView1D a, FieldView1D b,
                                     const FieldView1D* k) const {
  State::checked(st_.get(), "validate_views", One<TileBatch1D>{{{a, b, k}}});
}
void PreparedStencil::validate_views(FieldView2D a, FieldView2D b) const {
  State::checked(st_.get(), "validate_views", One<TileBatch2D>{{{a, b}}});
}
void PreparedStencil::validate_views(FieldView3D a, FieldView3D b) const {
  State::checked(st_.get(), "validate_views", One<TileBatch3D>{{{a, b}}});
}

void PreparedStencil::advance_batch(const std::vector<TileBatch1D>& items,
                                    int nsteps) const {
  State::execute(st_.get(), "advance_batch", items, nsteps);
}
void PreparedStencil::advance_batch(const std::vector<TileBatch2D>& items,
                                    int nsteps) const {
  State::execute(st_.get(), "advance_batch", items, nsteps);
}
void PreparedStencil::advance_batch(const std::vector<TileBatch3D>& items,
                                    int nsteps) const {
  State::execute(st_.get(), "advance_batch", items, nsteps);
}

// ---------------------------------------------------------------------------
// First-touch initialization
// ---------------------------------------------------------------------------

namespace {

// Drives `fn(lo, hi)` over the tiled dimension's logical range
// [-halo, n_tiled + halo) either per placement — each owning worker
// handling exactly its tile rows/planes (plus the domain-end halo slabs
// abutting its tiles) — or serially on the calling thread when the plan has
// no pool or the view's tiled extent is not the prepared one.
// `pinned_only` additionally forces the serial path for unpinned
// (Affinity::None) pools: first-touch zeroing gains nothing from floating
// workers (pages would land on whatever node the OS scheduled them),
// whereas compute-bound callers (the pool-parallel layout transform) want
// the parallelism either way.
template <class Fn>
void split_over_placement(const ExecutionPlan& plan, WorkerPool* pool,
                          long n_tiled, long prepared_n, int halo,
                          bool pinned_only, Fn&& fn) {
  const PlacementPlan& place = plan.placement;
  if (pool == nullptr || place.workers == 0 ||
      (pinned_only && place.affinity == Affinity::None) ||
      n_tiled != prepared_n) {
    fn(-halo, n_tiled + halo);
    return;
  }
  const int tile = plan.tile.tile;
  pool->run([&](int w) {
    const auto [t0, t1] = place.tiles_of(w);
    if (t0 >= t1) return;
    long lo = static_cast<long>(t0) * tile;
    long hi = std::min<long>(n_tiled, static_cast<long>(t1) * tile);
    // The domain-end halo slabs belong to the workers whose tiles abut
    // them — they are read alongside those tiles every super-step.
    if (t0 == 0) lo = -halo;
    if (hi >= n_tiled) hi = n_tiled + halo;
    fn(lo, hi);
  });
}

template <class Zero>
void first_touch_split(const ExecutionPlan& plan, WorkerPool* pool,
                       long n_tiled, long prepared_n, int halo, Zero&& zero) {
  split_over_placement(plan, pool, n_tiled, prepared_n, halo,
                       /*pinned_only=*/true, std::forward<Zero>(zero));
}

}  // namespace

void PreparedStencil::first_touch(FieldView1D v) const {
  if (st_ == nullptr)
    throw std::invalid_argument("PreparedStencil::first_touch on an empty handle");
  const int h = v.halo();
  first_touch_split(st_->plan, st_->pool.get(), v.n(), st_->nx, h,
                    [&](long lo, long hi) {
                      std::memset(v.data() + lo, 0,
                                  static_cast<std::size_t>(hi - lo) *
                                      sizeof(double));
                    });
}

void PreparedStencil::first_touch(FieldView2D v) const {
  if (st_ == nullptr)
    throw std::invalid_argument("PreparedStencil::first_touch on an empty handle");
  const int h = v.halo();
  const std::size_t row_bytes =
      static_cast<std::size_t>(v.nx() + 2 * h) * sizeof(double);
  first_touch_split(st_->plan, st_->pool.get(), v.ny(), st_->ny, h,
                    [&](long lo, long hi) {
                      for (long y = lo; y < hi; ++y)
                        std::memset(v.row(static_cast<int>(y)) - h, 0,
                                    row_bytes);
                    });
}

void PreparedStencil::first_touch(FieldView3D v) const {
  if (st_ == nullptr)
    throw std::invalid_argument("PreparedStencil::first_touch on an empty handle");
  const int h = v.halo();
  const std::size_t row_bytes =
      static_cast<std::size_t>(v.nx() + 2 * h) * sizeof(double);
  first_touch_split(st_->plan, st_->pool.get(), v.nz(), st_->nz, h,
                    [&](long lo, long hi) {
                      for (long z = lo; z < hi; ++z)
                        for (int y = -h; y < v.ny() + h; ++y)
                          std::memset(v.row(static_cast<int>(z), y) - h, 0,
                                      row_bytes);
                    });
}

// ---------------------------------------------------------------------------
// Resident-layout conversion helpers
// ---------------------------------------------------------------------------

namespace {

// The in-place transform behind convert_layout(), placement-aware where the
// row/plane structure allows: 2-D rows and 3-D planes are independent, so
// the transform runs as a pool task over the plan's ownership map — each
// worker permutes the rows/planes of its own tiles, keeping the work where
// the pages live (and off the calling thread's node for fresh first-touched
// buffers). 1-D has no such split (the permutation works on W*W element
// blocks that tile boundaries would cut) and stays serial. Serial/untiled
// preparations and mismatched extents fall back to the caller's thread.
// The const_cast is sound: pool() returns const only as introspection
// hygiene; the pool object itself is the registry's mutable shared state.
void transform_view(const PreparedStencil& ps, const FieldView1D& v) {
  apply_transpose_layout(v, ps.kernel().width);
}

void transform_view(const PreparedStencil& ps, const FieldView2D& v) {
  WorkerPool* pool = const_cast<WorkerPool*>(ps.pool());
  split_over_placement(ps.plan(), pool, v.ny(), ps.ny(), v.halo(),
                       /*pinned_only=*/false, [&](long lo, long hi) {
                         apply_transpose_layout_rows(
                             v, ps.kernel().width, static_cast<int>(lo),
                             static_cast<int>(hi));
                       });
}

void transform_view(const PreparedStencil& ps, const FieldView3D& v) {
  WorkerPool* pool = const_cast<WorkerPool*>(ps.pool());
  split_over_placement(ps.plan(), pool, v.nz(), ps.nz(), v.halo(),
                       /*pinned_only=*/false, [&](long lo, long hi) {
                         apply_transpose_layout_planes(
                             v, ps.kernel().width, static_cast<int>(lo),
                             static_cast<int>(hi));
                       });
}

// Shared implementation of to_resident_layout()/to_natural_layout(): the
// preferred layouts are involutions (register transpose), so the same
// transform converts in either direction and only the tag bookkeeping
// differs.
template <class View>
View convert_layout(const PreparedStencil& ps, View v, bool to_resident,
                    const char* fn) {
  if (!ps.valid())
    throw std::invalid_argument(std::string(fn) +
                                ": empty PreparedStencil handle");
  if (!v.valid())
    throw std::invalid_argument(std::string(fn) + ": empty view");
  const Layout pref = ps.preferred_layout();
  if (pref == Layout::Natural) {
    if (v.layout() != Layout::Natural)
      throw std::invalid_argument(
          std::string(fn) + ": view is tagged " + layout_name(v.layout()) +
          " but the prepared kernel keeps data in natural layout");
    return v;  // nothing to convert to or from
  }
  // A non-natural view must have been transformed at *this* kernel's SIMD
  // width — the permutations differ per width, so converting (or handing
  // back, in the idempotent case) a foreign-width buffer would scramble it
  // undetectably.
  if (v.layout() != Layout::Natural &&
      v.layout_width() != ps.kernel().width) {
    std::ostringstream os;
    os << fn << ": view is tagged " << layout_name(v.layout())
       << " for SIMD width " << v.layout_width()
       << " but this handle's kernel uses width " << ps.kernel().width;
    throw std::invalid_argument(os.str());
  }
  const Layout want = to_resident ? pref : Layout::Natural;
  if (v.layout() == want) return v;  // idempotent
  const Layout from = to_resident ? Layout::Natural : pref;
  if (v.layout() != from)
    throw std::invalid_argument(
        std::string(fn) + ": view is tagged " + layout_name(v.layout()) +
        "; expected " + layout_name(from) + " (preferred layout is " +
        layout_name(pref) + ")");
  transform_view(ps, v);  // involution
  return v.with_layout(want,
                       want == Layout::Natural ? 0 : ps.kernel().width);
}

}  // namespace

FieldView1D to_resident_layout(const PreparedStencil& ps, FieldView1D v) {
  return convert_layout(ps, v, true, "to_resident_layout");
}
FieldView2D to_resident_layout(const PreparedStencil& ps, FieldView2D v) {
  return convert_layout(ps, v, true, "to_resident_layout");
}
FieldView3D to_resident_layout(const PreparedStencil& ps, FieldView3D v) {
  return convert_layout(ps, v, true, "to_resident_layout");
}
FieldView1D to_natural_layout(const PreparedStencil& ps, FieldView1D v) {
  return convert_layout(ps, v, false, "to_natural_layout");
}
FieldView2D to_natural_layout(const PreparedStencil& ps, FieldView2D v) {
  return convert_layout(ps, v, false, "to_natural_layout");
}
FieldView3D to_natural_layout(const PreparedStencil& ps, FieldView3D v) {
  return convert_layout(ps, v, false, "to_natural_layout");
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

template <int D>
std::uint64_t hash_pattern(std::uint64_t h, const Pattern<D>& p) {
  for (const auto& t : p.taps) {
    for (int d = 0; d < D; ++d)
      h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(t.off[d])));
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(t.w), "double is 64-bit");
    __builtin_memcpy(&bits, &t.w, sizeof(bits));
    h = fnv1a(h, bits);
  }
  return h;
}

std::uint64_t hash_spec(const StencilSpec& s) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, static_cast<std::uint64_t>(s.dims));
  switch (s.dims) {
    case 1: h = hash_pattern(h, s.p1); break;
    case 2: h = hash_pattern(h, s.p2); break;
    default: h = hash_pattern(h, s.p3); break;
  }
  h = fnv1a(h, s.has_source ? 1 : 0);
  if (s.has_source) h = hash_pattern(h, s.src1);
  return h;
}

// A negative extent or plan knob is a caller error, never a request for
// the default (that is 0): reject it before any fallback can swallow it.
void reject_negative(const char* field, long value) {
  if (value < 0)
    throw std::invalid_argument(std::string("Engine::prepare: ") + field +
                                " = " + std::to_string(value) +
                                " is negative (0 selects the default)");
}

// Field views hold extents and row strides as int. The largest extent they
// can take is INT_MAX less the widest halo any kernel registered for the
// stencil's dimensionality may ask for, on both sides, each side rounded up
// to the 8-double row padding (plus one more padding step for the stride's
// own round-up). A larger extent would be narrowed later, not rejected.
long max_view_extent(const StencilSpec& spec) {
  const int r = effective_radius(spec);
  long halo = 0;
  for (const KernelInfo* k : available_kernels(spec.dims))
    halo = std::max<long>(halo, k->required_halo(r));
  const long padded_halo = (halo + 7) / 8 * 8;
  return std::numeric_limits<int>::max() - 2 * padded_halo - 8;
}

void reject_beyond_int_view(const char* field, long value, long limit) {
  if (value > limit)
    throw std::invalid_argument(
        std::string("Engine::prepare: ") + field + " = " +
        std::to_string(value) + " exceeds " + std::to_string(limit) +
        ", the largest extent an int field view holds with this stencil's "
        "halo and row padding");
}

// Environment/preset fallback resolution shared by prepare() and
// plan_key(): the effective request is what both the plan-cache key and the
// plan-key hash are computed from, so an env change between calls is never
// served (or keyed as) a stale preparation. Bad input throws first.
void resolve_request(const StencilSpec& spec, Extents& ext, ExecOptions& opts,
                     int& tsteps) {
  reject_negative("Extents::nx", ext.nx);
  reject_negative("Extents::ny", ext.ny);
  reject_negative("Extents::nz", ext.nz);
  const long limit = max_view_extent(spec);
  reject_beyond_int_view("Extents::nx", ext.nx, limit);
  reject_beyond_int_view("Extents::ny", ext.ny, limit);
  reject_beyond_int_view("Extents::nz", ext.nz, limit);
  reject_negative("ExecOptions::tsteps", opts.tsteps);
  reject_negative("ExecOptions::threads", opts.threads);
  reject_negative("ExecOptions::tile", opts.tile);
  reject_negative("ExecOptions::time_block", opts.time_block);
  if (opts.affinity == Affinity::None) opts.affinity = env_affinity();
  if (opts.threads == 0) opts.threads = env_threads();
  if (ext.nx == 0) ext.nx = spec.small_size[0];
  if (ext.ny == 0) ext.ny = spec.dims >= 2 ? spec.small_size[1] : 1;
  if (ext.nz == 0) ext.nz = spec.dims >= 3 ? spec.small_size[2] : 1;
  tsteps = opts.tsteps > 0 ? opts.tsteps
                           : static_cast<int>(spec.small_tsteps);
}

// The plan key: FNV-1a over the full effective request. Equal keys mean
// prepare() would serve both requests from one cache entry (modulo hash
// collisions, which only cost a missed batching opportunity downstream —
// the serving batcher executes each group through a handle of that group,
// never across groups).
std::uint64_t request_key(std::uint64_t spec_hash, const Extents& ext,
                          int tsteps, const ExecOptions& o) {
  std::uint64_t h = fnv1a(1469598103934665603ull, spec_hash);
  h = fnv1a(h, static_cast<std::uint64_t>(ext.nx));
  h = fnv1a(h, static_cast<std::uint64_t>(ext.ny));
  h = fnv1a(h, static_cast<std::uint64_t>(ext.nz));
  h = fnv1a(h, static_cast<std::uint64_t>(tsteps));
  h = fnv1a(h, static_cast<std::uint64_t>(o.method));
  h = fnv1a(h, static_cast<std::uint64_t>(o.isa));
  h = fnv1a(h, static_cast<std::uint64_t>(o.tiling));
  h = fnv1a(h, static_cast<std::uint64_t>(o.threads));
  h = fnv1a(h, static_cast<std::uint64_t>(o.tile));
  h = fnv1a(h, static_cast<std::uint64_t>(o.time_block));
  h = fnv1a(h, static_cast<std::uint64_t>(o.layout));
  h = fnv1a(h, static_cast<std::uint64_t>(o.halo_policy));
  h = fnv1a(h, static_cast<std::uint64_t>(o.affinity));
  return h;
}

template <int D>
bool same_pattern(const Pattern<D>& a, const Pattern<D>& b) {
  if (a.taps.size() != b.taps.size()) return false;
  for (std::size_t i = 0; i < a.taps.size(); ++i) {
    if (a.taps[i].off != b.taps[i].off) return false;
    if (a.taps[i].w != b.taps[i].w) return false;
  }
  return true;
}

// Taps are kept sorted and offset-unique by the Pattern algebra, so
// element-wise comparison is a canonical equality test. Identity metadata
// (id, name) participates too: a pattern-identical custom spec must not be
// handed a cached state whose spec() reports another stencil's name.
bool same_spec(const StencilSpec& a, const StencilSpec& b) {
  if (a.id != b.id || a.name != b.name) return false;
  if (a.dims != b.dims || a.has_source != b.has_source) return false;
  if (a.has_source && !same_pattern(a.src1, b.src1)) return false;
  switch (a.dims) {
    case 1: return same_pattern(a.p1, b.p1);
    case 2: return same_pattern(a.p2, b.p2);
    default: return same_pattern(a.p3, b.p3);
  }
}

}  // namespace

struct Engine::CacheEntry {
  std::uint64_t spec_hash = 0;
  ExecOptions opts;
  long nx = 0, ny = 1, nz = 1;
  int tsteps = 0;
  // Per-key tuner dependence: a plan that consulted the TuneCache records
  // *which* key it asked about and what the lookup returned. The entry
  // stays valid exactly while that lookup still returns the same answer —
  // so tuning one configuration invalidates only the preparations that
  // actually read its entry, not every cached plan (the old scheme keyed
  // on the table-wide generation counter and evicted wholesale). Plans
  // that never consulted the tuner (untiled, or explicit tile/time_block)
  // are valid across any tuning activity.
  bool tuner_dependent = false;
  TuneKey tune_key;
  std::optional<TunedGeometry> tune_seen;
  std::shared_ptr<const PreparedStencil::State> state;
};

Engine& Engine::instance() {
  static Engine* e = new Engine();
  return *e;
}

PreparedStencil Engine::prepare(Preset p, Extents ext,
                                const ExecOptions& opts) {
  return prepare(preset(p), ext, opts);
}

PreparedStencil Engine::prepare(const StencilSpec& spec, Extents ext,
                                const ExecOptions& opts_in) {
  // Defaults mirror Solver::resolve(): each unset extent independently
  // falls back to the preset fast-run size. Unset runtime knobs pick up
  // their process-wide environment defaults here, so the cache key below
  // is the *effective* request and an env change between calls is never
  // served a stale preparation.
  ExecOptions opts = opts_in;
  int tsteps = 0;
  resolve_request(spec, ext, opts, tsteps);

  // Tiled auto-geometry plans read the TuneCache, so each cached
  // preparation snapshots the lookup it depended on; it is served only
  // while that per-key lookup still returns the same answer (see
  // CacheEntry). The request key itself includes every ExecOptions field —
  // the resident-layout axis and halo policy change run()-time behavior,
  // so preparations differing in them must not be shared.
  const std::uint64_t sh = hash_spec(spec);
  auto matches = [&](const CacheEntry& e) {
    return e.spec_hash == sh && e.nx == ext.nx && e.ny == ext.ny &&
           e.nz == ext.nz && e.tsteps == tsteps &&
           e.opts.method == opts.method && e.opts.isa == opts.isa &&
           e.opts.tiling == opts.tiling && e.opts.threads == opts.threads &&
           e.opts.tile == opts.tile &&
           e.opts.time_block == opts.time_block &&
           e.opts.layout == opts.layout &&
           e.opts.halo_policy == opts.halo_policy &&
           e.opts.affinity == opts.affinity &&
           same_spec(e.state->spec, spec);
  };
  auto tuner_fresh = [](const CacheEntry& e) {
    return !e.tuner_dependent ||
           TuneCache::instance().lookup_rounded(e.tune_key) == e.tune_seen;
  };
  {
    LockGuard lock(mu_);
    for (const CacheEntry& e : cache_)
      if (matches(e) && tuner_fresh(e)) {
        ++hits_;
        telemetry::counter("engine.plan_cache.hit").add(1);
        return PreparedStencil(e.state);
      }
  }
  // Miss: a full plan + pool + workspace build — worth a trace span, and
  // the counter pair the cache-effectiveness dashboards divide. Resolving
  // the handle per call is fine here: prepare() is the documented cold
  // path (serving pays it once per plan).
  telemetry::counter("engine.plan_cache.miss").add(1);
  telemetry::Span prepare_span("engine.prepare");

  auto st = std::make_shared<PreparedStencil::State>();
  st->spec = spec;
  st->nx = ext.nx;
  st->ny = ext.ny;
  st->nz = ext.nz;
  st->tsteps = tsteps;
  st->threads = opts.threads;
  st->plan_key = request_key(sh, ext, tsteps, opts);

  const Method m =
      opts.method == Method::Auto ? auto_method(spec, opts.isa) : opts.method;
  st->kernel = find_kernel(m, spec.dims, opts.isa);
  if (st->kernel == nullptr)
    throw std::invalid_argument(std::string("no kernel registered for ") +
                                method_name(m) + " in " +
                                std::to_string(spec.dims) + "-D at " +
                                isa_name(resolve_isa(opts.isa)));
  st->halo = st->kernel->required_halo(effective_radius(spec));
  // Resident-layout negotiation: the handle records the kernel's engaged
  // layout preference, and a request to accept resident views must match
  // it — a mismatch would mean kernels misinterpreting the caller's bytes.
  st->preferred = st->kernel->resident_layout(effective_radius(spec));
  st->accept = opts.layout;
  st->halo_policy = opts.halo_policy;
  st->affinity = opts.affinity;
  if (opts.layout != Layout::Natural && opts.layout != st->preferred)
    throw std::invalid_argument(
        std::string("Engine::prepare: ExecOptions::layout requests ") +
        layout_name(opts.layout) + "-resident execution but kernel '" +
        st->kernel->name + "' keeps data in " + layout_name(st->preferred) +
        " layout at this radius");

  PlanRequest req;
  req.spec = &st->spec;
  req.kernel = st->kernel;
  req.nx = ext.nx;
  req.ny = ext.ny;
  req.nz = ext.nz;
  req.tsteps = tsteps;
  req.tiling = opts.tiling;
  req.threads = opts.threads;
  req.tile = opts.tile;
  req.time_block = opts.time_block;
  req.affinity = opts.affinity;
  st->plan = plan_execution(req);

  // Build or reuse the runtime pool the tiled stages will run on (shared
  // per (threads, affinity), workers parked between tasks). The per-worker
  // workspace slabs are first-touched by the wedge schedule's prologue, in
  // the slot that already overlaps the first super-step
  // (tiling/split_tiling.cpp), so prepare pays no pool round-trip.
  if (st->plan.tiled && st->plan.blocked && st->plan.tile.threads > 1)
    st->pool = shared_pool(st->plan.tile.threads, opts.affinity);

  CacheEntry entry;
  entry.spec_hash = sh;
  entry.opts = opts;
  entry.nx = ext.nx;
  entry.ny = ext.ny;
  entry.nz = ext.nz;
  entry.tsteps = tsteps;
  // Snapshot the tuner lookup this plan depended on (plan_execution
  // consults the cache only for tiled plans with auto geometry, keyed on
  // the negotiated thread count). The snapshot is taken after planning, so
  // a store racing in between leaves a snapshot one step ahead of the plan
  // — harmless: the entry self-invalidates on the *next* change to that
  // key, and tuned geometry is advisory, never a correctness input.
  entry.tuner_dependent =
      st->plan.tiled && opts.tile == 0 && opts.time_block == 0;
  if (entry.tuner_dependent) {
    // The lookup plan_execution performed is keyed on the thread count
    // negotiated from the *request* (a cached entry may deploy a different
    // winning count, so st->plan.tile.threads is not necessarily the
    // lookup key) — re-derive it the same way.
    entry.tune_key =
        make_tune_key(*st->kernel, effective_radius(spec), ext.nx, ext.ny,
                      ext.nz, tsteps, plan_geometry(req).threads);
    entry.tune_seen = TuneCache::instance().lookup_rounded(entry.tune_key);
  }
  entry.state = st;
  {
    LockGuard lock(mu_);
    // Evict the same-request entry being superseded and any entry whose
    // tuner snapshot went stale (it can never be served again); a hard cap
    // bounds the cache against unbounded distinct-shape churn in
    // long-lived processes.
    const std::size_t before = cache_.size();
    cache_.erase(std::remove_if(cache_.begin(), cache_.end(),
                                [&](const CacheEntry& e) {
                                  return matches(e) || !tuner_fresh(e);
                                }),
                 cache_.end());
    constexpr std::size_t kMaxEntries = 256;
    std::size_t evicted = before - cache_.size();
    if (cache_.size() >= kMaxEntries) {
      cache_.erase(cache_.begin());  // oldest first
      ++evicted;
    }
    if (evicted > 0)
      telemetry::counter("engine.plan_cache.evictions")
          .add(static_cast<std::int64_t>(evicted));
    cache_.push_back(std::move(entry));
  }
  return PreparedStencil(st);
}

PreparedStencil Engine::prepare_shared(Preset p, Extents ext,
                                       const ExecOptions& opts) {
  return prepare_shared(preset(p), ext, opts);
}

PreparedStencil Engine::prepare_shared(const StencilSpec& spec, Extents ext,
                                       const ExecOptions& opts) {
  // Build coalescing: the first caller of a key claims it and builds; later
  // callers of the *same* key wait here and are then served the cached
  // state their builder inserted (their prepare() below is a cache hit
  // returning the identical State). Distinct keys never wait on each other.
  const std::uint64_t key = plan_key(spec, ext, opts);
  {
    UniqueLock lock(share_mu_);
    // Explicit loop so the guarded building_ reads are visibly under the
    // lock to the thread-safety analysis.
    while (building_.count(key) != 0) share_cv_.wait(lock);
    building_.insert(key);
  }
  struct Claim {  // release the key and wake waiters even on throw
    Engine* e;
    std::uint64_t key;
    ~Claim() {
      {
        LockGuard lock(e->share_mu_);
        e->building_.erase(key);
      }
      e->share_cv_.notify_all();
    }
  } claim{this, key};
  return prepare(spec, ext, opts);
}

std::uint64_t Engine::plan_key(const StencilSpec& spec, Extents ext,
                               const ExecOptions& opts_in) const {
  ExecOptions opts = opts_in;
  int tsteps = 0;
  resolve_request(spec, ext, opts, tsteps);
  return request_key(hash_spec(spec), ext, tsteps, opts);
}

std::size_t Engine::plan_cache_size() const {
  LockGuard lock(mu_);
  return cache_.size();
}

long Engine::plan_cache_hits() const {
  LockGuard lock(mu_);
  return hits_;
}

void Engine::warm_pool(int threads) {
  // Building the shared pool is the warmup: workers spawn, pin and park.
  // Resolve the same process-wide affinity default prepare() would, so the
  // pool warmed here is the pool a subsequent prepare() reuses.
  shared_pool(threads, env_affinity());
}

}  // namespace sf
