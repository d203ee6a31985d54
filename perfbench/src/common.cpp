#include <sys/resource.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "grid/grid_utils.hpp"
#include "stencil/reference.hpp"

namespace pb {

namespace {
const Clock::time_point kStart = Clock::now();
}

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

Clock::time_point at_time(double t) {
  return kStart + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(t));
}

void wait_until(double t) {
  for (;;) {
    const double left = t - now_s();
    if (left <= 0) return;
    if (left > 200e-6)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(left - 100e-6));
  }
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<long>(v.size());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = v[v.size() / 2];
  double sum = 0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  // Highest order statistic with at least ten samples above it; with ten
  // or fewer samples no such tail exists and the maximum stands in.
  const long i = s.n > 10 ? s.n - 11 : s.n - 1;
  s.tail = v[static_cast<std::size_t>(i)];
  s.tail_pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(s.n);
  return s;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double r = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = r < 1 ? 0 : static_cast<std::size_t>(r) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------

std::string plan_args(const sf::PreparedStencil& ps, const std::string& shape) {
  const sf::ExecutionPlan& p = ps.plan();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"shape\":\"%s\",\"kernel\":\"%s\",\"isa\":\"%s\","
                "\"tiled\":%d,\"tile\":%d,\"time_block\":%d",
                shape.c_str(), ps.kernel().name, sf::isa_name(ps.kernel().isa),
                p.tiled ? 1 : 0, p.tiled ? p.tile.tile : 0,
                p.tiled ? p.tile.time_block : 0);
  return buf;
}

int Tracer::begin(const std::string& name, long req, int parent,
                  std::string args) {
  if (!on) return -1;
  const double t = now_s();
  return add(name, t, t, req, parent, std::move(args));
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = now_s();
}

int Tracer::add(const std::string& name, double t0, double t1, long req,
                int parent, std::string args, int tid) {
  if (!on) return -1;
  spans_.push_back(Span{name, t0, t1, parent, req, tid, std::move(args)});
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"req\":%ld",
                  s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                  s.tid, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i, s.parent, s.req);
    f << buf;
    if (!s.args.empty()) f << ',' << s.args;
    f << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------

double tolerance(int steps, int taps, double scale) {
  return 8.0 * std::max(steps, 1) * taps * DBL_EPSILON * std::max(scale, 1.0);
}

bool Checker::record(double max_err, double tol) {
  ++checked;
  const double r = max_err / tol;
  if (!(r <= 1.0)) ++mismatched;  // NaN counts as a mismatch
  if (!(r <= err_ratio_max)) err_ratio_max = std::isnan(r) ? INFINITY : r;
  return r <= 1.0;
}

std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double roof_gflops(double peak_gflops, double bw_gbs, double flops_per_pt,
                   double bytes_per_pt) {
  return std::min(peak_gflops, bw_gbs * flops_per_pt / bytes_per_pt);
}

void print_breakdown(Ctx& c, double wall_ms_per_op,
                     const std::vector<LayerTime>& layers) {
  char buf[256];
  c.rep.line("layer self time per op (wall " +
             std::to_string(wall_ms_per_op) + " ms):");
  double sum = 0;
  for (const LayerTime& l : layers) {
    sum += l.ms;
    std::snprintf(buf, sizeof buf, "  %-10s %10.4f ms  %5.1f%%  (%s)",
                  l.layer.c_str(), l.ms, 100.0 * l.ms / wall_ms_per_op,
                  l.how.c_str());
    c.rep.line(buf);
  }
  const double resid = wall_ms_per_op - sum;
  std::snprintf(buf, sizeof buf, "  %-10s %10.4f ms  %5.1f%%  (wall minus layers)",
                "residual", resid, 100.0 * resid / wall_ms_per_op);
  c.rep.line(buf);
  c.rep.add("bench.residual_frac", resid / wall_ms_per_op, "ratio");
}

}  // namespace pb

// ---------------------------------------------------------------------------
// Field
// ---------------------------------------------------------------------------
namespace pb {

Field::Field(int d, long nx, long ny, long nz, int halo, bool zero) : dims(d) {
  const int x = static_cast<int>(nx), y = static_cast<int>(ny),
            z = static_cast<int>(nz);
  if (d == 1) {
    g1 = std::make_unique<sf::Grid1D>(x, halo, zero);
    v1 = g1->view();
  } else if (d == 2) {
    g2 = std::make_unique<sf::Grid2D>(y, x, halo, zero);
    v2 = g2->view();
  } else {
    g3 = std::make_unique<sf::Grid3D>(z, y, x, halo, zero);
    v3 = g3->view();
  }
}

long Field::points() const {
  if (dims == 1) return v1.n();
  if (dims == 2) return static_cast<long>(v2.ny()) * v2.nx();
  return static_cast<long>(v3.nz()) * v3.ny() * v3.nx();
}

std::uint64_t Field::digest(std::uint64_t h) const {
  if (dims == 1)
    return fnv1a(v1.data() - v1.halo(),
                 sizeof(double) * static_cast<std::size_t>(v1.n() + 2 * v1.halo()), h);
  if (dims == 2) {
    for (int y = -v2.halo(); y < v2.ny() + v2.halo(); ++y)
      h = fnv1a(v2.row(y) - v2.halo(),
                sizeof(double) * static_cast<std::size_t>(v2.nx() + 2 * v2.halo()), h);
    return h;
  }
  for (int z = -v3.halo(); z < v3.nz() + v3.halo(); ++z)
    for (int y = -v3.halo(); y < v3.ny() + v3.halo(); ++y)
      h = fnv1a(v3.row(z, y) - v3.halo(),
                sizeof(double) * static_cast<std::size_t>(v3.nx() + 2 * v3.halo()), h);
  return h;
}

void fill_random(Field& f, std::uint64_t seed) {
  if (f.dims == 1) sf::fill_random(f.v1, seed);
  else if (f.dims == 2) sf::fill_random(f.v2, seed);
  else sf::fill_random(f.v3, seed);
}

void copy_all(const Field& src, Field& dst) {
  if (src.dims == 1) sf::copy(src.v1, dst.v1);
  else if (src.dims == 2) sf::copy(src.v2, dst.v2);
  else sf::copy(src.v3, dst.v3);
}

void to_resident(const sf::PreparedStencil& ps, Field& f) {
  if (f.dims == 1) f.v1 = sf::to_resident_layout(ps, f.v1);
  else if (f.dims == 2) f.v2 = sf::to_resident_layout(ps, f.v2);
  else f.v3 = sf::to_resident_layout(ps, f.v3);
}

void advance(const sf::PreparedStencil& ps, Field& a, Field& b, int steps) {
  if (a.dims == 1) ps.advance(a.v1, b.v1, steps);
  else if (a.dims == 2) ps.advance(a.v2, b.v2, steps);
  else ps.advance(a.v3, b.v3, steps);
}

void kernel_run(const sf::KernelInfo& k, const sf::StencilSpec& spec,
                Field& a, Field& b, int steps) {
  if (a.dims == 1) k.run1(spec.p1, a.v1, b.v1, nullptr, nullptr, steps);
  else if (a.dims == 2) k.run2(spec.p2, a.v2, b.v2, steps);
  else k.run3(spec.p3, a.v3, b.v3, steps);
}

namespace {

void natural_copy(const sf::PreparedStencil& ps, const sf::FieldView1D& v,
                  sf::Grid1D& dst) {
  const sf::FieldView1D d = dst.view().with_layout(v.layout(), v.layout_width());
  sf::copy(v, d);
  sf::to_natural_layout(ps, d);
}

void natural_copy(const sf::PreparedStencil& ps, const sf::FieldView2D& v,
                  sf::Grid2D& dst) {
  const sf::FieldView2D d = dst.view().with_layout(v.layout(), v.layout_width());
  sf::copy(v, d);
  sf::to_natural_layout(ps, d);
}

void natural_copy(const sf::PreparedStencil& ps, const sf::FieldView3D& v,
                  sf::Grid3D& dst) {
  const sf::FieldView3D d = dst.view().with_layout(v.layout(), v.layout_width());
  sf::copy(v, d);
  sf::to_natural_layout(ps, d);
}

}  // namespace

void natural_copy(const sf::PreparedStencil& ps, const Field& src, Field& dst) {
  if (src.dims == 1) natural_copy(ps, src.v1, *dst.g1);
  else if (src.dims == 2) natural_copy(ps, src.v2, *dst.g2);
  else natural_copy(ps, src.v3, *dst.g3);
}

double check_against_reference(const sf::PreparedStencil& ps,
                               const sf::StencilSpec& spec, const Field& before,
                               const Field& got, Field& ref, Field& scratch,
                               int steps) {
  copy_all(before, ref);
  copy_all(before, scratch);
  double err = 0, scale = 0;
  if (before.dims == 1) {
    sf::run_reference(spec.p1, ref.v1, scratch.v1, steps);
    natural_copy(ps, got, scratch);
    err = sf::max_abs_diff(ref.v1, scratch.v1);
    scale = sf::max_abs(before.v1);
  } else if (before.dims == 2) {
    sf::run_reference(spec.p2, ref.v2, scratch.v2, steps);
    natural_copy(ps, got, scratch);
    err = sf::max_abs_diff(ref.v2, scratch.v2);
    scale = sf::max_abs(before.v2);
  } else {
    sf::run_reference(spec.p3, ref.v3, scratch.v3, steps);
    natural_copy(ps, got, scratch);
    err = sf::max_abs_diff(ref.v3, scratch.v3);
    scale = sf::max_abs(before.v3);
  }
  return err / tolerance(steps, spec.points(), scale);
}

void perturb(Field& f, double delta) {
  if (f.dims == 1) f.v1.at(f.v1.n() / 2) += delta;
  else if (f.dims == 2) f.v2.at(f.v2.ny() / 2, f.v2.nx() / 2) += delta;
  else f.v3.at(f.v3.nz() / 2, f.v3.ny() / 2, f.v3.nx() / 2) += delta;
}

}  // namespace pb
