#include "core/tuner.hpp"

#include <fstream>
#include <sstream>

#include "common/env.hpp"

namespace sf {

namespace {

// One entry per line:
//   v2 <kernel> <isa> <dims> <radius> <nx> <ny> <nz> <tsteps> <threads>
//      <tile> <tb> <tuned_threads>
// The kernel key never contains whitespace (registry names are method
// names), so plain stream extraction round-trips. Lines with any other tag
// do not parse and are skipped.
constexpr const char* kFormatTag = "v2";

int isa_code(Isa isa) { return static_cast<int>(isa); }

bool isa_from_code(int code, Isa& out) {
  switch (code) {
    case static_cast<int>(Isa::Scalar): out = Isa::Scalar; return true;
    case static_cast<int>(Isa::Avx2): out = Isa::Avx2; return true;
    case static_cast<int>(Isa::Avx512): out = Isa::Avx512; return true;
    default: return false;
  }
}

std::string to_line(const TuneKey& k, const TunedGeometry& g) {
  std::ostringstream os;
  os << kFormatTag << ' ' << k.kernel << ' ' << isa_code(k.isa) << ' '
     << k.dims << ' ' << k.radius << ' ' << k.nx << ' ' << k.ny << ' '
     << k.nz << ' ' << k.tsteps << ' ' << k.threads << ' ' << g.tile << ' '
     << g.time_block << ' ' << g.threads;
  return os.str();
}

bool parse_line(const std::string& line, TuneKey& k, TunedGeometry& g) {
  std::istringstream is(line);
  std::string tag;
  int isa = -1;
  if (!(is >> tag) || tag != kFormatTag) return false;
  if (!(is >> k.kernel >> isa >> k.dims >> k.radius >> k.nx >> k.ny >> k.nz >>
        k.tsteps >> k.threads >> g.tile >> g.time_block >> g.threads))
    return false;
  return isa_from_code(isa, k.isa) && k.dims >= 1 && k.dims <= 3 &&
         g.tile > 0 && g.time_block > 0 && g.threads >= 0;
}

}  // namespace

TuneKey make_tune_key(const KernelInfo& kernel, int radius, long nx, long ny,
                      long nz, int tsteps, int threads) {
  TuneKey k;
  k.kernel = kernel.name;
  k.isa = kernel.isa;
  k.dims = kernel.dims;
  k.radius = radius;
  k.nx = nx;
  k.ny = ny;
  k.nz = nz;
  k.tsteps = tsteps;
  k.threads = threads;
  return k;
}

long tune_bucket(long n) {
  if (n <= 0) return n;
  long lo = 1;
  while (lo * 2 <= n) lo *= 2;  // lo = 2^floor(log2 n)
  const long q = lo / 4;        // quarter-octave step
  return q > 0 ? lo + (n - lo) / q * q : n;
}

TuneKey bucketed_key(const TuneKey& k) {
  TuneKey b = k;
  b.nx = tune_bucket(k.nx);
  b.ny = tune_bucket(k.ny);
  b.nz = tune_bucket(k.nz);
  b.tsteps = static_cast<int>(tune_bucket(k.tsteps));
  return b;
}

TuneCache& TuneCache::instance() {
  static TuneCache* cache = [] {
    auto* c = new TuneCache();
    const std::string path = tune_cache_path();
    {
      // Uncontended (the singleton is not shared until this lambda
      // returns); taken for the thread-safety analysis.
      LockGuard lock(c->mu_);
      c->persist_path_ = path;
    }
    if (!path.empty()) c->load_file(path);
    return c;
  }();
  return *cache;
}

std::optional<TunedGeometry> TuneCache::lookup_locked(
    const TuneKey& key) const {
  for (const auto& e : entries_)
    if (e.first == key) return e.second;
  return std::nullopt;
}

std::optional<TunedGeometry> TuneCache::lookup(const TuneKey& key) const {
  LockGuard lock(mu_);
  return lookup_locked(key);
}

std::optional<TunedGeometry> TuneCache::lookup_rounded(
    const TuneKey& key) const {
  LockGuard lock(mu_);
  if (auto exact = lookup_locked(key)) return exact;
  const TuneKey want = bucketed_key(key);
  for (const auto& e : entries_)
    if (bucketed_key(e.first) == want) return e.second;
  return std::nullopt;
}

void TuneCache::store(const TuneKey& key, const TunedGeometry& g) {
  LockGuard lock(mu_);
  ++stores_;
  bool replaced = false;
  for (auto& e : entries_)
    if (e.first == key) {
      e.second = g;
      replaced = true;
      break;
    }
  if (!replaced) entries_.emplace_back(key, g);
  if (!persist_path_.empty()) {
    // Append-only persistence: load_file's later-lines-win rule makes an
    // updated entry shadow its predecessor without rewriting the file.
    std::ofstream out(persist_path_, std::ios::app);
    if (out) out << to_line(key, g) << '\n';
  }
}

long TuneCache::stored_count() const {
  LockGuard lock(mu_);
  return stores_;
}

std::size_t TuneCache::size() const {
  LockGuard lock(mu_);
  return entries_.size();
}

void TuneCache::clear() {
  LockGuard lock(mu_);
  entries_.clear();
}

std::size_t TuneCache::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::size_t loaded = 0;
  std::string line;
  LockGuard lock(mu_);
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    TuneKey k;
    TunedGeometry g;
    if (!parse_line(line, k, g)) continue;
    bool replaced = false;
    for (auto& e : entries_)
      if (e.first == k) {
        e.second = g;
        replaced = true;
        break;
      }
    if (!replaced) entries_.emplace_back(std::move(k), g);
    ++loaded;
  }
  return loaded;
}

bool TuneCache::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# stencilfold tuning cache: " << kFormatTag
      << " kernel isa dims radius nx ny nz tsteps threads tile time_block"
         " tuned_threads\n";
  LockGuard lock(mu_);
  for (const auto& e : entries_) out << to_line(e.first, e.second) << '\n';
  return static_cast<bool>(out);
}

}  // namespace sf
