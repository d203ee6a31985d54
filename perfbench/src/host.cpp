// Host signature and roofline ceilings, measured in the same run as the
// per-layer metrics: the FMA peak from a register-resident loop of
// independent accumulators, and STREAM-style copy/triad bandwidth over
// arrays of at least four times the last-level cache each.
#include <immintrin.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/cpu.hpp"
#include "common/timing.hpp"

namespace pb {

namespace {

constexpr int kAcc = 12;  // independent chains: > FMA latency x ports

__attribute__((target("avx2,fma"))) double fma_loop_avx2(long iters) {
  __m256d acc[kAcc];
  for (int k = 0; k < kAcc; ++k) acc[k] = _mm256_set1_pd(1.0 + k * 1e-3);
  const __m256d m = _mm256_set1_pd(0.9999999), a = _mm256_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int k = 0; k < kAcc; ++k) acc[k] = _mm256_fmadd_pd(acc[k], m, a);
  }
  __m256d s = acc[0];
  for (int k = 1; k < kAcc; ++k) s = _mm256_add_pd(s, acc[k]);
  alignas(32) double out[4];
  _mm256_store_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}

__attribute__((target("avx512f"))) double fma_loop_avx512(long iters) {
  __m512d acc[kAcc];
  for (int k = 0; k < kAcc; ++k) acc[k] = _mm512_set1_pd(1.0 + k * 1e-3);
  const __m512d m = _mm512_set1_pd(0.9999999), a = _mm512_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int k = 0; k < kAcc; ++k) acc[k] = _mm512_fmadd_pd(acc[k], m, a);
  }
  __m512d s = acc[0];
  for (int k = 1; k < kAcc; ++k) s = _mm512_add_pd(s, acc[k]);
  return _mm512_reduce_add_pd(s);
}

// GFLOP/s of `threads` concurrent FMA loops at the widest ISA (2 flops per
// lane per FMA); best of three.
double fma_gflops(int threads, int width) {
  const long iters = 40'000'000;  // ~0.1 s per thread
  double best = 0;
  std::vector<double> sink(static_cast<std::size_t>(threads));  // keeps the loops
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::thread> ts;
    const double t0 = now_s();
    for (int t = 0; t < threads; ++t)
      ts.emplace_back([&, t] {
        sink[static_cast<std::size_t>(t)] =
            width == 8 ? fma_loop_avx512(iters) : fma_loop_avx2(iters);
      });
    for (auto& t : ts) t.join();
    const double dt = now_s() - t0;
    best = std::max(best, 2.0 * width * kAcc * static_cast<double>(iters) *
                              threads / dt / 1e9);
  }
  sf::do_not_optimize(sink.data());
  return best;
}

// Copy and triad GB/s over [0, n) split among `threads`; best of two.
// STREAM byte counting: copy moves 16 B per element, triad 24 B.
void stream_gbs(double* a, const double* b, const double* c, long n,
                int threads, double* copy_out, double* triad_out) {
  auto pass = [&](bool triad) {
    std::vector<std::thread> ts;
    const double t0 = now_s();
    for (int t = 0; t < threads; ++t)
      ts.emplace_back([=] {
        const long lo = n * t / threads, hi = n * (t + 1) / threads;
        if (triad)
          for (long i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
        else
          for (long i = lo; i < hi; ++i) a[i] = b[i];
      });
    for (auto& t : ts) t.join();
    return now_s() - t0;
  };
  double tc = 1e30, tt = 1e30;
  for (int rep = 0; rep < 2; ++rep) {
    tc = std::min(tc, pass(false));
    tt = std::min(tt, pass(true));
  }
  *copy_out = 16.0 * static_cast<double>(n) / tc / 1e9;
  *triad_out = 24.0 * static_cast<double>(n) / tt / 1e9;
}

}  // namespace

Host host_signature() {
  Host h;
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("model name", 0) == 0) {
      h.cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.isa = sf::isa_name(sf::resolve_isa(sf::Isa::Auto));
  h.cores = sf::hardware_threads();
  h.llc_bytes = sf::llc_bytes();
  return h;
}

void measure_ceilings(Host& h, Report& rep) {
  const int width = sf::isa_width(sf::resolve_isa(sf::Isa::Auto));
  h.fma_gflops_1core = fma_gflops(1, width);
  h.fma_gflops_all = fma_gflops(h.cores, width);

  const long n = 4 * h.llc_bytes / static_cast<long>(sizeof(double));
  h.stream_array_bytes = n * static_cast<long>(sizeof(double));
  std::unique_ptr<double[]> a(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> b(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> c(new double[static_cast<std::size_t>(n)]);
  {
    // First touch split the same way the all-core passes are.
    std::vector<std::thread> ts;
    for (int t = 0; t < h.cores; ++t)
      ts.emplace_back([&, t] {
        const long lo = n * t / h.cores, hi = n * (t + 1) / h.cores;
        for (long i = lo; i < hi; ++i) {
          a[i] = 0.0;
          b[i] = 1.0;
          c[i] = 2.0;
        }
      });
    for (auto& t : ts) t.join();
  }
  stream_gbs(a.get(), b.get(), c.get(), n, 1, &h.copy_gbs_1core,
             &h.stream_gbs_1core);
  stream_gbs(a.get(), b.get(), c.get(), n, h.cores, &h.copy_gbs_all,
             &h.stream_gbs_all);

  rep.add("host.fma_gflops.1core", h.fma_gflops_1core, "GFLOP/s");
  rep.add("host.fma_gflops.all", h.fma_gflops_all, "GFLOP/s");
  rep.add("host.stream_gbs.1core", h.stream_gbs_1core, "GB/s");
  rep.add("host.stream_gbs.all", h.stream_gbs_all, "GB/s");
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "host ceilings: FMA %.1f GFLOP/s (1 core), %.1f (%d cores) at "
                "W=%d; triad %.1f GB/s (1 core), %.1f (all); copy %.1f / %.1f "
                "GB/s; 3 arrays of %.0f MB each vs LLC %.0f MB",
                h.fma_gflops_1core, h.fma_gflops_all, h.cores, width,
                h.stream_gbs_1core, h.stream_gbs_all, h.copy_gbs_1core,
                h.copy_gbs_all, h.stream_array_bytes / 1e6, h.llc_bytes / 1e6);
  rep.line(buf);
}

}  // namespace pb
