// Benchmark binary. Runs one workload and prints human-readable lines, then
// one JSON line with every measured metric, the operation counts and the
// host signature. perfbench/run.py builds this binary, runs it in several
// processes, stamps the build and source identity and prints the result line.
//
//   perfbench --workload stream-cache|tiled-llc|serve-small --seed N
//             --seconds S [--trace-out FILE] [--digest]
//             [--inject-defect] [--no-ladder] --rates LIGHT,HEAVY --limit-ms L
//             --ladder LO,HI,STEP
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using pb::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

bool parse_pair(const char* s, double* a, double* b) {
  return std::sscanf(s, "%lf,%lf", a, b) == 2;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") o.workload = val();
    else if (k == "--seed") o.seed = std::strtoull(val(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(val());
    else if (k == "--trace-out") { o.trace = true; o.trace_out = val(); }
    else if (k == "--digest") o.digest = true;
    else if (k == "--inject-defect") o.inject_defect = true;
    else if (k == "--no-ladder") o.ladder = false;
    else if (k == "--rates") {
      if (!parse_pair(val(), &o.rate_light, &o.rate_heavy)) usage("bad --rates");
    } else if (k == "--limit-ms") o.limit_ms = std::atof(val());
    else if (k == "--ladder") {
      if (std::sscanf(val(), "%lf,%lf,%lf", &o.ladder_lo, &o.ladder_hi,
                      &o.ladder_step) != 3)
        usage("bad --ladder");
    } else usage(("unknown argument " + k).c_str());
  }
  if (o.workload != "stream-cache" && o.workload != "tiled-llc" &&
      o.workload != "serve-small")
    usage("--workload must be stream-cache, tiled-llc or serve-small");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  if (!(o.rate_light > 0 && o.rate_heavy > 0 && o.limit_ms > 0 &&
        o.ladder_lo > 0 && o.ladder_hi >= o.ladder_lo && o.ladder_step > 1.0 &&
        o.ladder_step <= 1.1))
    usage("--rates, --limit-ms and --ladder (step in (1, 1.1]) are required");
  return o;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

void print_result(const pb::Report& rep, const pb::Host& host) {
  for (const std::string& l : rep.text) std::printf("%s\n", l.c_str());
  std::string j = "{\"correct\":";
  j += rep.failed == 0 && rep.attempted > 0 ? "true" : "false";
  j += ",\"attempted\":" + std::to_string(rep.attempted);
  j += ",\"failed\":" + std::to_string(rep.failed);
  j += ",\"host\":{\"cpu_model\":" + json_str(host.cpu_model) +
       ",\"isa\":" + json_str(host.isa) +
       ",\"cores\":" + std::to_string(host.cores) +
       ",\"llc_bytes\":" + std::to_string(host.llc_bytes) +
       ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) + "}";
  j += ",\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : rep.metrics) {
    if (!std::isfinite(m.value)) continue;
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    j += (first ? "" : ",") + json_str(name) + ":{\"value\":" + buf +
         ",\"unit\":" + json_str(m.unit) + "}";
    first = false;
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  pb::now_s();  // anchor the process-start clock
  const Options o = parse(argc, argv);
  pb::Report rep;
  pb::Tracer tr;
  pb::Host host = pb::host_signature();
  tr.on = o.trace;
  try {
    if (o.trace) {
      // Traced run: ceilings first, then the direct-call layer probes, then
      // every workload — the selected one at full length, the others in
      // their short probe form — so each traced run reports every
      // per-layer metric.
      pb::measure_ceilings(host, rep);
      pb::Ctx c{o, rep, tr, host};
      pb::run_layer_probes(c);
      const auto run = [&](const char* name, void (*fn)(pb::Ctx&)) {
        pb::Ctx w{o, rep, tr, host, o.workload != name};
        const int root = tr.begin(std::string("workload.") + name);
        fn(w);
        tr.end(root);
      };
      run("stream-cache", pb::run_stream_cache);
      run("tiled-llc", pb::run_tiled_llc);
      run("serve-small", pb::run_serve_small);
    } else {
      pb::Ctx c{o, rep, tr, host};
      if (o.workload == "stream-cache") pb::run_stream_cache(c);
      else if (o.workload == "tiled-llc") pb::run_tiled_llc(c);
      else pb::run_serve_small(c);
      if (o.digest) rep.attempted = std::max(rep.attempted, 1L);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rep.add("peak_rss_mb", pb::peak_rss_mb(), "MB");
  rep.add("check.err_ratio_max", rep.err_ratio_max, "ratio");
  rep.add("fail_ratio",
          static_cast<double>(rep.failed) / static_cast<double>(std::max(rep.attempted, 1L)),
          "ratio");
  if (o.trace) {
    if (!tr.write_chrome(o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
    rep.line("chrome trace: " + o.trace_out + " (" +
             std::to_string(tr.spans().size()) + " spans)");
  }
  print_result(rep, host);
  return 0;
}
