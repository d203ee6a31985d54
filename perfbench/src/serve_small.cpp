// serve-small: an open loop into sf::Server. One generator thread (the
// main thread) sends requests on a Poisson schedule drawn from the seed
// ahead of the run, at the fixed `light` and `heavy` rates, then searches a
// fixed geometric rate ladder for the highest rate that meets the p99
// latency limit without a growing backlog. Requests come from 4 tenants,
// 3:1 Heat2D to Box2D9 at 64 x 64 x 8 steps (two plan keys), natural
// layout with HaloPolicy::Sync, on a 2-worker pool. Latency runs from each
// request's due time to its completion on the benchmark's own clock; every
// output is checked.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "grid/grid_utils.hpp"
#include "serving/server.hpp"
#include "stencil/reference.hpp"

namespace pb {

const ServeKind kServeKinds[2] = {
    {"heat2d", sf::Preset::Heat2D, 0.75},
    {"box2d9", sf::Preset::Box2D9, 0.25},
};

sf::PreparedStencil prepare_serve(const ServeKind& k, int tsteps) {
  sf::ExecOptions eo;
  eo.tiling = sf::Tiling::On;
  eo.threads = kServeThreads;
  eo.tsteps = tsteps;
  return sf::Engine::instance().prepare_shared(sf::preset(k.preset),
                                               sf::Extents{kServeN, kServeN}, eo);
}

namespace {

constexpr int kTenants = 4;
constexpr int kBank = 32;        // distinct inputs per kind
constexpr int kPairs = 512;      // recycled buffer pairs per kind
constexpr int kMaxBacklog = 400;  // in flight; beyond it a rung is overloaded
constexpr int kBurst = 256;       // requests per capacity burst
constexpr int kBurstsPerRound = 3;

struct Arrival {
  double due;  // seconds from phase start
  int kind, tenant, input;
};

struct Kind {
  const ServeKind* def = nullptr;
  sf::PreparedStencil ps;
  std::vector<Field> in, out;  // input bank and its reference outputs
  std::vector<Field> a, b;     // buffer pairs
  std::vector<int> free_pairs;
  double tol = 0;
};

struct Inflight {
  std::future<sf::ServeResult> fut;
  Arrival arr;
  int pair = 0;
  long id = 0;
  double due = 0, t_submit = 0, t_submitted = 0;
  sf::ServeResult res;  // set on completion
  double done = 0;      // completion time on the benchmark's clock
  bool stamped = false;
};

// Stamps completions on the benchmark's clock: a thread waits on the
// in-flight futures in submit order and records when each became ready,
// so the latency includes the Server's delivery (promise, accounting,
// waking the waiter) after its own batch timer stops. A request that
// finishes before an earlier one is stamped with the earlier one: late by
// at most one batch group's execution, never early.
class Stamper {
 public:
  Stamper() : th_([this] { loop(); }) {}
  ~Stamper() {
    {
      std::lock_guard<std::mutex> l(mu_);
      stop_ = true;
    }
    work_.notify_one();
    th_.join();
  }
  Stamper(const Stamper&) = delete;
  Stamper& operator=(const Stamper&) = delete;

  void push(Inflight f) {
    {
      std::lock_guard<std::mutex> l(mu_);
      q_.push_back(std::move(f));
    }
    work_.notify_one();
  }
  /// Waits until the oldest request is stamped or now_s() reaches
  /// `deadline`; false when none is in flight or the deadline came first.
  bool front_done_by(double deadline) {
    std::unique_lock<std::mutex> l(mu_);
    return !q_.empty() && done_.wait_until(l, at_time(deadline), [this] {
      return q_.front().stamped;
    });
  }
  /// Waits for the oldest request's stamp and hands it back.
  Inflight pop() {
    std::unique_lock<std::mutex> l(mu_);
    done_.wait(l, [this] { return q_.front().stamped; });
    Inflight f = std::move(q_.front());
    q_.pop_front();
    --next_;
    return f;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> l(mu_);
    for (;;) {
      work_.wait(l, [this] { return stop_ || next_ < q_.size(); });
      if (next_ >= q_.size()) return;
      // push_back and pop_front of other elements keep this reference.
      Inflight& f = q_[next_];
      l.unlock();
      sf::ServeResult r = f.fut.get();
      const double t = now_s();
      l.lock();
      f.res = std::move(r);
      f.done = t;
      f.stamped = true;
      ++next_;
      done_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable work_, done_;
  std::deque<Inflight> q_;  // in submit order
  std::size_t next_ = 0;    // index in q_ of the first unstamped request
  bool stop_ = false;
  std::thread th_;
};

struct Phase {
  std::vector<double> lat, lag, submit, queue, exec, deliver, batch;
  long attempted = 0, failed = 0, rejected = 0;
  bool overloaded = false;
  double span = 0;  // first due time to last completion, seconds
};

// One request of the mix (kind, tenant, input) due at `t`.
Arrival draw(double t, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> tenant(0, kTenants - 1), input(0, kBank - 1);
  const int kind = u(rng) < kServeKinds[0].share ? 0 : 1;
  const int te = tenant(rng);
  return {t, kind, te, input(rng)};
}

// Poisson arrivals at `rate` over `seconds`.
std::vector<Arrival> schedule(double rate, double seconds, std::mt19937_64& rng) {
  std::vector<Arrival> v;
  std::exponential_distribution<double> gap(rate);
  for (double t = gap(rng); t < seconds; t += gap(rng)) v.push_back(draw(t, rng));
  return v;
}

// The arrivals of rung `i` of the rps_max ladder, from a seed of its own:
// the same whichever rungs the search visits before it.
std::vector<Arrival> rung_schedule(std::uint64_t seed, std::size_t i, double rate) {
  std::mt19937_64 rng(seed * 1000003 + 7919 * (i + 1));
  return schedule(rate, std::max(0.5, 1100.0 / rate), rng);
}

class Generator {
 public:
  Generator(sf::Server& srv, std::vector<Kind>& kinds, Ctx& c)
      : srv_(srv), kinds_(kinds), c_(c) {}

  Phase run(const std::vector<Arrival>& arrivals, bool traced,
            bool stop_on_backlog) {
    Phase ph;
    const double t0 = now_s() + 0.002;
    for (const Arrival& ar : arrivals) {
      const double due = t0 + ar.due;
      // Complete what has finished while waiting for the due time.
      while (stamper_.front_done_by(due - 50e-6)) complete(ph, traced);
      wait_until(due);
      Kind& k = kinds_[static_cast<std::size_t>(ar.kind)];
      while (k.free_pairs.empty()) complete(ph, traced);  // recycle only on completion
      const int pair = k.free_pairs.back();
      k.free_pairs.pop_back();
      Field& a = k.a[static_cast<std::size_t>(pair)];
      copy_all(k.in[static_cast<std::size_t>(ar.input)], a);
      Inflight f;
      f.arr = ar;
      f.pair = pair;
      f.id = next_id_++;
      f.due = due;
      f.t_submit = now_s();
      ph.lag.push_back(f.t_submit - due);
      f.fut = srv_.submit("tenant-" + std::to_string(ar.tenant), k.ps, a.v2,
                          k.b[static_cast<std::size_t>(pair)].v2, kServeSteps);
      f.t_submitted = now_s();
      ++ph.attempted;
      stamper_.push(std::move(f));
      ++inflight_;
      if (stop_on_backlog && inflight_ > kMaxBacklog) {
        ph.overloaded = true;
        break;
      }
    }
    while (inflight_ > 0) complete(ph, traced);
    ph.span = last_done_ - t0;
    return ph;
  }

  /// Closed loop, one request in flight: submit, wait for the future,
  /// repeat for `seconds`. Latency runs from submit() to the return of
  /// the future's get() — the serving path's per-request floor.
  Phase closed_loop(const std::vector<Arrival>& mix, double seconds) {
    Phase ph;
    const double t_end = now_s() + seconds;
    for (std::size_t i = 0; now_s() < t_end; ++i) {
      const Arrival& ar = mix[i % mix.size()];
      Kind& k = kinds_[static_cast<std::size_t>(ar.kind)];
      const int pair = k.free_pairs.back();
      k.free_pairs.pop_back();
      copy_all(k.in[static_cast<std::size_t>(ar.input)], k.a[static_cast<std::size_t>(pair)]);
      Inflight f;
      f.arr = ar;
      f.pair = pair;
      f.id = next_id_++;
      f.t_submit = f.due = now_s();
      f.fut = srv_.submit("tenant-" + std::to_string(ar.tenant), k.ps,
                          k.a[static_cast<std::size_t>(pair)].v2,
                          k.b[static_cast<std::size_t>(pair)].v2, kServeSteps);
      f.t_submitted = now_s();
      ++ph.attempted;
      f.res = f.fut.get();
      f.done = now_s();
      record(ph, f, false);
    }
    return ph;
  }

  bool inject_defect = false;

 private:
  // Takes the oldest in-flight request of the open loop once stamped.
  void complete(Phase& ph, bool traced) {
    Inflight f = stamper_.pop();
    --inflight_;
    record(ph, f, traced);
  }

  // Checks a completed request (`res` and `done` set) and records it.
  void record(Phase& ph, const Inflight& f, bool traced) {
    Kind& k = kinds_[static_cast<std::size_t>(f.arr.kind)];
    const sf::ServeResult& r = f.res;
    Field& a = k.a[static_cast<std::size_t>(f.pair)];
    // ServeResult timings: queue runs from submit() entry to dispatch; the
    // batch then executes for exec_seconds and is delivered.
    const double executed = f.t_submit + r.queue_seconds + r.exec_seconds;
    double latency = INFINITY;  // a refused or failed request misses any limit
    if (!r.ok()) {
      ++ph.failed;
      if (r.rejected != sf::Reject::None) ++ph.rejected;
    } else {
      latency = f.done - f.due;
      last_done_ = std::max(last_done_, f.done);
      if (inject_defect) {
        perturb(a, 1e-3);
        inject_defect = false;
      }
      const Field& want = k.out[static_cast<std::size_t>(f.arr.input)];
      const double err = sf::max_abs_diff(a.v2, want.v2);
      if (!chk.record(err, k.tol)) ++ph.failed;
      ph.submit.push_back(f.t_submitted - f.t_submit);
      ph.queue.push_back(r.queue_seconds);
      ph.exec.push_back(r.exec_seconds);
      ph.deliver.push_back(std::max(0.0, f.done - executed));
      ph.batch.push_back(r.batch_size);
    }
    ph.lat.push_back(latency);
    if (traced) {
      const std::string args = plan_args(k.ps, k.def->name) +
                               ",\"tenant\":" + std::to_string(f.arr.tenant) +
                               ",\"batch\":" + std::to_string(r.batch_size);
      const int root = c_.tr.add("bench.request", f.due, f.done, f.id, -1, args);
      c_.tr.add("bench.gen_lag", f.due, f.t_submit, f.id, root);
      c_.tr.add("serving.submit", f.t_submit, f.t_submitted, f.id, root);
      c_.tr.add("serving.queue", f.t_submitted, f.t_submit + r.queue_seconds,
                f.id, root, {}, 1);
      c_.tr.add("engine.advance_batch", f.t_submit + r.queue_seconds, executed,
                f.id, root, args, 1);
      c_.tr.add("serving.deliver", executed, f.done, f.id, root, {}, 1);
    }
    k.free_pairs.push_back(f.pair);
  }

  sf::Server& srv_;
  std::vector<Kind>& kinds_;
  Ctx& c_;
  Stamper stamper_;
  int inflight_ = 0;  // open-loop requests handed to the stamper
  long next_id_ = 0;
  double last_done_ = 0;

 public:
  Checker chk;
};

// p99 within the limit, and no growing backlog: the last quarter of the
// requests' median latency is within it too.
bool rung_passes(const Phase& ph, double limit_s) {
  if (ph.overloaded || ph.failed > 0 || ph.lat.size() < 20) return false;
  const std::size_t q = ph.lat.size() * 3 / 4;
  const std::vector<double> last(ph.lat.begin() + static_cast<long>(q), ph.lat.end());
  return percentile(ph.lat, 0.99) <= limit_s && median(last) <= limit_s;
}

// Latency statistics over consecutive windows of kWindow requests: the
// median over windows of each window's p50 and tail (its highest order
// statistic with ten samples beyond it, ~p95), so a host stall that
// delays a few dozen requests moves neither.
constexpr std::size_t kWindow = 200;
struct Window {
  double p50 = 0, tail = 0;
};

Window add_latency(Report& rep, const std::string& suffix,
                   const std::vector<Phase>& phases) {
  std::vector<double> all, p50, tail;
  long failed = 0;
  for (const Phase& p : phases) {
    all.insert(all.end(), p.lat.begin(), p.lat.end());
    failed += p.failed;
  }
  for (std::size_t i = 0; i + kWindow <= all.size(); i += kWindow) {
    const Summary s = summarize(std::vector<double>(
        all.begin() + static_cast<long>(i), all.begin() + static_cast<long>(i + kWindow)));
    p50.push_back(s.p50);
    tail.push_back(s.tail);
  }
  const Window w{median(p50), median(tail)};
  rep.add("serving.latency_ms_p50." + suffix, w.p50 * 1e3, "ms");
  rep.add("serving.latency_ms_tail." + suffix, w.tail * 1e3, "ms");
  const Summary pooled = summarize(all);
  char buf[400];
  std::snprintf(buf, sizeof buf,
                "  %-6s window p50 quartiles %.3f / %.3f / %.3f ms, window tail "
                "quartiles %.3f / %.3f / %.3f ms",
                suffix.c_str(), percentile(p50, 0.25) * 1e3, w.p50 * 1e3,
                percentile(p50, 0.75) * 1e3, percentile(tail, 0.25) * 1e3,
                w.tail * 1e3, percentile(tail, 0.75) * 1e3);
  rep.line(buf);
  std::snprintf(buf, sizeof buf,
                "  %-6s %6zu requests: p50 %.3f ms, tail %.3f ms (medians over "
                "%zu windows of %zu; tail = p%.1f of each); pooled p50 %.3f ms, "
                "p%.2f %.3f ms; %ld failed",
                suffix.c_str(), all.size(), w.p50 * 1e3, w.tail * 1e3, p50.size(),
                kWindow, 100.0 * (kWindow - 10) / kWindow, pooled.p50 * 1e3,
                pooled.tail_pct, pooled.tail * 1e3, failed);
  rep.line(buf);
  return w;
}

void merge(Phase& into, const Phase& p) {
  into.attempted += p.attempted;
  into.failed += p.failed;
  into.rejected += p.rejected;
}

}  // namespace

void run_serve_small(Ctx& c) {
  const Options& o = c.opt;
  std::vector<Kind> kinds(2);
  std::mt19937_64 rng(o.seed * 1000003 + 29);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    Kind& k = kinds[i];
    k.def = &kServeKinds[i];
    k.ps = prepare_serve(*k.def);
    const int h = k.ps.halo();
    for (int j = 0; j < kBank; ++j) {
      k.in.emplace_back(2, kServeN, kServeN, 1, h, false);
      fill_random(k.in.back(), rng());
    }
    for (int j = 0; j < kPairs; ++j) {
      k.a.emplace_back(2, kServeN, kServeN, 1, h);
      k.b.emplace_back(2, kServeN, kServeN, 1, h);
      k.free_pairs.push_back(kPairs - 1 - j);
    }
  }
  // Declared after the buffers it serves so it drains and joins first.
  sf::Server srv;  // default admission and batching knobs
  // Arrival schedules and the request mix, drawn ahead of the run: a
  // warm-up at the heavy rate (its mix also feeds the closed loop), the
  // light/heavy windows and the capacity burst.
  const double S = c.probe ? 6.0 : o.seconds;
  const double win = c.probe ? 0.5 : 1.0;
  const double unloaded = 0.35 * S;
  const int pairs = std::max(2, static_cast<int>(0.3 * S / (2 * win)));
  const std::vector<Arrival> warm = schedule(o.rate_heavy, win, rng);
  std::vector<std::vector<Arrival>> windows;
  for (int w = 0; w < 2 * pairs; ++w)
    windows.push_back(schedule(w % 2 == 0 ? o.rate_light : o.rate_heavy, win, rng));
  std::vector<Arrival> burst;
  for (int i = 0; i < kBurst; ++i) burst.push_back(draw(0.0, rng));
  // The rps_max ladder; each rung's arrivals come from rung_schedule().
  std::vector<double> ladder;
  for (double r = o.ladder_lo; r <= o.ladder_hi * 1.0001; r *= o.ladder_step)
    ladder.push_back(r);
  if (o.digest) {
    std::uint64_t h = 1469598103934665603ull;
    for (const Kind& k : kinds)
      for (const Field& f : k.in) h = f.digest(h);
    const auto hash = [&h](const std::vector<Arrival>& v) {
      for (const Arrival& a : v) {  // field by field: the struct has padding
        h = fnv1a(&a.due, sizeof a.due, h);
        const int ints[3] = {a.kind, a.tenant, a.input};
        h = fnv1a(ints, sizeof ints, h);
      }
    };
    hash(warm);
    for (const auto& v : windows) hash(v);
    hash(burst);
    for (std::size_t i = 0; i < ladder.size(); ++i)
      hash(rung_schedule(o.seed, i, ladder[i]));
    c.rep.add("inputs.digest", static_cast<double>(h >> 11), "hash");
    return;
  }
  if (!c.probe) c.rep.add("setup_s", now_s(), "s");

  // Reference outputs of the input bank (checking work, outside timing).
  for (Kind& k : kinds) {
    const sf::StencilSpec& spec = sf::preset(k.def->preset);
    double scale = 0;
    for (const Field& in : k.in) {
      k.out.emplace_back(2, kServeN, kServeN, 1, in.v2.halo());
      Field tmp(2, kServeN, kServeN, 1, in.v2.halo());
      copy_all(in, k.out.back());
      copy_all(in, tmp);
      sf::run_reference(spec.p2, k.out.back().v2, tmp.v2, kServeSteps);
      scale = std::max(scale, sf::max_abs(in.v2));
    }
    k.tol = tolerance(kServeSteps, spec.points(), scale);
  }

  Generator gen(srv, kinds, c);
  gen.inject_defect = o.inject_defect;
  Phase total;
  const bool tracing = c.tr.on;
  char buf[320];
  merge(total, gen.run(warm, false, false));

  // Rounds of: an unloaded closed-loop chunk (one request in flight),
  // capacity bursts, a light window and a heavy window, so host noise over
  // the whole run lands on all of them alike. In a traced run every other
  // round's open-loop windows are traced; the untraced ones are the
  // trace-overhead baseline.
  Phase ul;
  std::vector<double> capacity;
  std::vector<Phase> light, heavy;
  std::vector<double> heavy_p50_traced, heavy_p50_untraced;
  sf::ServerStats open;  // ServerStats deltas over the open-loop windows
  for (int w = 0; w < 2 * pairs; ++w) {
    if (w % 2 == 0) {
      Phase u = gen.closed_loop(warm, unloaded / pairs);
      merge(total, u);
      ul.lat.insert(ul.lat.end(), u.lat.begin(), u.lat.end());
      // Capacity: bursts of kBurst simultaneous requests; completions per
      // second from the first submit to the last completion.
      for (int i = 0; i < kBurstsPerRound; ++i) {
        const Phase b = gen.run(burst, false, false);
        merge(total, b);
        capacity.push_back(kBurst / b.span);
      }
    }
    const bool traced = tracing && (c.probe || (w / 2) % 2 == 1);
    const sf::ServerStats s0 = srv.stats();
    Phase p = gen.run(windows[static_cast<std::size_t>(w)], traced, false);
    const sf::ServerStats s1 = srv.stats();
    open.submitted += s1.submitted - s0.submitted;
    open.completed += s1.completed - s0.completed;
    open.rejected += s1.rejected - s0.rejected;
    open.batches += s1.batches - s0.batches;
    merge(total, p);
    if (w % 2 == 1) (traced ? heavy_p50_traced : heavy_p50_untraced).push_back(median(p.lat));
    (w % 2 == 0 ? light : heavy).push_back(std::move(p));
  }

  // rps_max: binary search over the fixed geometric ladder.
  const double limit = o.limit_ms * 1e-3;
  long lo = -1, hi = static_cast<long>(ladder.size());
  long mid = std::lower_bound(ladder.begin(), ladder.end(), o.rate_heavy) -
             ladder.begin();
  if (o.ladder)
    c.rep.line("rps_max search (p99 limit " + std::to_string(o.limit_ms) + " ms):");
  while (o.ladder && hi - lo > 1) {
    mid = std::clamp(mid, lo + 1, hi - 1);
    const double rate = ladder[static_cast<std::size_t>(mid)];
    const Phase pr = gen.run(rung_schedule(o.seed, static_cast<std::size_t>(mid), rate),
                             false, true);
    merge(total, pr);
    const bool ok = rung_passes(pr, limit);
    std::snprintf(buf, sizeof buf, "  %8.1f req/s: p50 %.3f p99 %.3f ms %s%s",
                  rate, percentile(pr.lat, 0.5) * 1e3,
                  percentile(pr.lat, 0.99) * 1e3, ok ? "pass" : "fail",
                  pr.overloaded ? " (backlog)" : "");
    c.rep.line(buf);
    (ok ? lo : hi) = mid;
    mid = (lo + hi) / 2;
  }
  const double rps_max = lo >= 0 ? ladder[static_cast<std::size_t>(lo)] : 0.0;

  c.rep.attempted += total.attempted;
  c.rep.failed += total.failed;
  c.rep.err_ratio_max = std::max(c.rep.err_ratio_max, gen.chk.err_ratio_max);
  std::snprintf(buf, sizeof buf,
                "serve-small: light %.0f req/s, heavy %.0f req/s, %d windows of "
                "%.1f s each; %ld requests, %ld failed, %ld rejected; %ld outputs "
                "checked, worst err/tol %.3g",
                o.rate_light, o.rate_heavy, pairs, win, total.attempted,
                total.failed, total.rejected, gen.chk.checked,
                gen.chk.err_ratio_max);
  c.rep.line(buf);
  const Window wl = add_latency(c.rep, "light", light);
  const Window wh = add_latency(c.rep, "heavy", heavy);
  const double cap = median(capacity);
  if (o.ladder) c.rep.add("serving.rps_max", rps_max, "1/s");
  c.rep.add("serving.capacity_rps", cap, "1/s");
  const double pts_per_req = double{kServeN} * kServeN * kServeSteps;
  const Window wu = add_latency(c.rep, "unloaded", {ul});
  std::snprintf(buf, sizeof buf,
                "latency_ms_p50.light %.3f ms, latency_ms_tail.light %.3f ms, "
                "latency_ms_p50.heavy %.3f ms, latency_ms_tail.heavy %.3f ms",
                wl.p50 * 1e3, wl.tail * 1e3, wh.p50 * 1e3, wh.tail * 1e3);
  c.rep.line(buf + (o.ladder ? ", rps_max " + std::to_string(rps_max) + " 1/s"
                             : std::string()));
  if (!c.probe) {
    c.rep.add("latency_ms_p50", wu.p50 * 1e3, "ms");
    c.rep.add("bench.latency_ms_tail", wu.tail * 1e3, "ms");
    c.rep.add("gpts_per_s", cap * pts_per_req / 1e9, "Gpt/s");
  }
  std::vector<double> lag;  // open-loop windows only: bursts are due at once
  for (const auto* v : {&light, &heavy})
    for (const Phase& p : *v) lag.insert(lag.end(), p.lag.begin(), p.lag.end());
  c.rep.add("bench.gen_lag_ms_tail", summarize(lag).tail * 1e3, "ms");

  Phase hv;  // every heavy window pooled
  for (const Phase& p : heavy) {
    for (auto [dst, src] : {std::pair{&hv.submit, &p.submit}, {&hv.queue, &p.queue},
                            {&hv.exec, &p.exec}, {&hv.deliver, &p.deliver},
                            {&hv.batch, &p.batch},
                            {&hv.lat, &p.lat}, {&hv.lag, &p.lag}})
      dst->insert(dst->end(), src->begin(), src->end());
  }
  const Summary sub = summarize(hv.submit), q = summarize(hv.queue),
                ex = summarize(hv.exec), dl = summarize(hv.deliver),
                bs = summarize(hv.batch);
  c.rep.add("serving.submit_us_p50", sub.p50 * 1e6, "us");
  c.rep.add("serving.submit_us_tail", sub.tail * 1e6, "us");
  c.rep.add("serving.queue_ms_p50", q.p50 * 1e3, "ms");
  c.rep.add("serving.queue_ms_tail", q.tail * 1e3, "ms");
  c.rep.add("serving.exec_ms_p50", ex.p50 * 1e3, "ms");
  c.rep.add("serving.exec_ms_tail", ex.tail * 1e3, "ms");
  c.rep.add("serving.batch_mean", bs.mean, "count");
  c.rep.add("serving.requests_per_batch",
            open.batches > 0 ? static_cast<double>(open.completed) / open.batches
                             : 0.0,
            "count");
  c.rep.add("serving.reject_ratio",
            static_cast<double>(open.rejected) /
                static_cast<double>(std::max(1L, open.submitted)),
            "ratio");
  std::snprintf(buf, sizeof buf,
                "  heavy: submit p50 %.1f us, queue p50 %.3f ms, exec p50 %.3f "
                "ms, delivery p50 %.1f us, batch mean %.2f; capacity %.0f req/s "
                "(median of %zu bursts of %d)",
                sub.p50 * 1e6, q.p50 * 1e3, ex.p50 * 1e3, dl.p50 * 1e6, bs.mean, cap,
                capacity.size(), kBurst);
  c.rep.line(buf);
  if (!tracing || c.probe) return;

  c.rep.add("bench.trace_overhead",
            median(heavy_p50_traced) / median(heavy_p50_untraced) - 1.0, "ratio");
  // Per request at the heavy rate: the batch a request rides in runs its
  // items on the pool's workers, so each request waits for about
  // batch / workers item executions. Item costs come from the direct-call
  // probes (run_layer_probes) on the same request shapes.
  const auto m = [&](const char* name) {
    const auto it = c.rep.metrics.find(name);
    return it == c.rep.metrics.end() ? 0.0 : it->second.value;
  };
  const double items = std::max(1.0, bs.mean / kServeThreads);
  // Modelled, not counted: advance() transforms both views in and out
  // (four involutions) when the kernel's preferred layout is not natural.
  double per_item_transforms = 0;
  for (const Kind& k : kinds)
    if (k.ps.preferred_layout() != sf::Layout::Natural)
      per_item_transforms += k.def->share * 4 * m("layout.transform_us");
  c.rep.line("serve-small breakdown (per request at the heavy rate, means):");
  print_breakdown(
      c, summarize(hv.lat).mean * 1e3,
      {{"bench", summarize(hv.lag).mean * 1e3, "span: generator lag, due to submit()"},
       {"serving",
        (sub.mean - m("engine.validate_us") * 1e-6 + q.mean + dl.mean) * 1e3,
        "span: submit() minus validate_views, queue wait, delivery after the batch"},
       {"engine", (m("engine.validate_us") + items * m("engine.self_us")) * 1e-3,
        "probe: validate_views at submit + advance() self per item"},
       {"runtime", m("runtime.dispatch_us") * 1e-3, "probe: one pool dispatch per batch"},
       {"tiling",
        items * std::max(0.0, m("tiling.serve_item_us") - m("kernels.serve_us") -
                                  per_item_transforms) * 1e-3,
        "probe: run_tile_plan minus kernel and transforms, per item"},
       {"layout", items * per_item_transforms * 1e-3,
        "model: apply_transpose_layout x 4 per item if the layout is not natural"},
       {"kernels", items * m("kernels.serve_us") * 1e-3,
        "probe: kernel on views in its resident layout, per item"}});
}

}  // namespace pb
