// hostbench: the host cost of simulating three reference workloads.
//
// Each run builds fresh Machines through the public API on the default
// engine, from one host thread, and times the public calls a user makes:
//
//   construct  Machine(cfg, opt)
//   inject     benchmark-side setup and start_thread (nothing for grain and
//              kvserve, whose simulation call injects its own threads)
//   run        run_started() / run() / apps::kvserve_run()
//   collect    output checks, Stats::get, machine_digest
//   teardown   ~Machine
//
// It repeats construct..teardown until --seconds have passed (at least
// kMinRepeats times) and reports medians. Simulated results are checked, not
// timed: every repeat at one seed must give the same event count, final
// cycle and machine digest, and each workload's outputs must be complete.
//
// --trace 0 prints the end-to-end metrics (setup_s, run_s, total_s,
// peak_rss_mib). --trace 1 prints the per-layer metrics instead: it first
// makes kTracedRuns traced runs (host spans around each public call, with
// Stats snapshots at the span boundaries, plus per-node simulated spans
// around Communicator::barrier; written as Chrome trace JSON), then the
// untraced repeats, one run at a held-out seed, and timed kernel probes.
// The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
//   hostbench --workload barrier_msg_1024 --seed 1 --seconds 10 --trace 0
//             [--size full|short] [--trace-out FILE]
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/grain.hpp"
#include "apps/kvserve.hpp"
#include "core/machine.hpp"
#include "core/machine_image.hpp"
#include "runtime/collective.hpp"
#include "sim/fiber.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace {

using namespace alewife;
using Clock = std::chrono::steady_clock;

constexpr int kMinRepeats = 3;

/// Traced runs per --trace 1 run; trace_overhead uses their median run_s.
constexpr int kTracedRuns = 3;

/// XOR-ed into --seed for the held-out run: a seed no timed run uses.
constexpr std::uint64_t kHeldOutSalt = 0x9E3779B97F4A7C15ull;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// A "VmHWM:" / "VmRSS:" field of /proc/self/status, in MiB.
double proc_status_mib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::stod(line.substr(len)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error(std::string("no ") + field + " in /proc/self/status");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Metrics = std::vector<Metric>;

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ---- Workloads --------------------------------------------------------------

struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Simulated-time span of one node in one barrier episode.
struct SimSpan {
  NodeId node = 0;
  std::uint32_t episode = 0;
  Cycles enter = 0;
  Cycles exit = 0;
};

/// One workload instance drives one Machine through a single run.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual MachineConfig config() const = 0;
  /// Setup the benchmark does itself plus thread injection.
  virtual void inject(Machine& m) = 0;
  /// The call that simulates.
  virtual void simulate(Machine& m) = 0;
  /// Simulated cycles of the measured region (folded into the digest).
  virtual Cycles duration() const = 0;
  /// Output checks: operations attempted and failed.
  virtual Ops check(Machine& m) const = 0;
  /// Model outputs this workload produces (zero elsewhere).
  virtual void model_metrics(Machine& m, Metrics& out) const = 0;
  /// Simulated spans (traced barrier runs only).
  virtual std::vector<SimSpan> sim_spans() const { return {}; }
};

/// 1024 nodes in the msg combining barrier, arity 8, default RuntimeOptions.
class BarrierMsg : public Workload {
 public:
  BarrierMsg(bool full, bool trace)
      : nodes_(full ? 1024 : 64), episodes_(full ? 20 : 4), trace_(trace) {}

  MachineConfig config() const override {
    MachineConfig c;
    c.nodes = nodes_;
    return c;
  }

  void inject(Machine& m) override {
    CollectiveConfig cc;
    cc.mech = CollMech::kMsg;
    cc.arity = 8;
    comm_ = std::make_unique<Communicator>(m.runtime(), cc);
    done_.assign(nodes_, 0);
    if (trace_) spans_.assign(std::size_t{nodes_} * episodes_, SimSpan{});
    for (NodeId n = 0; n < nodes_; ++n) {
      m.start_thread(n, [this, n](Context& ctx) {
        if (n == 0) t0_ = ctx.now();
        for (std::uint32_t e = 0; e < episodes_; ++e) {
          const Cycles enter = ctx.now();
          comm_->barrier(ctx);
          if (trace_) spans_[std::size_t{n} * episodes_ + e] = {n, e, enter, ctx.now()};
          ++done_[n];
        }
        if (n == 0) t1_ = ctx.now();
      });
    }
  }

  void simulate(Machine& m) override { m.run_started(); }
  Cycles duration() const override { return t1_ - t0_; }

  Ops check(Machine&) const override {
    Ops ops{std::uint64_t{nodes_} * episodes_, 0};
    for (const std::uint32_t d : done_) ops.failed += episodes_ - std::min(d, episodes_);
    return ops;
  }

  void model_metrics(Machine&, Metrics& out) const override {
    out.push_back({"rt.barrier_episode_cycles",
                   double(t1_ - t0_) / double(episodes_), "cycles"});
    double wait = 0;
    for (const SimSpan& s : spans_) wait += double(s.exit - s.enter);
    out.push_back({"rt.sync_wait_cycles",
                   spans_.empty() ? 0.0 : wait / double(spans_.size()),
                   "cycles"});
  }

  std::vector<SimSpan> sim_spans() const override { return spans_; }

 private:
  std::uint32_t nodes_;
  std::uint32_t episodes_;
  bool trace_;
  std::unique_ptr<Communicator> comm_;
  std::vector<std::uint32_t> done_;
  std::vector<SimSpan> spans_;  ///< [node * episodes + episode]
  Cycles t0_ = 0;
  Cycles t1_ = 0;
};

/// 64 nodes running the grain tree, delay 0, hybrid scheduler with stealing.
class GrainHybrid : public Workload {
 public:
  explicit GrainHybrid(bool full) : nodes_(full ? 64 : 16), depth_(full ? 20 : 12) {}

  MachineConfig config() const override {
    MachineConfig c;
    c.nodes = nodes_;
    return c;
  }

  void inject(Machine&) override {}

  void simulate(Machine& m) override {
    leaves_ = m.run([this](Context& ctx) -> std::uint64_t {
      const Cycles t0 = ctx.now();
      const std::uint64_t n = apps::grain_parallel(ctx, depth_, 0);
      dur_ = ctx.now() - t0;
      return n;
    });
  }

  Cycles duration() const override { return dur_; }

  Ops check(Machine&) const override {
    const std::uint64_t want = std::uint64_t{1} << depth_;
    return {want, leaves_ > want ? leaves_ - want : want - leaves_};
  }

  void model_metrics(Machine&, Metrics&) const override {}

 private:
  std::uint32_t nodes_;
  std::uint32_t depth_;
  std::uint64_t leaves_ = 0;
  Cycles dur_ = 0;
};

/// 64 nodes serving kvserve's default mix, open loop at 16 req/kcycle.
class KvserveZipf : public Workload {
 public:
  explicit KvserveZipf(bool full) : nodes_(full ? 64 : 16) {
    cfg_.requests = full ? 32768 : 2048;
    cfg_.load = 16;
  }

  MachineConfig config() const override {
    MachineConfig c;
    c.nodes = nodes_;
    return c;
  }

  void inject(Machine&) override {}
  void simulate(Machine& m) override { r_ = apps::kvserve_run(m, cfg_); }
  Cycles duration() const override { return r_.duration; }

  Ops check(Machine&) const override {
    const std::uint64_t done = r_.completed + r_.failed;
    const std::uint64_t missing = done < cfg_.requests ? cfg_.requests - done
                                                       : done - cfg_.requests;
    return {cfg_.requests, r_.failed + missing};
  }

  void model_metrics(Machine& m, Metrics& out) const override {
    const Stats& st = m.stats();
    std::uint64_t queue_peak = 0;
    for (NodeId n = 0; n < m.nodes(); ++n) {
      queue_peak = std::max(queue_peak, st.get(MetricId::kKvQueuePeak, n));
    }
    const std::uint64_t gets = st.get(MetricId::kKvGets);
    out.push_back({"kv.p50_cycles", r_.latency.percentile(0.50), "cycles"});
    out.push_back({"kv.p99_cycles", r_.latency.percentile(0.99), "cycles"});
    out.push_back({"kv.achieved_per_kcycle",
                   r_.duration ? double(r_.completed) * 1000.0 / double(r_.duration)
                               : 0.0,
                   "1/kcycle"});
    out.push_back({"kv.hot_read_frac",
                   gets ? double(st.get(MetricId::kKvHotReads)) / double(gets) : 0.0,
                   "ratio"});
    out.push_back({"kv.queue_peak", double(queue_peak), "count"});
  }

 private:
  std::uint32_t nodes_;
  apps::KvServeConfig cfg_;
  apps::KvServeResult r_;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name, bool full,
                                        bool trace) {
  if (name == "barrier_msg_1024") return std::make_unique<BarrierMsg>(full, trace);
  if (name == "grain_hybrid_64") return std::make_unique<GrainHybrid>(full);
  if (name == "kvserve_zipf_64") return std::make_unique<KvserveZipf>(full);
  return nullptr;
}

// ---- Tracing ----------------------------------------------------------------

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// One host-time span. Children of a workload run carry its index as parent.
struct HostSpan {
  std::string name;
  int run_id = 0;
  int parent = -1;
  double ts_us = 0;
  double dur_us = 0;
  /// Nonzero typed-counter deltas between the span's Stats snapshots.
  Counters counters;
};

struct Trace {
  Clock::time_point origin = Clock::now();
  std::vector<HostSpan> host;
  std::vector<SimSpan> sim;  ///< of the last traced run

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  }

  int add(std::string name, int run_id, int parent, Clock::time_point a,
          Clock::time_point b, Counters counters = {}) {
    host.push_back({std::move(name), run_id, parent, us(a), us(b) - us(a),
                    std::move(counters)});
    return int(host.size()) - 1;
  }
};

/// Nonzero machine-wide counters of a snapshot or of a snapshot delta.
Counters nonzero_counters(const StatsSnapshot& s) {
  Counters out;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const auto id = static_cast<MetricId>(i);
    if (const std::uint64_t v = s.get(id)) out.emplace_back(metric_info(id).name, v);
  }
  return out;
}

void write_chrome_trace(const Trace& t, const std::string& path,
                        const std::string& workload, std::uint64_t seed) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"" << workload
      << "\",\"seed\":" << seed
      << ",\"pid1\":\"host time, us\",\"pid2\":\"simulated time, cycles\"},"
      << "\"traceEvents\":[\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
         "\"host (us)\"}},\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":"
         "\"simulated (cycles)\"}}";
  for (std::size_t i = 0; i < t.host.size(); ++i) {
    const HostSpan& s = t.host[i];
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"host\",\"ph\":\"X\","
        << "\"pid\":1,\"tid\":1,\"ts\":" << number(s.ts_us)
        << ",\"dur\":" << number(s.dur_us) << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"run_id\":" << s.run_id;
    for (const auto& [name, v] : s.counters) out << ",\"" << name << "\":" << v;
    out << "}}";
  }
  for (const SimSpan& s : t.sim) {
    out << ",\n{\"name\":\"barrier\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":2,"
        << "\"tid\":" << s.node << ",\"ts\":" << s.enter
        << ",\"dur\":" << s.exit - s.enter << ",\"args\":{\"episode\":"
        << s.episode << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

// ---- One construct..teardown run ---------------------------------------------

struct RunResult {
  double construct_s = 0, inject_s = 0, run_s = 0, collect_s = 0,
         teardown_s = 0;
  double setup_s = 0, total_s = 0;
  double run_cpu_s = 0;
  double rss_after_construct_mib = 0;
  std::uint64_t events = 0;
  Cycles cycles = 0;
  std::uint64_t digest = 0;
  Ops ops;
  Metrics layer;  ///< counters and model outputs, read in collect
};

/// Counters read from Stats::get after a run, by layer.
constexpr MetricId kLayerCounters[] = {
    MetricId::kProcInterrupts,     MetricId::kProcInterruptCycles,
    MetricId::kProcStolenCycles,   MetricId::kRtSpawns,
    MetricId::kRtTasksRun,         MetricId::kRtTouchSuspended,
    MetricId::kRtStealAttempts,    MetricId::kNetPackets,
    MetricId::kNetUserPackets,     MetricId::kNetCoherencePackets,
    MetricId::kNetBytes,           MetricId::kNetLinkStallCycles,
    MetricId::kCmmuMessagesSent,   MetricId::kCmmuMessagePayloadBytes,
    MetricId::kMemReadMisses,      MetricId::kMemWriteMisses,
    MetricId::kMemInvalidations,   MetricId::kMemLimitlessTraps,
    MetricId::kMemHomeQueued,      MetricId::kBulkMsgPullBytes,
};

/// Every per-layer metric --trace 1 prints, in order (BENCHMARK.json lists
/// the same names).
const Metric kPerLayer[] = {
    {"sim.events", 0, "count"},
    {"sim.cycles", 0, "cycles"},
    {"sim.events_per_s", 0, "1/s"},
    {"sim.probe_ns_per_event", 0, "ns"},
    {"sim.probe_switch_ns", 0, "ns"},
    {"sim.kernel_share_est", 0, "ratio"},
    {"proc.interrupts", 0, "count"},
    {"proc.interrupt_cycles", 0, "cycles"},
    {"proc.stolen_cycles", 0, "cycles"},
    {"rt.spawns", 0, "count"},
    {"rt.tasks_run", 0, "count"},
    {"rt.touch_suspended", 0, "count"},
    {"rt.steal_attempts", 0, "count"},
    {"rt.steal_hit_frac", 0, "ratio"},
    {"rt.barrier_episode_cycles", 0, "cycles"},
    {"rt.sync_wait_cycles", 0, "cycles"},
    {"net.packets", 0, "count"},
    {"net.user_packets", 0, "count"},
    {"net.coherence_packets", 0, "count"},
    {"net.bytes", 0, "bytes"},
    {"net.link_stall_cycles", 0, "cycles"},
    {"cmmu.messages_sent", 0, "count"},
    {"cmmu.message_payload_bytes", 0, "bytes"},
    {"mem.read_misses", 0, "count"},
    {"mem.write_misses", 0, "count"},
    {"mem.invalidations", 0, "count"},
    {"mem.limitless_traps", 0, "count"},
    {"mem.home_queued", 0, "count"},
    {"bulk.msg_pull_bytes", 0, "bytes"},
    {"core.construct_s", 0, "s"},
    {"core.inject_s", 0, "s"},
    {"core.collect_s", 0, "s"},
    {"core.teardown_s", 0, "s"},
    {"core.rss_after_construct_mib", 0, "MiB"},
    {"kv.p50_cycles", 0, "cycles"},
    {"kv.p99_cycles", 0, "cycles"},
    {"kv.achieved_per_kcycle", 0, "1/kcycle"},
    {"kv.hot_read_frac", 0, "ratio"},
    {"kv.queue_peak", 0, "count"},
    {"host.run_cpu_s", 0, "s"},
    {"host.descheduled_frac", 0, "ratio"},
    {"trace_overhead", 0, "ratio"},
};

RunResult run_once(const std::string& name, bool full, std::uint64_t seed,
                   Trace* trace, int run_id) {
  RunResult r;
  std::unique_ptr<Workload> w = make_workload(name, full, trace != nullptr);
  MachineConfig cfg = w->config();
  cfg.rng_seed = seed;

  const Clock::time_point t0 = Clock::now();
  auto m = std::make_unique<Machine>(cfg, RuntimeOptions{});
  const Clock::time_point t1 = Clock::now();
  StatsSnapshot s0, s1, s2;
  if (trace) {
    r.rss_after_construct_mib = proc_status_mib("VmRSS:");
    s0 = m->stats().snapshot();
  }
  const Clock::time_point t1b = Clock::now();
  w->inject(*m);
  const Clock::time_point t2 = Clock::now();
  if (trace) s1 = m->stats().snapshot();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t2b = Clock::now();
  w->simulate(*m);
  const Clock::time_point t3 = Clock::now();
  r.run_cpu_s = process_cpu_seconds() - cpu0;
  if (trace) s2 = m->stats().snapshot();

  const Clock::time_point t3b = Clock::now();
  r.ops = w->check(*m);
  r.events = m->sim().events_executed();
  r.cycles = m->now();
  r.digest = machine_digest(*m, w->duration());
  const Stats& st = m->stats();
  for (const MetricId id : kLayerCounters) {
    const MetricInfo& info = metric_info(id);
    r.layer.push_back({info.name, double(st.get(id)), info.unit});
  }
  const std::uint64_t attempts = st.get(MetricId::kRtStealAttempts);
  r.layer.push_back({"rt.steal_hit_frac",
                     attempts ? double(st.get(MetricId::kRtSteals)) / double(attempts)
                              : 0.0,
                     "ratio"});
  w->model_metrics(*m, r.layer);
  const Clock::time_point t4 = Clock::now();

  m.reset();
  const Clock::time_point t5 = Clock::now();

  r.construct_s = seconds_between(t0, t1);
  r.inject_s = seconds_between(t1b, t2);
  r.run_s = seconds_between(t2b, t3);
  r.collect_s = seconds_between(t3b, t4);
  r.teardown_s = seconds_between(t4, t5);
  // In a traced run the probes between phases (RSS read, snapshots) belong
  // to no phase but fall inside setup_s / total_s; untraced runs time only
  // the public calls.
  r.setup_s = seconds_between(t0, t2b);
  r.total_s = seconds_between(t0, t5);

  if (trace) {
    const int parent = trace->add("workload run", run_id, -1, t0, t5);
    trace->add("construct", run_id, parent, t0, t1, nonzero_counters(s0));
    trace->add("inject", run_id, parent, t1b, t2, nonzero_counters(s1 - s0));
    trace->add("run", run_id, parent, t2b, t3, nonzero_counters(s2 - s1));
    trace->add("collect", run_id, parent, t3b, t4);
    trace->add("teardown", run_id, parent, t4, t5);
    trace->sim = w->sim_spans();
  }
  return r;
}

// ---- Kernel probes ------------------------------------------------------------

/// One of many concurrent event chains; each step reschedules itself with a
/// pseudo-random delay so the queue holds a realistic number of events.
struct ProbeTick {
  Simulator* sim;
  std::uint64_t* left;
  std::uint32_t lcg;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    const std::uint32_t next = lcg * 1664525u + 1013904223u;
    sim->schedule(1 + (next >> 26), ProbeTick{sim, left, next});
  }
};

/// Host ns per event through Simulator::schedule / run, median of 5 trials.
double probe_ns_per_event(std::uint32_t chains, std::uint64_t events) {
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    Simulator sim;
    std::uint64_t left = events;
    for (std::uint32_t c = 0; c < chains; ++c) {
      sim.schedule(0, ProbeTick{&sim, &left, c});
    }
    const Clock::time_point a = Clock::now();
    sim.run();
    const Clock::time_point b = Clock::now();
    trials.push_back(seconds_between(a, b) * 1e9 / double(sim.events_executed()));
  }
  return median(trials);
}

/// Host ns per Fiber::resume + Fiber::yield round trip, median of 5 trials.
double probe_switch_ns(std::uint64_t switches) {
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    bool stop = false;
    Fiber f;
    f.reset([&stop] {
      while (!stop) Fiber::yield();
    });
    const Clock::time_point a = Clock::now();
    for (std::uint64_t i = 0; i < switches; ++i) f.resume();
    const Clock::time_point b = Clock::now();
    stop = true;
    f.resume();
    if (!f.finished()) throw std::runtime_error("probe fiber did not finish");
    trials.push_back(seconds_between(a, b) * 1e9 / double(switches));
  }
  return median(trials);
}

// ---- Command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool full = true;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload "
               "barrier_msg_1024|grain_hybrid_64|kvserve_zipf_64 --seed N "
               "--seconds S --trace 0|1 [--size full|short] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--size") {
        if (v != "full" && v != "short") usage("--size must be full or short");
        a.full = v == "full";
      } else if (flag == "--trace-out") {
        a.trace_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!make_workload(a.workload, true, false)) usage("unknown workload '" + a.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

struct Summary {
  std::vector<RunResult> runs;
  Ops ops;
  bool deterministic = true;
};

/// Untraced repeats until `seconds` have passed (at least kMinRepeats).
/// A repeat whose events, cycles or digest differ from the first fails all
/// its operations.
Summary repeat(const Args& a) {
  Summary s;
  const Clock::time_point start = Clock::now();
  while (int(s.runs.size()) < kMinRepeats ||
         seconds_between(start, Clock::now()) < a.seconds) {
    RunResult r = run_once(a.workload, a.full, a.seed, nullptr, 0);
    s.ops.attempted += r.ops.attempted;
    s.ops.failed += r.ops.failed;
    if (!s.runs.empty()) {
      const RunResult& ref = s.runs.front();
      if (r.events != ref.events || r.cycles != ref.cycles ||
          r.digest != ref.digest) {
        s.deterministic = false;
        s.ops.failed += r.ops.attempted - r.ops.failed;
      }
    }
    s.runs.push_back(std::move(r));
  }
  return s;
}

double median_of(const std::vector<RunResult>& runs, double RunResult::*field) {
  std::vector<double> v;
  for (const RunResult& r : runs) v.push_back(r.*field);
  return median(v);
}

void print_result(bool correct, const Ops& ops, const Metrics& metrics) {
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int bench(const Args& a) {
  std::printf("hostbench: workload=%s seed=%llu size=%s trace=%d\n",
              a.workload.c_str(), (unsigned long long)a.seed,
              a.full ? "full" : "short", a.trace);
  // Traced runs go first, so the first one constructs in a fresh process
  // and its RSS after construction is the machine's alone.
  Trace trace;
  std::vector<RunResult> traced_runs;
  if (a.trace) {
    for (int id = 1; id <= kTracedRuns; ++id) {
      traced_runs.push_back(run_once(a.workload, a.full, a.seed, &trace, id));
    }
  }
  Summary s = repeat(a);
  const RunResult& ref = s.runs.front();
  std::printf("repeats %zu: events %llu, cycles %llu, digest %016llx, "
              "ops %llu attempted / %llu failed%s\n",
              s.runs.size(), (unsigned long long)ref.events,
              (unsigned long long)ref.cycles, (unsigned long long)ref.digest,
              (unsigned long long)s.ops.attempted,
              (unsigned long long)s.ops.failed,
              s.deterministic ? "" : " (repeats diverged)");
  const double run_s = median_of(s.runs, &RunResult::run_s);
  for (const auto& [label, field] :
       {std::pair{"setup_s", &RunResult::setup_s},
        std::pair{"run_s", &RunResult::run_s},
        std::pair{"total_s", &RunResult::total_s}}) {
    std::vector<double> v;
    for (const RunResult& r : s.runs) v.push_back(r.*field);
    std::printf("  %-8s min %.6f median %.6f max %.6f over %zu repeats\n",
                label, *std::min_element(v.begin(), v.end()), median(v),
                *std::max_element(v.begin(), v.end()), v.size());
  }
  bool correct = s.deterministic && s.ops.failed == 0;

  Metrics metrics;
  if (a.trace == 0) {
    metrics = {
        {"setup_s", median_of(s.runs, &RunResult::setup_s), "s"},
        {"run_s", run_s, "s"},
        {"total_s", median_of(s.runs, &RunResult::total_s), "s"},
        {"peak_rss_mib", proc_status_mib("VmHWM:"), "MiB"},
    };
    print_result(correct, s.ops, metrics);
    return 0;
  }

  // Each traced run at the same seed must reproduce the untraced digest.
  bool traced_same = true;
  for (std::size_t i = 0; i < traced_runs.size(); ++i) {
    const RunResult& t = traced_runs[i];
    s.ops.attempted += t.ops.attempted;
    s.ops.failed += t.ops.failed;
    const bool same = t.events == ref.events && t.cycles == ref.cycles &&
                      t.digest == ref.digest;
    if (!same) s.ops.failed += t.ops.attempted - t.ops.failed;
    traced_same = traced_same && same;
    std::printf("traced run %zu: digest %016llx (%s)\n", i + 1,
                (unsigned long long)t.digest,
                same ? "equal to untraced" : "DIFFERS from untraced");
  }
  const RunResult& traced = traced_runs.back();

  // Held-out seed: same checks, and the seed must reach the model.
  const std::uint64_t held_seed = a.seed ^ kHeldOutSalt;
  const RunResult held =
      run_once(a.workload, a.full, held_seed, nullptr, kTracedRuns + 1);
  s.ops.attempted += held.ops.attempted;
  s.ops.failed += held.ops.failed;
  const bool seed_reaches = held.digest != ref.digest;
  if (!seed_reaches) s.ops.failed += 1;
  std::printf("held-out seed %llu: digest %016llx, %llu failed ops (%s)\n",
              (unsigned long long)held_seed, (unsigned long long)held.digest,
              (unsigned long long)held.ops.failed,
              seed_reaches ? "seed reaches the model"
                           : "SAME digest: seed does not reach the model");
  correct = correct && traced_same && seed_reaches && s.ops.failed == 0;

  const double probe_event_ns = probe_ns_per_event(1024, 1u << 20);
  const double probe_switch = probe_switch_ns(1u << 20);
  const double events = double(ref.events);
  double run_cpu = 0, run_wall = 0;
  for (const RunResult& r : s.runs) {
    run_cpu += r.run_cpu_s;
    run_wall += r.run_s;
  }

  // Counters and model outputs come from the traced run (its digest equals
  // the untraced one, and only it has the barrier's simulated spans).
  Metrics measured = traced.layer;
  const Metrics host = {
      {"sim.events", events, "count"},
      {"sim.cycles", double(ref.cycles), "cycles"},
      {"sim.events_per_s", events / run_s, "1/s"},
      {"sim.probe_ns_per_event", probe_event_ns, "ns"},
      {"sim.probe_switch_ns", probe_switch, "ns"},
      {"sim.kernel_share_est", events * probe_event_ns * 1e-9 / run_s, "ratio"},
      {"core.construct_s", median_of(s.runs, &RunResult::construct_s), "s"},
      {"core.inject_s", median_of(s.runs, &RunResult::inject_s), "s"},
      {"core.collect_s", median_of(s.runs, &RunResult::collect_s), "s"},
      {"core.teardown_s", median_of(s.runs, &RunResult::teardown_s), "s"},
      {"core.rss_after_construct_mib", traced_runs.front().rss_after_construct_mib,
       "MiB"},
      {"host.run_cpu_s", median_of(s.runs, &RunResult::run_cpu_s), "s"},
      {"host.descheduled_frac", std::max(0.0, 1.0 - run_cpu / run_wall), "ratio"},
      {"trace_overhead", median_of(traced_runs, &RunResult::run_s) / run_s,
       "ratio"},
  };
  measured.insert(measured.end(), host.begin(), host.end());

  // Every workload prints the same per-layer names; a layer the workload
  // does not exercise reads 0.
  for (const Metric& want : kPerLayer) {
    double value = 0;
    for (const Metric& m : measured) {
      if (m.name == want.name) value = m.value;
    }
    metrics.push_back({want.name, value, want.unit});
  }

  if (!a.trace_out.empty()) {
    write_chrome_trace(trace, a.trace_out, a.workload, a.seed);
    std::printf("trace: %zu host spans, %zu simulated spans -> %s\n",
                trace.host.size(), trace.sim.size(), a.trace_out.c_str());
  }
  print_result(correct, s.ops, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return bench(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
