// fleet_soak and fleet_chaos: an open-loop job trace in simulated time served
// by a serve::FleetRouter over SocExecutor shards.
//
// One replay = build the fleet, serve the whole trace with one
// FleetRouter::run call, check every gate. The timed loop replays the same
// trace on a fresh fleet until the time box is spent; every replay must
// reproduce the first one's sim_digest.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "check/protocol_monitor.h"
#include "fault/fleet_fault.h"
#include "harness.h"
#include "model/runtime_model.h"
#include "serve/fleet.h"
#include "serve/fleet_soak.h"
#include "serve/soc_executor.h"

namespace perfbench {
namespace {

using mco::serve::BatchExecutionOutcome;
using mco::serve::ExecutionOutcome;
using mco::serve::JobOutcome;
using mco::serve::JobVerdict;
using mco::serve::ServeJob;

constexpr std::size_t kTraceJobs = 3008;
constexpr unsigned kClustersPerShard = 8;

struct FleetSpec {
  unsigned shards = 4;
  bool chaos = false;  ///< attestation + corruption + shard 1 crash/heal
};

/// What the executors of one or more replays did, measured from outside.
struct ExecStats {
  Samples exec_us;     ///< per executor call
  Samples offload_us;  ///< per offload: call time / offloads in the call
  std::int64_t exec_ns = 0;
  std::int64_t soc_monitor_ns = 0;  ///< observe() time on the Soc traces
  std::uint64_t calls = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t offloads = 0;
  std::uint64_t single_offloads = 0;  ///< clean execute() calls: phase counters
  std::uint64_t records = 0;
  std::uint64_t single_tiles = 0;  ///< tiles of the clean execute() calls
  double mape_sum = 0.0;  ///< Σ |t − t̂| / t over clean execute() calls
  SocCounters work;

  void merge(const ExecStats& o) {
    exec_us.merge(o.exec_us);
    offload_us.merge(o.offload_us);
    exec_ns += o.exec_ns;
    soc_monitor_ns += o.soc_monitor_ns;
    calls += o.calls;
    batch_calls += o.batch_calls;
    offloads += o.offloads;
    single_offloads += o.single_offloads;
    records += o.records;
    single_tiles += o.single_tiles;
    mape_sum += o.mape_sum;
    work += o.work;
  }
};

/// Where one replay's executors report to.
struct ReplayProbe {
  SpanRecorder& spans;
  std::uint64_t run_span = 0;
  ExecStats stats;
};

/// An Executor that forwards to a SocExecutor and measures each call from
/// outside: host time, the Soc's work counters, and the time its
/// ProtocolMonitor spends observing the Soc's trace.
class MeasuredExecutor final : public mco::serve::Executor {
 public:
  MeasuredExecutor(const mco::serve::SocExecutorConfig& cfg, ReplayProbe& probe)
      : probe_(probe), inner_(cfg) {
    attach_monitor();
  }
  MeasuredExecutor(const MeasuredExecutor&) = delete;
  MeasuredExecutor& operator=(const MeasuredExecutor&) = delete;

  ExecutionOutcome execute(const ServeJob& job, unsigned m, bool probe) override {
    ExecutionOutcome out;
    if (measured(1, job.id, /*single=*/true, [&] { out = inner_.execute(job, m, probe); })) {
      const double t = static_cast<double>(out.duration);
      probe_.stats.mape_sum += std::abs(t - model_.predict(m, job.n)) / t;
    }
    return out;
  }

  BatchExecutionOutcome execute_batch(const std::vector<ServeJob>& jobs, unsigned m) override {
    BatchExecutionOutcome out;
    measured(jobs.size(), jobs.empty() ? 0 : jobs.front().id, /*single=*/false,
             [&] { out = inner_.execute_batch(jobs, m); });
    return out;
  }

  void restart() override {
    retire_monitor(/*finish=*/true);
    inner_.restart();
    attach_monitor();
  }

  /// Violations over every Soc this executor has used; finishes the live
  /// monitor (call once, after the replay).
  std::uint64_t finish_violations() {
    monitor_->finish();
    return banked_violations_ + monitor_->total_violations();
  }
  /// Socs rebuilt after crashed offloads or restarts.
  std::uint64_t rebuilds() const { return inner_.crashes() + inner_.restarts(); }

 private:
  /// Time `call` and account its work. False when the offload crashed and
  /// the executor rebuilt its Soc (no counters for that call).
  template <typename Call>
  bool measured(std::size_t jobs, std::uint64_t op, bool single, Call&& call) {
    ExecStats& st = probe_.stats;
    mco::soc::Soc& soc = inner_.soc();
    const SocCounters before = SocCounters::read(soc);
    const std::vector<std::uint64_t> jobs_before = cluster_job_counts(soc);
    const std::uint64_t crashes = inner_.crashes();
    const std::int64_t mon0 = tap_.ns;
    const std::uint64_t rec0 = tap_.records;
    const std::uint64_t span = probe_.spans.begin("serve.exec", op, probe_.run_span);
    const std::int64_t t0 = now_ns();
    call();
    const std::int64_t dt = now_ns() - t0;
    probe_.spans.end(span);
    probe_.spans.add_aggregated("check.monitor", op, span, t0, tap_.ns - mon0);
    st.soc_monitor_ns += tap_.ns - mon0;
    st.records += tap_.records - rec0;
    st.exec_ns += dt;
    st.exec_us.add(static_cast<double>(dt) * 1e-3);
    for (std::size_t k = 0; k < jobs; ++k) {
      st.offload_us.add(static_cast<double>(dt) * 1e-3 / static_cast<double>(jobs));
    }
    ++st.calls;
    if (!single) ++st.batch_calls;
    st.offloads += jobs;
    if (inner_.crashes() != crashes) {
      // The offload aborted and the executor rebuilt its Soc: the old
      // monitor saw a torn run, so bank it without end-of-run checks and
      // watch the new Soc, whose counters restart from zero.
      retire_monitor(/*finish=*/false);
      attach_monitor();
      return false;
    }
    st.work += SocCounters::delta(SocCounters::read(soc), before);
    if (single) {
      ++st.single_offloads;
      st.single_tiles += tiles_since(soc, jobs_before);
    }
    return true;
  }

  void attach_monitor() {
    monitor_ = std::make_unique<mco::check::ProtocolMonitor>();
    tap_.monitor = monitor_.get();
    tap_.timed = probe_.spans.enabled();
    inner_.soc().simulator().trace().set_observer(&MonitorTap::tap, &tap_);
  }

  void retire_monitor(bool finish) {
    if (finish) monitor_->finish();
    banked_violations_ += monitor_->total_violations();
  }

  ReplayProbe& probe_;
  mco::model::RuntimeModel model_ = mco::model::paper_daxpy_model();
  // Declared before inner_ so the Soc whose trace feeds them dies first.
  std::unique_ptr<mco::check::ProtocolMonitor> monitor_;
  MonitorTap tap_;
  std::uint64_t banked_violations_ = 0;
  mco::serve::SocExecutor inner_;
};

/// A fleet ready to serve: executors, router and the fleet-trace monitor.
struct Fleet {
  std::vector<std::unique_ptr<MeasuredExecutor>> execs;
  // Declared before router so the trace that feeds them dies first.
  mco::check::ProtocolMonitor monitor;
  MonitorTap tap;
  std::unique_ptr<mco::serve::FleetRouter> router;
};

std::unique_ptr<Fleet> build_fleet(const FleetSpec& spec, std::uint64_t seed,
                                   const std::vector<ServeJob>& trace, ReplayProbe& probe) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<mco::serve::Executor*> ptrs;
  for (unsigned s = 0; s < spec.shards; ++s) {
    mco::serve::SocExecutorConfig xc;
    xc.soc = mco::soc::SocConfig::extended(kClustersPerShard);
    xc.tolerance = 1e-5;
    xc.workload_seed = seed * 16 + s;
    xc.crash_penalty_cycles = 20'000;
    xc.monitor = false;  // the benchmark attaches (and times) its own
    if (spec.chaos) {
      xc.soc.runtime.integrity.enabled = true;
      if (s == 0) {
        xc.soc.fault.seed = seed;
        xc.soc.fault.target_cluster = 0;
        xc.soc.fault.payload_flip_prob = 0.02;
      }
    }
    fleet->execs.push_back(std::make_unique<MeasuredExecutor>(xc, probe));
    ptrs.push_back(fleet->execs.back().get());
  }
  mco::serve::FleetConfig fc;
  fc.num_shards = spec.shards;
  fc.clusters_per_shard = kClustersPerShard;
  fc.model = mco::model::paper_daxpy_model();
  fc.max_queue = 16;
  fc.max_clusters_per_job = kClustersPerShard;
  fc.health.failure_threshold = 2;
  fc.health.probation_probes = 1;
  fc.health.probe_backoff_cycles = 5'000;
  fc.max_batch = 4;
  fc.stealing = true;
  if (spec.chaos) fc.integrity.audit_fraction = 0.1;
  fleet->router = std::make_unique<mco::serve::FleetRouter>(fc, ptrs);
  fleet->tap.monitor = &fleet->monitor;
  fleet->tap.timed = probe.spans.enabled();
  fleet->router->trace().set_observer(&MonitorTap::tap, &fleet->tap);
  if (spec.chaos) {
    const mco::sim::Cycle horizon = trace.back().arrival;
    mco::fault::FleetFaultPlan plan(spec.shards);
    plan.add_crash(horizon / 3, 1);
    plan.add_heal(2 * horizon / 3, 1);
    fleet->router->schedule_plan(plan);
  }
  return fleet;
}

/// Everything one replay produced in simulated terms, plus its host time.
struct Replay {
  double run_s = 0.0;
  std::size_t jobs = 0;
  std::uint64_t soc_violations = 0;
  std::uint64_t fleet_violations = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t steals = 0, shard_fails = 0, heals = 0;
  std::uint64_t failovers = 0, lost = 0;
  std::uint64_t detected = 0, escapes = 0, integrity_retries = 0, audits = 0;
  std::uint64_t met = 0, failed = 0, shed = 0;
  Samples queue_wait;  ///< cycles, dispatched jobs
  bool retired_once = true;
  Digest digest;
};

Replay replay(const FleetSpec& spec, std::uint64_t seed, const std::vector<ServeJob>& trace,
              ReplayProbe& probe, std::uint64_t replay_id) {
  Replay r;
  std::unique_ptr<Fleet> fleet;
  {
    const ScopedSpan s(probe.spans, "soc.build", replay_id, 0);
    fleet = build_fleet(spec, seed, trace, probe);
  }
  std::vector<JobOutcome> outcomes;
  {
    const ScopedSpan run(probe.spans, "serve.router", replay_id, 0);
    probe.run_span = run.id();
    const std::int64_t t0 = now_ns();
    outcomes = fleet->router->run(trace);
    r.run_s = static_cast<double>(now_ns() - t0) * 1e-9;
    probe.spans.add_aggregated("check.monitor", replay_id, run.id(), t0, fleet->tap.ns);
  }
  probe.stats.records += fleet->tap.records;
  fleet->monitor.finish();
  r.fleet_violations = fleet->monitor.total_violations();
  for (auto& e : fleet->execs) {
    r.soc_violations += e->finish_violations();
    r.rebuilds += e->rebuilds();
  }
  const mco::serve::FleetRouter& fr = *fleet->router;
  r.steals = fr.steals();
  r.shard_fails = fr.shard_fails();
  r.heals = fr.heals();
  r.failovers = fr.failover_redispatches() + fr.failover_requeues();
  r.lost = fr.failover_lost();
  r.detected = fr.corruptions_detected();
  r.escapes = fr.corruption_escapes();
  r.integrity_retries = fr.integrity_retries();
  r.audits = fr.audits();

  r.jobs = outcomes.size();
  r.retired_once = outcomes.size() == trace.size();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const JobOutcome& o = outcomes[i];
    if (o.job_id != trace[i].id) r.retired_once = false;
    if (o.verdict == JobVerdict::kMet) ++r.met;
    if (o.verdict == JobVerdict::kFailed) ++r.failed;
    if (o.verdict == JobVerdict::kShed) {
      ++r.shed;
    } else {
      r.queue_wait.add(static_cast<double>(o.queue_wait));
    }
    r.digest.add(o.job_id);
    r.digest.add(static_cast<std::uint64_t>(o.verdict));
    r.digest.add(o.m);
    r.digest.add(o.start);
    r.digest.add(o.end);
    r.digest.add(o.failovers);
    r.digest.add(o.integrity_retries);
  }
  const ExecStats& st = probe.stats;
  r.digest.add(fr.makespan());
  r.digest.add(st.work.cycles);
  r.digest.add(st.work.events);
  for (const std::uint64_t ph : st.work.phase) r.digest.add(ph);
  r.digest.add(st.calls);
  r.digest.add(st.batch_calls);
  r.digest.add(r.steals);
  return r;
}

/// The timed replays of one mode (untraced or traced).
struct Phase {
  std::uint64_t replays = 0;
  std::uint64_t jobs = 0;
  double host_s = 0.0;  ///< Σ replay host time, fleet build included
  std::uint64_t faults = 0;  ///< minor page faults over the replays
  ExecStats stats;
  /// Per-replay rates over FleetRouter::run time; the metrics take their
  /// medians, so one replay slowed by a noisy neighbour does not move them.
  Samples jobs_rate, offloads_rate, cycles_rate;
};

Report run_fleet(const Options& opt, const FleetSpec& spec, const char* workload) {
  Report rep;
  Samples setup_s;
  SpanRecorder no_spans(false);
  const mco::model::RuntimeModel model = mco::model::paper_daxpy_model();

  // Gates, judged on every replay.
  std::uint64_t replays = 0, violations = 0, escapes = 0, failed = 0, lost = 0;
  bool retired_once = true, chaos_live = true, identical = true;
  auto judge = [&](const Replay& r) {
    ++replays;
    violations += r.soc_violations + r.fleet_violations;
    escapes += r.escapes;
    failed += r.failed;
    lost += r.lost;
    retired_once = retired_once && r.retired_once;
    if (spec.chaos) {
      chaos_live = chaos_live && r.shard_fails == 1 && r.heals == 1 && r.failovers > 0 &&
                   r.detected > 0 && r.audits > 0;
    }
  };

  // The E22 trace (n = 256·U{1..16}, gaps U[50,350] cycles, Eq.-(1)
  // deadlines with slack, about one unmeetable job in 32), a pure function
  // of the seed.
  mco::serve::SoakTraceConfig trace_cfg = mco::serve::fleet_trace_config(kTraceJobs);
  trace_cfg.seed = opt.seed;

  // Set-up: generate the trace, build the fleet and serve one warm-up
  // replay, untimed for the other metrics. Repeated three times, reporting
  // the median. (Building alone takes under a millisecond, too little to
  // time steadily on a shared machine.) The first warm-up replay is the
  // run's reference: its digest, outcomes and counts.
  std::vector<ServeJob> trace;
  Replay first;
  ExecStats fs;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    trace = mco::serve::generate_trace(trace_cfg, model);
    ReplayProbe probe{no_spans, 0, {}};
    Replay r = replay(spec, opt.seed, trace, probe, 0);
    setup_s.add(static_cast<double>(now_ns() - t0) * 1e-9);
    judge(r);
    if (i == 0) {
      first = std::move(r);
      fs = std::move(probe.stats);
    } else if (r.digest.value() != first.digest.value()) {
      identical = false;
    }
  }

  // Timed replays until the time box is spent. The traced run alternates
  // untraced and traced replays, so both see the same machine conditions.
  SpanRecorder spans(opt.trace);
  Phase m, t;
  const std::int64_t t0 = wall_ns();
  for (std::uint64_t i = 0;; ++i) {
    const bool trace_this = opt.trace && i % 2 == 1;
    Phase& ph = trace_this ? t : m;
    ReplayProbe probe{trace_this ? spans : no_spans, 0, {}};
    const std::uint64_t f0 = minor_faults();
    const std::int64_t w0 = now_ns();
    const Replay r = replay(spec, opt.seed, trace, probe, i + 1);
    ph.host_s += static_cast<double>(now_ns() - w0) * 1e-9;
    ph.faults += minor_faults() - f0;
    judge(r);
    if (r.digest.value() != first.digest.value()) identical = false;
    ++ph.replays;
    ph.jobs += r.jobs;
    ph.jobs_rate.add(static_cast<double>(r.jobs) / r.run_s);
    ph.offloads_rate.add(static_cast<double>(probe.stats.offloads) / r.run_s);
    ph.cycles_rate.add(static_cast<double>(probe.stats.work.cycles) / r.run_s);
    ph.stats.merge(probe.stats);
    const bool spent = static_cast<double>(wall_ns() - t0) * 1e-9 >= opt.seconds;
    if (spent && (!opt.trace || t.replays > 0)) break;
  }

  rep.digest = first.digest.hex();
  rep.attempted = replays * trace.size();
  rep.failed = failed;
  rep.gate("retired_exactly_once", retired_once,
           "every job of " + std::to_string(replays) + " replays retired once, in job order");
  rep.gate("monitor_violations", violations == 0,
           std::to_string(violations) + " violations on every Soc and the fleet trace");
  rep.gate("replays_identical", identical, "every replay reproduces sim_digest");
  rep.gate("no_failed_jobs", failed == 0,
           std::to_string(failed) + " jobs retired failed (" + std::to_string(lost) +
               " lost to failover)");
  if (spec.chaos) {
    rep.gate("corruption_escapes", escapes == 0,
             std::to_string(escapes) + " corrupted results delivered with attestation on");
    rep.gate("chaos_exercised", chaos_live,
             "crash + heal, failovers, detected corruptions and audits on every replay");
  }

  // End-to-end metrics from the untraced replays.
  const double jobs = static_cast<double>(first.jobs);
  std::printf("workload %s: %llu untraced + %llu traced replays of %zu jobs in %.3f s\n",
              workload, static_cast<unsigned long long>(m.replays),
              static_cast<unsigned long long>(t.replays), trace.size(), m.host_s + t.host_s);
  rep.e2e("setup_s", setup_s.median(), "s");
  rep.e2e("offloads_per_sec", m.offloads_rate.median(), "1/s");
  rep.e2e("jobs_per_sec", m.jobs_rate.median(), "1/s");
  rep.e2e("offload_host_us_p50", m.stats.offload_us.median(), "us");
  rep.e2e("offload_host_us_p99", m.stats.offload_us.windowed_percentile(99.0, kTailWindow), "us");
  rep.e2e("sim_cycles_per_sec", m.cycles_rate.median(), "cycles/s");
  rep.e2e("slo_attainment", static_cast<double>(first.met) / jobs, "ratio");
  rep.e2e("model_mape_pct", 100.0 * fs.mape_sum / static_cast<double>(fs.single_offloads), "%");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.extra.push_back(
      {"failed_frac", static_cast<double>(failed) / static_cast<double>(rep.attempted), "ratio"});
  rep.extra.push_back(
      {"samples.offload_host_us", static_cast<double>(m.stats.offload_us.size()), "count"});
  const double faults_per_op =
      static_cast<double>(m.faults) / static_cast<double>(m.stats.offloads);
  if (!opt.trace) {
    rep.extra.push_back({"soc.page_faults_per_op", faults_per_op, "count"});
    return rep;
  }

  // Per-layer: counts from the reference replay (every replay is
  // identical), host time from the traced replays.
  const double offloads = static_cast<double>(fs.offloads);
  add_counter_layers(rep, fs.work, offloads, static_cast<double>(fs.single_offloads),
                     static_cast<double>(fs.single_tiles));
  const ExecStats& ts = t.stats;
  rep.layer("sim.host_ns_per_event",
            static_cast<double>(ts.exec_ns - ts.soc_monitor_ns) /
                static_cast<double>(ts.work.events),
            "ns");
  rep.layer("soc.rebuilds", static_cast<double>(first.rebuilds), "count");
  rep.layer("soc.page_faults_per_op", faults_per_op, "count");
  rep.layer("serve.exec_us_p50", m.stats.exec_us.median(), "us");
  rep.layer("serve.exec_us_p99", m.stats.exec_us.percentile(99.0), "us");
  rep.layer("serve.jobs_per_exec_call", offloads / static_cast<double>(fs.calls), "count");
  rep.layer("serve.batch_calls", static_cast<double>(fs.batch_calls), "count");
  rep.layer("serve.steals", static_cast<double>(first.steals), "count");
  rep.layer("serve.shed_frac", static_cast<double>(first.shed) / jobs, "ratio");
  rep.layer("serve.queue_wait_cycles_p99", first.queue_wait.percentile(99.0), "cycles");
  rep.layer("serve.failovers", static_cast<double>(first.failovers), "count");
  rep.layer("serve.integrity_retries", static_cast<double>(first.integrity_retries), "count");
  rep.layer("serve.audits", static_cast<double>(first.audits), "count");
  rep.layer("check.records_per_job", static_cast<double>(fs.records) / jobs, "count");
  rep.layer("check.violations", static_cast<double>(violations), "count");
  rep.layer("fault.corruptions_detected", static_cast<double>(first.detected), "count");
  rep.layer("fault.escapes", static_cast<double>(escapes), "count");

  double attributed = 0.0;
  for (const auto& [name, self] : spans.self_seconds()) {
    const double share = self / t.host_s;
    rep.layer(name + "_share", share, "ratio");
    attributed += share;
  }
  rep.layer("trace.unattributed_share", 1.0 - attributed, "ratio");
  const double untraced_per_job = m.host_s / static_cast<double>(m.jobs);
  const double traced_per_job = t.host_s / static_cast<double>(t.jobs);
  rep.layer("trace.overhead_pct", 100.0 * (traced_per_job - untraced_per_job) / untraced_per_job,
            "%");
  const std::string path = opt.out_dir + "/spans_" + workload + ".jsonl";
  rep.gate("span_file", spans.write_jsonl(path), path);
  return rep;
}

}  // namespace

Report run_fleet_soak(const Options& opt) { return run_fleet(opt, {4, false}, "fleet_soak"); }
Report run_fleet_chaos(const Options& opt) { return run_fleet(opt, {2, true}, "fleet_chaos"); }

}  // namespace perfbench
