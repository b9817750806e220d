// paper_grid: the paper's DAXPY grid, one offload per fresh Soc.
//
// One operation = build a Soc, prepare the operands, run the offload, check
// the result against the oracle, tear the Soc down. A pass runs every grid
// point once, in the paper's order; the seed draws the operands. The timed
// loop runs whole passes until the time box is spent.
//
// The order is not drawn from the seed because the order of Soc builds and
// teardowns decides the state glibc's heap settles into (perfbench/README.md,
// "Heap state"): with seeded orders, some seeds ran every offload 4x slower.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/protocol_monitor.h"
#include "harness.h"
#include "model/runtime_model.h"
#include "sim/rng.h"
#include "soc/workloads.h"

namespace perfbench {
namespace {

using mco::soc::Soc;
using mco::soc::SocConfig;

constexpr double kTolerance = 1e-9;

struct Point {
  bool extended = true;
  unsigned m = 1;
  std::uint64_t n = 0;
};

/// What one offload did, in simulated terms.
struct OpOutcome {
  bool ok = false;
  std::uint64_t total_cycles = 0;
  SocCounters work;
  std::uint64_t tiles = 0;
};

/// A Soc plus, on monitored passes, the ProtocolMonitor watching its trace.
struct WatchedSoc {
  std::unique_ptr<Soc> soc;
  mco::check::ProtocolMonitor monitor;
  MonitorTap tap;
};

/// Simulated results of one pass, and its digest.
struct Pass {
  std::vector<OpOutcome> ops;
  Digest digest;
  std::uint64_t failed = 0;
  std::uint64_t records = 0;     ///< monitored passes only
  std::uint64_t violations = 0;  ///< monitored passes only
};

std::unique_ptr<WatchedSoc> build_soc(const Point& p, bool monitored, SpanRecorder& spans,
                                      std::uint64_t op, std::uint64_t parent) {
  const ScopedSpan s(spans, "soc.build", op, parent);
  auto w = std::make_unique<WatchedSoc>();
  w->soc = std::make_unique<Soc>(p.extended ? SocConfig::extended(32) : SocConfig::baseline(32));
  if (monitored) {
    w->tap.monitor = &w->monitor;
    w->soc->simulator().trace().set_observer(&MonitorTap::tap, &w->tap);
  }
  return w;
}

void destroy_soc(std::unique_ptr<WatchedSoc>& w, Pass& pass, SpanRecorder& spans,
                 std::uint64_t op, std::uint64_t parent) {
  if (w->tap.monitor) {
    w->soc->simulator().trace().set_observer(nullptr, nullptr);
    w->monitor.finish();
    pass.records += w->tap.records;
    pass.violations += w->monitor.total_violations();
  }
  const ScopedSpan s(spans, "soc.destroy", op, parent);
  w.reset();
}

/// One offload on `soc`, with spans around each layer call.
OpOutcome run_offload(Soc& soc, const Point& p, mco::sim::Rng& rng, SpanRecorder& spans,
                      std::uint64_t op, std::uint64_t parent) {
  OpOutcome out;
  try {
    const SocCounters before = SocCounters::read(soc);
    const std::vector<std::uint64_t> jobs_before = cluster_job_counts(soc);
    mco::soc::PreparedJob job;
    {
      const ScopedSpan s(spans, "soc.prepare", op, parent);
      job = mco::soc::prepare_workload(soc, soc.kernels().by_name("daxpy"), p.n,
                                       soc.num_clusters(), rng);
    }
    mco::offload::OffloadResult result;
    {
      const ScopedSpan s(spans, "offload.run", op, parent);
      result = soc.run_offload(job.args, p.m);
    }
    double err = 0.0;
    {
      const ScopedSpan s(spans, "soc.check", op, parent);
      err = job.max_abs_error(soc);
    }
    out.work = SocCounters::delta(SocCounters::read(soc), before);
    out.tiles = tiles_since(soc, jobs_before);
    out.total_cycles = result.total();
    out.ok = err <= kTolerance;
  } catch (const std::exception& e) {
    std::printf("error: offload %s M=%u N=%llu threw: %s\n", p.extended ? "extended" : "baseline",
                p.m, static_cast<unsigned long long>(p.n), e.what());
    out.ok = false;
  }
  return out;
}

void digest_op(Digest& d, const Point& p, const OpOutcome& o) {
  d.add(p.extended ? 1u : 0u);
  d.add(p.m);
  d.add(p.n);
  d.add(o.total_cycles);
  d.add(o.work.cycles);
  d.add(o.work.events);
  for (const std::uint64_t ph : o.work.phase) d.add(ph);
  d.add(o.ok ? 1u : 0u);
}

/// Every point once, each offload on a Soc of its own.
Pass run_pass(const std::vector<Point>& pts, mco::sim::Rng& rng, SpanRecorder& spans,
              std::uint64_t& next_op, bool monitored, Samples* op_us) {
  Pass pass;
  for (const Point& p : pts) {
    const std::uint64_t op = next_op++;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan root(spans, "bench.op", op, 0);
      std::unique_ptr<WatchedSoc> w = build_soc(p, monitored, spans, op, root.id());
      OpOutcome o = run_offload(*w->soc, p, rng, spans, op, root.id());
      destroy_soc(w, pass, spans, op, root.id());
      digest_op(pass.digest, p, o);
      if (!o.ok) ++pass.failed;
      pass.ops.push_back(std::move(o));
    }
    if (op_us) op_us->add(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return pass;
}

double eq1_mape(const std::vector<Point>& pts, const Pass& pass) {
  const mco::model::RuntimeModel model = mco::model::paper_daxpy_model();
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!pts[i].extended || pass.ops[i].total_cycles == 0) continue;
    const double t = static_cast<double>(pass.ops[i].total_cycles);
    sum += std::abs(t - model.predict(pts[i].m, pts[i].n)) / t;
    ++count;
  }
  return count ? 100.0 * sum / static_cast<double>(count) : 0.0;
}

/// The timed passes of one mode (untraced or traced).
struct Measured {
  std::uint64_t passes = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double host_s = 0.0;  ///< Σ pass host time
  std::uint64_t faults = 0;  ///< minor page faults over the passes
  bool identical = true;  ///< every pass reproduced the checked pass's digest
  Samples op_us;
  /// Per-pass rates; the metrics take their medians, so a pass slowed by a
  /// noisy neighbour does not move them.
  Samples ops_rate, cycles_rate;
};

/// Whole passes until `seconds` are spent. With `traced`, passes alternate
/// between untraced (`m`) and traced (`t`, spans recorded), so both modes
/// see the same machine conditions and their difference is the tracing
/// overhead.
void measure(const std::vector<Point>& pts, mco::sim::Rng& rng, SpanRecorder& spans,
             std::uint64_t& next_op, double seconds, bool traced, std::uint64_t reference_digest,
             Measured& m, Measured& t) {
  SpanRecorder no_spans(false);
  const std::int64_t t0 = wall_ns();
  for (std::uint64_t i = 0;; ++i) {
    const bool trace_this = traced && i % 2 == 1;
    Measured& x = trace_this ? t : m;
    const std::uint64_t f0 = minor_faults();
    const std::int64_t p0 = now_ns();
    const Pass pass = run_pass(pts, rng, trace_this ? spans : no_spans, next_op,
                               /*monitored=*/false, trace_this ? nullptr : &x.op_us);
    const double pass_s = static_cast<double>(now_ns() - p0) * 1e-9;
    x.faults += minor_faults() - f0;
    std::uint64_t cycles = 0;
    for (const OpOutcome& o : pass.ops) cycles += o.work.cycles;
    x.ops_rate.add(static_cast<double>(pass.ops.size()) / pass_s);
    x.cycles_rate.add(static_cast<double>(cycles) / pass_s);
    ++x.passes;
    x.ops += pass.ops.size();
    x.failed += pass.failed;
    x.host_s += pass_s;
    if (pass.digest.value() != reference_digest) x.identical = false;
    const bool spent = static_cast<double>(wall_ns() - t0) * 1e-9 >= seconds;
    if (spent && (!traced || t.passes > 0)) break;
  }
}

/// Per-name duration samples (us) of the recorded spans.
Samples span_us(const SpanRecorder& spans, const std::string& name) {
  Samples s;
  for (const Span& sp : spans.spans()) {
    if (name == sp.name) s.add(static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3);
  }
  return s;
}

/// The paper's grid in the paper's order: {baseline, extended} × M × N, 48
/// points.
std::vector<Point> paper_points() {
  std::vector<Point> pts;
  for (const bool ext : {false, true}) {
    for (const unsigned m : {1u, 2u, 4u, 8u, 16u, 32u}) {
      for (const std::uint64_t n : {256u, 512u, 768u, 1024u}) pts.push_back({ext, m, n});
    }
  }
  return pts;
}

}  // namespace

Report run_paper_grid(const Options& opt) {
  Report r;
  std::vector<Point> pts;
  Pass checked;
  Samples setup_s;
  SpanRecorder no_spans(false);
  std::uint64_t next_op = 1;
  mco::sim::Rng rng(opt.seed);

  // Set-up: lay out the grid and run one monitored, oracle-checked pass (it
  // also warms the allocator and the kernel registry). Repeated at least
  // three times and for half a second, reporting the median.
  const std::int64_t setup0 = wall_ns();
  while (setup_s.size() < 3 || wall_ns() - setup0 < 500'000'000) {
    const std::int64_t t0 = now_ns();
    pts = paper_points();
    mco::sim::Rng setup_rng(opt.seed);
    checked = run_pass(pts, setup_rng, no_spans, next_op, /*monitored=*/true, nullptr);
    setup_s.add(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Correctness gates (every run).
  const std::uint64_t violations = checked.violations;
  const std::uint64_t records = checked.records;
  r.gate("oracle_checked_pass", checked.failed == 0,
         std::to_string(checked.failed) + " of " + std::to_string(pts.size()) +
             " offloads outside tolerance");
  r.gate("monitor_violations", violations == 0,
         std::to_string(violations) + " violations over the checked pass's Socs");
  const double mape = eq1_mape(pts, checked);
  std::uint64_t ext = 0;
  std::uint64_t base = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].m == 32 && pts[i].n == 1024) {
      (pts[i].extended ? ext : base) = checked.ops[i].total_cycles;
    }
  }
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.3f",
                ext ? static_cast<double>(base) / static_cast<double>(ext) : 0.0);
  r.gate("paper_pins", ext == 633 && base == 936 && std::string(ratio) == "1.479",
         "extended=" + std::to_string(ext) + " baseline=" + std::to_string(base) +
             " speedup=" + ratio + "x (want 633/936/1.479x)");
  char buf[64];
  std::snprintf(buf, sizeof buf, "Eq. (1) MAPE %.4f %% on the extended rows (< 1)", mape);
  r.gate("model_mape", mape < 1.0, buf);
  r.digest = checked.digest.hex();

  SpanRecorder spans(opt.trace);
  Measured m, t;
  measure(pts, rng, spans, next_op, opt.seconds, opt.trace, checked.digest.value(), m, t);
  r.gate("passes_identical", m.identical && t.identical, "every timed pass reproduces sim_digest");
  r.gate("oracle_timed_passes", m.failed + t.failed == 0,
         std::to_string(m.failed + t.failed) + " of " + std::to_string(m.ops + t.ops) +
             " offloads outside tolerance");
  r.attempted = checked.ops.size() + m.ops + t.ops;
  r.failed = checked.failed + m.failed + t.failed;

  // End-to-end metrics from the untraced passes.
  const double ops_per_s = m.ops_rate.median();
  r.e2e("setup_s", setup_s.median(), "s");
  r.e2e("offloads_per_sec", ops_per_s, "1/s");
  r.e2e("jobs_per_sec", ops_per_s, "1/s");
  r.e2e("offload_host_us_p50", m.op_us.median(), "us");
  r.e2e("offload_host_us_p99", m.op_us.windowed_percentile(99.0, kTailWindow), "us");
  r.e2e("sim_cycles_per_sec", m.cycles_rate.median(), "cycles/s");
  r.e2e("slo_attainment",
        static_cast<double>(r.attempted - r.failed) / static_cast<double>(r.attempted), "ratio");
  r.e2e("model_mape_pct", mape, "%");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.extra.push_back({"failed_frac",
                     static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio"});
  r.extra.push_back({"samples.offload_host_us", static_cast<double>(m.op_us.size()), "count"});
  std::printf("workload paper_grid: %llu untraced + %llu traced passes of %zu offloads in %.3f s\n",
              static_cast<unsigned long long>(m.passes),
              static_cast<unsigned long long>(t.passes), pts.size(), m.host_s + t.host_s);
  // Minor page faults of the untraced passes: about 3.5 per offload, or
  // about 1,000 when the heap has settled into re-faulting each Soc's
  // cluster memory (see README, "Heap state").
  const double faults_per_op = static_cast<double>(m.faults) / static_cast<double>(m.ops);
  if (!opt.trace) {
    r.extra.push_back({"soc.page_faults_per_op", faults_per_op, "count"});
    return r;
  }

  // Counts: one checked pass is the exact per-op work of every pass.
  SocCounters work;
  std::uint64_t tiles = 0;
  for (const OpOutcome& o : checked.ops) {
    work += o.work;
    tiles += o.tiles;
  }
  const double ops = static_cast<double>(checked.ops.size());
  add_counter_layers(r, work, ops, ops, static_cast<double>(tiles));

  // Host time per layer from the traced passes.
  const Samples run_us = span_us(spans, "offload.run");
  const double traced_events =
      static_cast<double>(work.events) * static_cast<double>(t.passes);
  r.layer("sim.host_ns_per_event", run_us.sum() * 1e3 / traced_events, "ns");
  r.layer("offload.run_us_p50", run_us.median(), "us");
  r.layer("soc.build_us_p50", span_us(spans, "soc.build").median(), "us");
  r.layer("soc.prepare_us_p50", span_us(spans, "soc.prepare").median(), "us");
  r.layer("soc.check_us_p50", span_us(spans, "soc.check").median(), "us");
  r.layer("soc.page_faults_per_op", faults_per_op, "count");
  r.layer("check.records_per_job", static_cast<double>(records) / ops, "count");
  r.layer("check.violations", static_cast<double>(violations), "count");

  double attributed = 0.0;
  for (const auto& [name, self] : spans.self_seconds()) {
    if (name == "bench.op") continue;  // the op's own remainder is unattributed
    const double share = self / t.host_s;
    r.layer(name + "_share", share, "ratio");
    attributed += share;
  }
  r.layer("trace.unattributed_share", 1.0 - attributed, "ratio");
  const double untraced_per_op = m.host_s / static_cast<double>(m.ops);
  const double traced_per_op = t.host_s / static_cast<double>(t.ops);
  r.layer("trace.overhead_pct", 100.0 * (traced_per_op - untraced_per_op) / untraced_per_op,
          "%");

  const std::string path = opt.out_dir + "/spans_paper_grid.jsonl";
  r.gate("span_file", spans.write_jsonl(path), path);
  return r;
}

}  // namespace perfbench
