// Shared plumbing of the perfbench binary: options, host timers, in-memory
// spans, sample statistics, the simulated-statistics digest, per-Soc work
// counters, and the report every workload fills in.
//
// Everything here lives on the benchmark side of the public API: the
// benchmark times its own calls into the simulator's layers and reads the
// layers' public counters before and after each call.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.h"
#include "soc/soc.h"

namespace mco::check {
class ProtocolMonitor;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_build/out";
};

// ---- host time ---------------------------------------------------------------

/// Host time is this thread's CPU time (user + system, page faults
/// included), so time the thread spends descheduled by other tenants of the
/// machine does not count. One read costs about 0.3 us.
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Monotonic wall time, for the time box and for calls too short (about
/// 1 us, ProtocolMonitor::observe) to time with now_ns() without the clock
/// read dominating; over so short a call the two clocks agree unless the
/// thread is descheduled inside it.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Samples per window of the offload_host_us_p99 tail: enough for ten
/// samples beyond the 99th percentile.
constexpr std::size_t kTailWindow = 1000;

/// Host samples with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  /// The p-th percentile of each consecutive window of `window` samples (a
  /// short tail merges into the last window), median over the windows: a
  /// tail figure that one burst of interference from other tenants of the
  /// machine cannot move.
  double windowed_percentile(double p, std::size_t window) const;
  double sum() const;

 private:
  std::vector<double> v_;
};

// ---- spans -------------------------------------------------------------------

/// One host-time span: which layer call, for which operation (offload or
/// job), caused by which parent span. `aggregated` spans stand for many
/// short calls summed into one duration (monitor observations), placed at
/// the start of their parent.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< offload index or job id
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool aggregated = false;
};

/// In-memory span store. Disabled (the untraced run) it records nothing
/// and hands out id 0.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::uint64_t begin(const char* name, std::uint64_t op, std::uint64_t parent);
  void end(std::uint64_t id);
  /// Record a summed duration as a child of `parent`.
  void add_aggregated(const char* name, std::uint64_t op, std::uint64_t parent,
                      std::int64_t start_ns, std::int64_t duration_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name: duration minus the time its children cover.
  std::vector<std::pair<std::string, double>> self_seconds() const;
  /// Write every span as one JSON object per line; false when the file
  /// cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t op, std::uint64_t parent)
      : rec_(rec), id_(rec.begin(name, op, parent)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

// ---- simulated-statistics digest ---------------------------------------------

/// FNV-1a over 64-bit words: the sim_digest fingerprint.
class Digest {
 public:
  void add(std::uint64_t v);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---- per-Soc work counters -------------------------------------------------------

/// Public counters of every layer inside one Soc. Snapshots are taken
/// before and after each call; the difference is that call's work.
struct SocCounters {
  std::uint64_t cycles = 0;  ///< simulator now()
  std::uint64_t events = 0;
  std::uint64_t heap_spills = 0;
  std::uint64_t hbm_busy_cycles = 0;
  std::uint64_t hbm_beats = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t unicasts = 0;
  std::uint64_t multicasts = 0;
  std::uint64_t credits = 0;
  std::uint64_t irqs = 0;
  std::uint64_t amos = 0;
  std::uint64_t polls = 0;
  std::uint64_t host_busy_cycles = 0;
  std::uint64_t items = 0;
  std::uint64_t phase[6] = {};  ///< marshal..epilogue, from runtime.phase.*

  static SocCounters read(mco::soc::Soc& soc);
  SocCounters& operator+=(const SocCounters& o);
  /// Field-wise after − before.
  static SocCounters delta(const SocCounters& after, const SocCounters& before);
};

extern const char* const kPhaseNames[6];

/// Tiles of the last job, summed over clusters whose job count moved
/// between two job-count snapshots (one per cluster). Exact for one offload;
/// a batch runs several jobs per cluster and only its last one is seen.
std::vector<std::uint64_t> cluster_job_counts(mco::soc::Soc& soc);
std::uint64_t tiles_since(mco::soc::Soc& soc, const std::vector<std::uint64_t>& before);

// ---- monitors ------------------------------------------------------------------

/// Trace observer that feeds a check::ProtocolMonitor, optionally timing
/// each observe() call. Install with sink.set_observer(&MonitorTap::tap, this).
struct MonitorTap {
  mco::check::ProtocolMonitor* monitor = nullptr;
  bool timed = false;
  std::int64_t ns = 0;       ///< summed observe() time (timed only)
  std::uint64_t records = 0;
  static void tap(void* ctx, const mco::sim::TraceRecord& rec);
};

// ---- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): counts, gates, metrics, spans.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Printed only, not part of the result object (e.g. failed_frac).
  std::vector<Metric> extra;

  /// Record a correctness gate; a failed gate makes the run incorrect.
  void gate(const std::string& name, bool ok, const std::string& detail);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Per-layer metrics every workload prints, derived from summed counters.
/// `single_ops` counts the offloads run one per call: only those record
/// phase counters, and only for those does tiles_since() see every job, so
/// `single_tiles` (their tiles) and the phase means are divided by it.
void add_counter_layers(Report& r, const SocCounters& c, double ops, double single_ops,
                        double single_tiles);

/// Peak resident set size of this process image, MiB (0 when unknown).
double peak_rss_mb();
/// Minor page faults this process has taken so far.
std::uint64_t minor_faults();

/// The benchmark's workloads.
Report run_paper_grid(const Options& opt);
Report run_fleet_soak(const Options& opt);
Report run_fleet_chaos(const Options& opt);

}  // namespace perfbench
