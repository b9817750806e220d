#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

#include "check/protocol_monitor.h"

namespace perfbench {

double Samples::percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  // Nearest rank: the smallest value with at least p% of samples at or below.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(s.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return s[std::min(idx, s.size() - 1)];
}

double Samples::windowed_percentile(double p, std::size_t window) const {
  if (window == 0 || v_.size() < 2 * window) return percentile(p);
  Samples per_window;
  const std::size_t windows = v_.size() / window;
  for (std::size_t w = 0; w < windows; ++w) {
    Samples s;
    const std::size_t end = w + 1 == windows ? v_.size() : (w + 1) * window;
    for (std::size_t i = w * window; i < end; ++i) s.add(v_[i]);
    per_window.add(s.percentile(p));
  }
  return per_window.median();
}

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

std::uint64_t SpanRecorder::begin(const char* name, std::uint64_t op, std::uint64_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.name = name;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = now_ns();
}

void SpanRecorder::add_aggregated(const char* name, std::uint64_t op, std::uint64_t parent,
                                  std::int64_t start_ns, std::int64_t duration_ns) {
  if (!enabled_) return;
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = start_ns + duration_ns;
  s.aggregated = true;
  spans_.push_back(s);
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> by_name;
  for (const Span& s : spans_) {
    const std::int64_t self = (s.end_ns - s.start_ns) - child_ns[s.id];
    by_name[s.name] += static_cast<double>(self) * 1e-9;
  }
  return {by_name.begin(), by_name.end()};
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"op\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"aggregated\": %s}\n",
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.aggregated ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

const char* const kPhaseNames[6] = {"marshal", "sync_setup", "dispatch",
                                    "wait",    "verify",     "epilogue"};

SocCounters SocCounters::read(mco::soc::Soc& soc) {
  SocCounters c;
  mco::sim::Simulator& sim = soc.simulator();
  c.cycles = sim.now();
  c.events = sim.events_executed();
  c.heap_spills = sim.event_heap_spills();
  c.hbm_busy_cycles = soc.hbm().busy_cycles();
  c.hbm_beats = soc.hbm().beats_served();
  c.unicasts = soc.interconnect().unicasts_sent();
  c.multicasts = soc.interconnect().multicasts_sent();
  c.credits = soc.interconnect().credits_routed();
  c.irqs = soc.sync_unit().interrupts_fired();
  c.amos = soc.shared_counter().amos_serviced();
  c.polls = soc.host().polls();
  c.host_busy_cycles = soc.host().busy_cycles();
  for (unsigned i = 0; i < soc.num_clusters(); ++i) {
    mco::cluster::Cluster& cl = soc.cluster(i);
    c.dma_bytes += cl.dma().bytes_moved();
    c.items += cl.items_processed();
  }
  static const std::string kCounters[6] = {
      "runtime.phase.marshal_cycles", "runtime.phase.sync_setup_cycles",
      "runtime.phase.dispatch_cycles", "runtime.phase.wait_cycles",
      "runtime.phase.verify_cycles", "runtime.phase.epilogue_cycles"};
  const mco::sim::StatsRegistry& st = sim.stats();
  for (int p = 0; p < 6; ++p) c.phase[p] = st.counter_value(kCounters[p]);
  return c;
}

SocCounters& SocCounters::operator+=(const SocCounters& o) {
  cycles += o.cycles;
  events += o.events;
  heap_spills += o.heap_spills;
  hbm_busy_cycles += o.hbm_busy_cycles;
  hbm_beats += o.hbm_beats;
  dma_bytes += o.dma_bytes;
  unicasts += o.unicasts;
  multicasts += o.multicasts;
  credits += o.credits;
  irqs += o.irqs;
  amos += o.amos;
  polls += o.polls;
  host_busy_cycles += o.host_busy_cycles;
  items += o.items;
  for (int p = 0; p < 6; ++p) phase[p] += o.phase[p];
  return *this;
}

SocCounters SocCounters::delta(const SocCounters& a, const SocCounters& b) {
  SocCounters d;
  d.cycles = a.cycles - b.cycles;
  d.events = a.events - b.events;
  d.heap_spills = a.heap_spills - b.heap_spills;
  d.hbm_busy_cycles = a.hbm_busy_cycles - b.hbm_busy_cycles;
  d.hbm_beats = a.hbm_beats - b.hbm_beats;
  d.dma_bytes = a.dma_bytes - b.dma_bytes;
  d.unicasts = a.unicasts - b.unicasts;
  d.multicasts = a.multicasts - b.multicasts;
  d.credits = a.credits - b.credits;
  d.irqs = a.irqs - b.irqs;
  d.amos = a.amos - b.amos;
  d.polls = a.polls - b.polls;
  d.host_busy_cycles = a.host_busy_cycles - b.host_busy_cycles;
  d.items = a.items - b.items;
  for (int p = 0; p < 6; ++p) d.phase[p] = a.phase[p] - b.phase[p];
  return d;
}

std::vector<std::uint64_t> cluster_job_counts(mco::soc::Soc& soc) {
  std::vector<std::uint64_t> jobs(soc.num_clusters());
  for (unsigned i = 0; i < soc.num_clusters(); ++i) jobs[i] = soc.cluster(i).jobs_executed();
  return jobs;
}

std::uint64_t tiles_since(mco::soc::Soc& soc, const std::vector<std::uint64_t>& before) {
  std::uint64_t tiles = 0;
  for (unsigned i = 0; i < soc.num_clusters() && i < before.size(); ++i) {
    if (soc.cluster(i).jobs_executed() != before[i]) tiles += soc.cluster(i).last_job_tiles();
  }
  return tiles;
}

void MonitorTap::tap(void* ctx, const mco::sim::TraceRecord& rec) {
  auto* self = static_cast<MonitorTap*>(ctx);
  ++self->records;
  if (!self->timed) {
    self->monitor->observe(rec);
    return;
  }
  const std::int64_t t0 = wall_ns();
  self->monitor->observe(rec);
  self->ns += wall_ns() - t0;
}

void Report::gate(const std::string& name, bool ok, const std::string& detail) {
  std::printf("gate %-24s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL", detail.c_str());
  if (!ok) correct = false;
}

namespace {
double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void add_counter_layers(Report& r, const SocCounters& c, double ops, double single_ops,
                        double single_tiles) {
  const double ev = static_cast<double>(c.events);
  r.layer("sim.events_per_op", per(ev, ops), "events");
  r.layer("sim.heap_spills", static_cast<double>(c.heap_spills), "count");
  r.layer("mem.hbm_tick_share", per(static_cast<double>(c.hbm_busy_cycles), ev), "ratio");
  r.layer("mem.hbm_beats_per_busy_cycle",
          per(static_cast<double>(c.hbm_beats), static_cast<double>(c.hbm_busy_cycles)), "beats");
  r.layer("mem.dma_bytes_per_op", per(static_cast<double>(c.dma_bytes), ops), "B");
  r.layer("noc.unicasts_per_op", per(static_cast<double>(c.unicasts), ops), "count");
  r.layer("noc.multicasts_per_op", per(static_cast<double>(c.multicasts), ops), "count");
  r.layer("noc.credits_per_op", per(static_cast<double>(c.credits), ops), "count");
  r.layer("sync.irqs_per_op", per(static_cast<double>(c.irqs), ops), "count");
  r.layer("sync.amos_per_op", per(static_cast<double>(c.amos), ops), "count");
  r.layer("host.polls_per_op", per(static_cast<double>(c.polls), ops), "count");
  r.layer("host.busy_cycles_per_op", per(static_cast<double>(c.host_busy_cycles), ops),
          "cycles");
  r.layer("cluster.tiles_per_op", per(single_tiles, single_ops), "count");
  r.layer("cluster.items_per_op", per(static_cast<double>(c.items), ops), "count");
  for (int p = 0; p < 6; ++p) {
    r.layer(std::string("offload.phase.") + kPhaseNames[p] + "_cycles",
            per(static_cast<double>(c.phase[p]), single_ops), "cycles");
  }
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so under a launcher it reports the launcher's resident set when that is
  // the larger one.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

}  // namespace perfbench
