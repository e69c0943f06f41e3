#include "harness.h"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "common/bytes.h"
#include "common/metrics_registry.h"
#include "common/trace_assemble.h"

namespace perfbench {

namespace gl = glider;
using Clock = std::chrono::steady_clock;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- Op ---------------------------------------------------------------------

Op::Op(bool traced, std::int64_t scheduled_ns, std::int64_t picked_ns)
    : traced_(traced) {
  spans_.push_back(Span{"op", scheduled_ns, 0, -1});
  if (!traced_) return;
  trace_id_ = gl::obs::NewTraceId();
  ids_.push_back(gl::obs::NewSpanId());
  spans_.push_back(Span{"loadgen.wait", scheduled_ns, picked_ns, 0});
  ids_.push_back(gl::obs::NewSpanId());
}

std::size_t Op::Open(const char* name) {
  spans_.push_back(Span{name, NowNs(), 0, 0});
  ids_.push_back(gl::obs::NewSpanId());
  return spans_.size() - 1;
}

std::int64_t Op::Finish() {
  spans_[0].end_ns = NowNs();
  spans_[0].name = std::string("op.") + type_;
  return spans_[0].end_ns - spans_[0].start_ns;
}

// ---- Counters ---------------------------------------------------------------

namespace {

// The CPU chosen by PinToOneCpu; -1 before it is called.
int pinned_cpu = -1;

}  // namespace

gl::Status PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return gl::Status::Internal("sched_getaffinity failed");
  }
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &set)) --cpu;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    return gl::Status::Internal("sched_setaffinity failed");
  }
  pinned_cpu = cpu;
  return gl::Status::Ok();
}

IdleSpinner::IdleSpinner() {
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(0);
    sched_param param{};
    sched_setscheduler(0, SCHED_IDLE, &param);
    while (true) asm volatile("" ::: "memory");
  }
}

IdleSpinner::~IdleSpinner() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
}

HostTicks HostTicks::Read() {
  HostTicks h;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return h;
  const std::string wanted = pinned_cpu < 0 ? "cpu" : "cpu" + std::to_string(pinned_cpu);
  char line[256];
  // cpu[N] user nice system idle iowait irq softirq steal ...; the lines
  // of the CPUs come first.
  while (std::fgets(line, sizeof line, stat) != nullptr &&
         std::strncmp(line, "cpu", 3) == 0) {
    char name[16];
    unsigned long long t[8] = {};
    if (std::sscanf(line, "%15s %llu %llu %llu %llu %llu %llu %llu %llu", name, &t[0],
                    &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) != 9 ||
        name != wanted) {
      continue;
    }
    h.steal += t[7];
    for (const unsigned long long ticks : t) h.total += ticks;
  }
  std::fclose(stat);
  return h;
}

HostTicks HostTicks::Minus(const HostTicks& before) const {
  return HostTicks{steal - before.steal, total - before.total};
}

double HostTicks::StealShare() const {
  return total == 0 ? 0.0 : static_cast<double>(steal) / static_cast<double>(total);
}

Counters Counters::Read(const gl::Metrics& metrics) {
  Counters c;
  for (std::size_t i = 0; i < gl::kNumLinkClasses; ++i) {
    const auto link = static_cast<gl::LinkClass>(i);
    c.link_ops += metrics.Operations(link);
    c.link_bytes += metrics.BytesSent(link) + metrics.BytesReceived(link);
  }
  c.faas_bytes = metrics.FaasTransferBytes();
  c.allocs = gl::data_plane::Allocs();
  c.copied = gl::data_plane::CopiedBytes();
  c.pool_hits = gl::data_plane::PoolHits();
  c.pool_misses = gl::data_plane::PoolMisses();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  c.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  c.vol_csw = usage.ru_nvcsw;
  c.invol_csw = usage.ru_nivcsw;
  auto& registry = gl::obs::MetricsRegistry::Global();
  c.yields = registry.GetCounter("channel.interleave_yields").value();
  c.stalls = registry.GetCounter("active.stalls").value();
  c.host = HostTicks::Read();
  return c;
}

Counters Counters::Plus(const Counters& b) const {
  Counters s;
  s.link_ops = link_ops + b.link_ops;
  s.link_bytes = link_bytes + b.link_bytes;
  s.faas_bytes = faas_bytes + b.faas_bytes;
  s.allocs = allocs + b.allocs;
  s.copied = copied + b.copied;
  s.pool_hits = pool_hits + b.pool_hits;
  s.pool_misses = pool_misses + b.pool_misses;
  s.cpu_s = cpu_s + b.cpu_s;
  s.vol_csw = vol_csw + b.vol_csw;
  s.invol_csw = invol_csw + b.invol_csw;
  s.yields = yields + b.yields;
  s.stalls = stalls + b.stalls;
  s.host.steal = host.steal + b.host.steal;
  s.host.total = host.total + b.host.total;
  return s;
}

Counters Counters::Minus(const Counters& b) const {
  Counters d;
  d.link_ops = link_ops - b.link_ops;
  d.link_bytes = link_bytes - b.link_bytes;
  d.faas_bytes = faas_bytes - b.faas_bytes;
  d.allocs = allocs - b.allocs;
  d.copied = copied - b.copied;
  d.pool_hits = pool_hits - b.pool_hits;
  d.pool_misses = pool_misses - b.pool_misses;
  d.cpu_s = cpu_s - b.cpu_s;
  d.vol_csw = vol_csw - b.vol_csw;
  d.invol_csw = invol_csw - b.invol_csw;
  d.yields = yields - b.yields;
  d.stalls = stalls - b.stalls;
  d.host = host.Minus(b.host);
  return d;
}

// ---- Phase ------------------------------------------------------------------

std::vector<double> Phase::Latencies(const std::string& type) const {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (types[s.type] == type) out.push_back(s.latency_ms);
  }
  return out;
}

void Phase::Absorb(Op& op, const OpResult& result, double latency_ms) {
  ++attempted;
  if (!result.ok) {
    ++failed;
    return;
  }
  ++ops;
  written += result.written;
  read += result.read;
  const auto it = std::find(types.begin(), types.end(), op.type());
  const std::size_t type = static_cast<std::size_t>(it - types.begin());
  if (it == types.end()) types.push_back(op.type());
  samples.push_back(Sample{type, latency_ms});
  if (op.traced()) {
    traces.push_back(OpTrace{op.type(), op.trace_id(), std::move(op.spans()),
                             op.ids()});
  }
}

void Merge(std::vector<Phase>& parts, Phase& out) {
  for (Phase& p : parts) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.backlog_peak = std::max(out.backlog_peak, p.backlog_peak);
    out.wall_s += p.wall_s;
    out.busy_s += p.busy_s;
    out.delta = out.delta.Plus(p.delta);
    out.ops += p.ops;
    out.written += p.written;
    out.read += p.read;
    for (const Phase::Sample& s : p.samples) {
      const std::string& name = p.types[s.type];
      auto it = std::find(out.types.begin(), out.types.end(), name);
      const auto type = static_cast<std::size_t>(it - out.types.begin());
      if (it == out.types.end()) out.types.push_back(name);
      out.samples.push_back(Phase::Sample{type, s.latency_ms});
    }
    for (OpTrace& t : p.traces) out.traces.push_back(std::move(t));
    out.lag_ms.insert(out.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
  }
}

Phase RunOpenLoop(const LoadSpec& spec, const gl::Metrics& metrics,
                  const OpFn& fn) {
  const std::int64_t t0 = NowNs();
  const std::int64_t end = t0 + static_cast<std::int64_t>(spec.seconds * 1e9);
  std::vector<std::int64_t> due;  // scheduled instants, ascending
  PoissonSchedule schedule(spec.rate_per_s, spec.seed);
  for (std::int64_t t = t0 + schedule.NextGap().count(); t < end;
       t += schedule.NextGap().count()) {
    due.push_back(t);
  }

  // No pacer thread: an idle executor claims the next arrival and sleeps
  // until it is due, so an arrival costs one timer wake-up rather than a
  // pacer wake-up plus a hand-off. An arrival claimed after it was due
  // waited for a busy executor; its latency still counts from `due`.
  std::atomic<std::size_t> next{0};
  std::vector<Phase> local(spec.workers);
  const Counters before = Counters::Read(metrics);
  std::vector<std::thread> executors;
  for (std::size_t w = 0; w < spec.workers; ++w) {
    executors.emplace_back([&, w] {
      // Drop the default 50 us timer slack: sleeps end close to `due`.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Phase& phase = local[w];
      for (std::size_t k = next++; k < due.size(); k = next++) {
        const std::int64_t claimed = NowNs();
        if (due[k] > claimed) {
          std::this_thread::sleep_until(
              Clock::time_point(std::chrono::nanoseconds(due[k])));
          phase.lag_ms.push_back(static_cast<double>(NowNs() - due[k]) / 1e6);
        } else {
          // Arrivals due but not yet claimed, this one included.
          const auto backlog = static_cast<std::size_t>(
              std::upper_bound(due.begin(), due.end(), claimed) - due.begin()) - k;
          phase.backlog_peak = std::max(phase.backlog_peak, backlog);
        }
        Op op(spec.traced, due[k], NowNs());
        const OpResult result = fn(w, spec.first_id + k, op);
        const double latency_ms = static_cast<double>(op.Finish()) / 1e6;
        if (result.verify) result.verify();
        phase.Absorb(op, result, latency_ms);
      }
    });
  }
  for (auto& t : executors) t.join();
  Phase out;
  Merge(local, out);
  out.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out.delta = Counters::Read(metrics).Minus(before);
  return out;
}

Phase RunClosedLoop(const LoadSpec& spec, const gl::Metrics& metrics,
                    const OpFn& fn) {
  Phase out;
  std::vector<Phase> local(spec.workers);
  const Counters before = Counters::Read(metrics);
  const std::int64_t t0 = NowNs();
  const std::int64_t end = t0 + static_cast<std::int64_t>(spec.seconds * 1e9);
  std::vector<std::thread> executors;
  for (std::size_t w = 0; w < spec.workers; ++w) {
    executors.emplace_back([&, w] {
      // Ids disjoint from other executors'.
      std::uint64_t id = spec.first_id + (std::uint64_t{w} << 32);
      for (std::int64_t now = NowNs(); now < end; now = NowNs(), ++id) {
        Op op(spec.traced, now, now);
        const OpResult result = fn(w, id, op);
        const double latency_ms = static_cast<double>(op.Finish()) / 1e6;
        if (result.verify) result.verify();
        local[w].Absorb(op, result, latency_ms);
      }
    });
  }
  for (auto& t : executors) t.join();
  Merge(local, out);
  out.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out.delta = Counters::Read(metrics).Minus(before);
  return out;
}

gl::SplitMix64 OpRng(std::uint64_t seed, std::uint64_t id) {
  gl::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + id);
  return gl::SplitMix64(mix.Next());
}

// ---- Checker ----------------------------------------------------------------

void Checker::Fail(const std::string& what) {
  std::scoped_lock lock(mu_);
  ++count_;
  if (errors_.size() < 20) errors_.push_back(what);
}

std::vector<std::string> Checker::errors() const {
  std::scoped_lock lock(mu_);
  return errors_;
}

std::size_t Checker::count() const {
  std::scoped_lock lock(mu_);
  return count_;
}

// ---- metrics ----------------------------------------------------------------

void Add(Outcome& out, std::string name, double value, std::string unit) {
  out.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Note(Outcome& out, std::string line) { out.notes.push_back(std::move(line)); }

double Median(std::vector<double> values) { return Percentile(values, 50); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string Fmt(const char* format, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c, d);
  return buf;
}

}  // namespace

Phase Pool(const Windows& windows) {
  std::vector<Phase> parts(windows.begin(), windows.end());
  Phase out;
  Merge(parts, out);
  return out;
}

Windows Quiet(const Windows& windows, const std::string& name, Outcome& out) {
  std::vector<double> steal;
  for (const Phase& w : windows) steal.push_back(w.delta.host.StealShare());
  const std::vector<std::size_t> keep = QuietWindows(steal);
  Windows quiet;
  std::string line = name + " steal share per window:";
  for (std::size_t i = 0, k = 0; i < windows.size(); ++i) {
    const bool kept = k < keep.size() && keep[k] == i;
    if (kept) {
      quiet.push_back(windows[i]);
      ++k;
    }
    line += Fmt(kept ? " %.3f" : " (%.3f)", steal[i]);
  }
  Note(out, line + " -- " + std::to_string(quiet.size()) + " quiet windows kept");
  return quiet;
}

double MedianOver(const Windows& windows,
                  const std::function<double(const Phase&)>& stat) {
  std::vector<double> values;
  for (const Phase& w : windows) values.push_back(stat(w));
  return Median(std::move(values));
}

void AddWindowed(Outcome& out, const std::string& name, const std::string& unit,
                 const Windows& windows,
                 const std::function<double(const Phase&)>& stat) {
  std::vector<double> values;
  std::string line = name + " per window:";
  for (const Phase& w : windows) {
    values.push_back(stat(w));
    line += Fmt(" %.6g", values.back());
  }
  Note(out, line);
  Add(out, name, Median(std::move(values)), unit);
}

void AddLatency(Outcome& out, const std::string& name, const Windows& windows,
                const std::string& type) {
  const auto printable = [&](double pct) {
    return std::all_of(windows.begin(), windows.end(), [&](const Phase& w) {
      return Printable(w.Latencies(type).size(), pct);
    });
  };
  if (!printable(50)) {
    out.invalid.push_back(name + ": a window leaves fewer than 10 samples beyond p50");
  }
  const auto percentile = [&type](double pct) {
    return [&type, pct](const Phase& w) {
      std::vector<double> v = w.Latencies(type);
      return Percentile(v, pct);
    };
  };
  AddWindowed(out, name + "_p50_ms", "ms", windows, percentile(50));
  // Tails do not repeat from run to run on a shared host: printed, not
  // gated.
  std::vector<double> all = Pool(windows).Latencies(type);
  std::string line = name + " (" + type + "): n=" + std::to_string(all.size()) +
                     " in " + std::to_string(windows.size()) + " windows";
  if (printable(90)) {
    line += Fmt(", p90=%.4f ms (median over windows)",
                MedianOver(windows, percentile(90)));
  }
  if (Printable(all.size(), 99)) {
    line += Fmt(", pooled p99=%.4f ms", Percentile(all, 99));
  }
  if (!all.empty()) {
    line += Fmt(", max=%.4f ms", *std::max_element(all.begin(), all.end()));
  }
  Note(out, line);
}

namespace {

// Every call the workloads time, so each run prints the same metric set
// (a call a workload never makes reads 0).
constexpr const char* kCalls[] = {
    "loadgen.wait",       "meta.lookup",  "meta.create",       "meta.delete",
    "storage.write",      "storage.close", "storage.read",     "active.open_writer",
    "active.close",       "active.open_reader", "active.read", "stream.write",
};
constexpr const char* kWriterCalls[] = {"stream.write", "active.close",
                                        "storage.write", "storage.close"};
constexpr const char* kBuckets[] = {"client", "net", "server",
                                    "queue",  "run", "channel"};

bool IsOneOf(const std::string& name, const auto& list) {
  return std::find(std::begin(list), std::end(list), name) != std::end(list);
}

// Critical-path bucket totals over the traced ops: the benchmark's spans
// plus the program's own, assembled by obs::TraceAssembler.
std::map<std::string, double> CriticalPath(const std::vector<OpTrace>& traces) {
  // Map the steady clock onto the trace timebase (also steady).
  const std::int64_t offset_ns =
      static_cast<std::int64_t>(gl::obs::TraceNowMicros()) * 1000 - NowNs();
  std::vector<gl::obs::SpanRecord> mine;
  for (const OpTrace& t : traces) {
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      gl::obs::SpanRecord r;
      r.name = s.name;
      r.category = "bench";
      r.trace_id = t.trace_id;
      r.span_id = t.ids[i];
      r.parent_span_id =
          s.parent < 0 ? 0 : t.ids[static_cast<std::size_t>(s.parent)];
      r.start_us = static_cast<std::uint64_t>((s.start_ns + offset_ns) / 1000);
      r.dur_us = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, s.end_ns - s.start_ns) / 1000);
      mine.push_back(std::move(r));
    }
  }
  gl::obs::TraceAssembler assembler;
  assembler.AddSpans("bench", std::move(mine), 0);
  assembler.AddSpans("program", gl::obs::TraceRecorder::Global().Snapshot(), 0);
  std::map<std::string, double> buckets;
  for (const auto& trace : assembler.Assemble()) {
    if (trace.spans[trace.root].span.name.rfind("op.", 0) != 0) continue;
    for (const auto& [bucket, us] : trace.bucket_us) {
      buckets[bucket] += static_cast<double>(us);
    }
  }
  return buckets;
}

}  // namespace

void AddLayerMetrics(const Windows& plain_windows, const Windows& traced_windows,
                     std::uint64_t op_unit_bytes, Outcome& out) {
  const Phase plain = Pool(plain_windows);
  const Phase traced = Pool(traced_windows);
  const double ops =
      op_unit_bytes > 0
          ? static_cast<double>(plain.written) / static_cast<double>(op_unit_bytes)
          : static_cast<double>(plain.ops);
  const auto per_op = [&](double v) { return ops > 0 ? v / ops : 0.0; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const Counters& c = plain.delta;

  // Generator, both halves.
  std::vector<double> lag = plain.lag_ms;
  lag.insert(lag.end(), traced.lag_ms.begin(), traced.lag_ms.end());
  Add(out, "loadgen.lag_p50_ms", Percentile(lag, 50), "ms");
  Add(out, "loadgen.lag_p90_ms", Percentile(lag, 90), "ms");
  Add(out, "loadgen.backlog_peak",
      static_cast<double>(std::max(plain.backlog_peak, traced.backlog_peak)), "count");
  Note(out, "loadgen: " + std::to_string(lag.size()) + " releases" +
                (Printable(lag.size(), 99) ? Fmt(", lag p99=%.4f ms", Percentile(lag, 99))
                 : Printable(lag.size(), 90) ? std::string()
                                             : std::string(", too few for the lag p90")));

  // Exact counts and process counters (untraced half).
  Add(out, "net.rpcs_per_op", per_op(static_cast<double>(c.link_ops)), "count");
  Add(out, "net.bytes_per_op", per_op(static_cast<double>(c.link_bytes)), "B");
  Add(out, "data_plane.allocs_per_op", per_op(static_cast<double>(c.allocs)), "count");
  Add(out, "data_plane.copied_bytes_per_input_byte",
      ratio(static_cast<double>(c.copied), static_cast<double>(plain.written)),
      "ratio");
  Add(out, "data_plane.pool_hit_share",
      ratio(static_cast<double>(c.pool_hits),
            static_cast<double>(c.pool_hits + c.pool_misses)),
      "ratio");
  Add(out, "proc.vol_csw_per_op", per_op(static_cast<double>(c.vol_csw)), "count");
  Add(out, "proc.invol_csw_per_op", per_op(static_cast<double>(c.invol_csw)), "count");
  Add(out, "active.stalls",
      static_cast<double>(plain.delta.stalls + traced.delta.stalls), "count");

  // Benchmark spans (traced half): self time per call as a share of the
  // summed op latency. Root self time is the unattributed remainder.
  std::map<std::string, double> self_ns;
  std::map<std::string, std::vector<double>> call_us;
  std::map<std::string, std::vector<double>> root_ms, unattributed_ms;
  // Writer calls and the ops that make them, for the writer-blocked share.
  double root_total_ns = 0, writer_ns = 0, writer_ops_ns = 0;
  for (const OpTrace& t : traced.traces) {
    const std::vector<std::int64_t> self = SelfTimes(t.spans);
    const Span& root = t.spans[0];
    const double root_ns = static_cast<double>(root.end_ns - root.start_ns);
    root_total_ns += root_ns;
    root_ms[t.type].push_back(root_ns / 1e6);
    unattributed_ms[t.type].push_back(static_cast<double>(self[0]) / 1e6);
    bool writes = false;
    for (std::size_t i = 1; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      const double dur_ns = static_cast<double>(s.end_ns - s.start_ns);
      if (!IsOneOf(s.name, kCalls)) {
        out.invalid.push_back("untabled benchmark span " + s.name);
      }
      self_ns[s.name] += static_cast<double>(self[i]);
      call_us[s.name].push_back(dur_ns / 1e3);
      if (IsOneOf(s.name, kWriterCalls)) {
        writer_ns += dur_ns;
        writes = true;
      }
    }
    if (writes) writer_ops_ns += root_ns;
  }
  for (const char* call : kCalls) {
    Add(out, std::string(call) + "_share", ratio(self_ns[call], root_total_ns),
        "ratio");
    auto& us = call_us[call];
    if (us.empty()) continue;
    Note(out, std::string("call ") + call + ": n=" + std::to_string(us.size()) +
                  Fmt(" p50=%.2f us p90=%.2f us share=%.4f",
                      Percentile(us, 50), Percentile(us, 90),
                      ratio(self_ns[call], root_total_ns)));
  }
  double unattributed = 0;
  for (auto& [type, lat] : root_ms) {
    const double share = ratio(Median(unattributed_ms[type]), Median(lat));
    unattributed = std::max(unattributed, share);
    Note(out, "op " + type + ": n=" + std::to_string(lat.size()) +
                  Fmt(" traced p50=%.4f ms, unattributed p50 share=%.4f",
                      Median(lat), share));
  }
  Add(out, "trace.unattributed_share", unattributed, "ratio");
  Add(out, "stream.writer_blocked_share", ratio(writer_ns, writer_ops_ns), "ratio");
  Add(out, "stream.interleave_yields_per_mib",
      ratio(static_cast<double>(traced.delta.yields),
            static_cast<double>(traced.written) / (1 << 20)),
      "count/MiB");
  const auto write_p50 = [](const Phase& w) { return Median(w.Latencies("write")); };
  Add(out, "trace.overhead_share",
      ratio(MedianOver(traced_windows, write_p50), MedianOver(plain_windows, write_p50)) -
          1.0,
      "ratio");

  // Program spans (traced half): critical-path buckets.
  std::map<std::string, double> buckets = CriticalPath(traced.traces);
  double bucket_total = 0;
  for (const auto& [bucket, us] : buckets) bucket_total += us;
  for (const char* bucket : kBuckets) {
    Add(out, std::string("cp.") + bucket + "_share",
        ratio(buckets[bucket], bucket_total), "ratio");
  }
  Note(out, Fmt("critical path: %.0f us over the traced ops", bucket_total));
}

}  // namespace perfbench
