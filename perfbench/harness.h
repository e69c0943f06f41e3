// Load generation, counters and the traced-run breakdown shared by the
// three workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace perfbench {

std::int64_t NowNs();

// One operation of a workload, run on one generator thread. When traced it
// records the benchmark's spans: a root "op.<type>" from the scheduled
// instant, a "loadgen.wait" child up to when an executor picked it up, and
// one child per public call made through Call(). While a call runs, its span
// is the current obs trace context, so the program's own spans (RPCs,
// server handlers, action methods) nest under it.
class Op {
 public:
  Op(bool traced, std::int64_t scheduled_ns, std::int64_t picked_ns);

  void SetType(const char* type) { type_ = type; }
  const char* type() const { return type_; }

  template <typename F>
  auto Call(const char* name, F&& fn) {
    if (!traced_) return fn();
    const std::size_t span = Open(name);
    glider::obs::TraceContextScope scope({trace_id_, ids_[span]});
    auto result = fn();
    spans_[span].end_ns = NowNs();
    return result;
  }

  // Closes the root; returns the op's latency from its scheduled instant.
  std::int64_t Finish();

  bool traced() const { return traced_; }
  std::uint64_t trace_id() const { return trace_id_; }
  std::vector<Span>& spans() { return spans_; }
  const std::vector<std::uint64_t>& ids() const { return ids_; }

 private:
  std::size_t Open(const char* name);

  bool traced_;
  const char* type_ = "op";
  std::uint64_t trace_id_ = 0;
  std::vector<Span> spans_;          // [0] is the root
  std::vector<std::uint64_t> ids_;   // obs span id per span
};

struct OpResult {
  bool ok = true;
  std::uint64_t written = 0;  // payload bytes the op sent
  std::uint64_t read = 0;     // payload bytes the op received
  // Output check, run after the op's latency is taken.
  std::function<void()> verify;

  static OpResult Failed() {
    OpResult r;
    r.ok = false;
    return r;
  }
};

// The traced shape of one finished op.
struct OpTrace {
  std::string type;
  std::uint64_t trace_id = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> ids;
};

// Pins this process (the calling thread and every thread started after it)
// to the last CPU it may run on, and makes HostTicks count only that CPU.
// Call before the first thread starts.
glider::Status PinToOneCpu();

// Keeps the CPU PinToOneCpu chose from idling: a child process spins there
// at SCHED_IDLE priority, so a thread of this process that wakes takes the
// CPU at once. An idle virtual CPU halts, and waking it goes through the
// hypervisor, which charges each wake-up a delay that follows the host's
// load; a spinning one never halts. The child dies with this process; the
// destructor kills and reaps it.
class IdleSpinner {
 public:
  IdleSpinner();
  ~IdleSpinner();
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  int pid_ = -1;
};

// Host CPU time in clock ticks, from /proc/stat (both 0 where it cannot be
// read): stolen by the hypervisor, and in total. Over the CPU PinToOneCpu
// chose, or over all CPUs before it is called.
struct HostTicks {
  std::uint64_t steal = 0, total = 0;

  static HostTicks Read();
  HostTicks Minus(const HostTicks& before) const;
  // Stolen share of the ticks; 0 without ticks.
  double StealShare() const;
};

// Process and program counters read around a measured phase.
struct Counters {
  std::uint64_t link_ops = 0;    // RPC requests on every link class
  std::uint64_t link_bytes = 0;  // bytes sent + received, every link class
  std::uint64_t faas_bytes = 0;  // bytes sent + received on the FaaS link
  std::uint64_t allocs = 0, copied = 0, pool_hits = 0, pool_misses = 0;
  double cpu_s = 0;
  std::int64_t vol_csw = 0, invol_csw = 0;
  std::uint64_t yields = 0, stalls = 0;
  HostTicks host;

  static Counters Read(const glider::Metrics& metrics);
  Counters Plus(const Counters& other) const;
  Counters Minus(const Counters& before) const;
};

// What one measured phase produced.
struct Phase {
  std::vector<std::string> types;  // op type names, index = sample.type
  struct Sample {
    std::size_t type = 0;
    double latency_ms = 0;
  };
  std::vector<Sample> samples;  // successful ops only
  std::vector<double> lag_ms;   // generator lateness per released op
  std::uint64_t attempted = 0, failed = 0;
  std::size_t backlog_peak = 0;
  std::uint64_t ops = 0;        // completed ops
  std::uint64_t written = 0, read = 0;
  double wall_s = 0;
  double busy_s = 0;  // reduce_stream: first write to verified read
  Counters delta;
  std::vector<OpTrace> traces;

  std::vector<double> Latencies(const std::string& type) const;
  void Absorb(Op& op, const OpResult& result, double latency_ms);
};

// Folds `parts` into `out`: samples, traces and lags appended, counts,
// times and counter deltas summed, backlog peak maxed.
void Merge(std::vector<Phase>& parts, Phase& out);

using OpFn = std::function<OpResult(std::size_t worker, std::uint64_t id,
                                    Op& op)>;

struct LoadSpec {
  std::size_t workers = 3;
  double seconds = 1;
  bool traced = false;
  // Open loop only.
  double rate_per_s = 0;
  std::uint64_t seed = 1;
  // Op ids start here (open loop: one per arrival; closed loop: executor w
  // counts up from first_id + w * 2^32), so every block draws fresh inputs.
  std::uint64_t first_id = 0;
};

// Poisson arrivals at spec.rate_per_s for spec.seconds, run by
// spec.workers executors. Latency counts from each arrival's scheduled
// instant; no arrival is dropped, however late it is claimed.
Phase RunOpenLoop(const LoadSpec& spec, const glider::Metrics& metrics,
                  const OpFn& fn);

// spec.workers executors run ops back to back for spec.seconds.
Phase RunClosedLoop(const LoadSpec& spec, const glider::Metrics& metrics,
                    const OpFn& fn);

// Ops derive their type and inputs from (seed, id) alone, so a seed fixes
// the inputs of every arrival whatever the timing.
glider::SplitMix64 OpRng(std::uint64_t seed, std::uint64_t id);

// Collects output-check failures from any thread.
class Checker {
 public:
  void Fail(const std::string& what);
  std::vector<std::string> errors() const;
  std::size_t count() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> errors_;
  std::size_t count_ = 0;
};

// A run is measured as a sequence of short windows (blocks of arrivals, or
// groups of jobs) and a time metric is the median of its per-window values
// over the run's quiet windows (stats.h QuietWindows): a window in which the
// hypervisor stole CPU time from the host measures the neighbours, not the
// program.
using Windows = std::vector<Phase>;

// The quiet windows of `windows`; `name` labels the note that lists every
// window's steal share and which were kept.
Windows Quiet(const Windows& windows, const std::string& name, Outcome& out);

// All windows folded into one (samples pooled, counters summed).
Phase Pool(const Windows& windows);
double MedianOver(const Windows& windows,
                  const std::function<double(const Phase&)>& stat);

// Adds metric `name`: the median over windows of stat(window). The
// per-window values are printed above the JSON line.
void AddWindowed(Outcome& out, const std::string& name, const std::string& unit,
                 const Windows& windows,
                 const std::function<double(const Phase&)>& stat);

// Adds <name>_p50_ms: the median over windows of each window's p50 latency
// of ops (or calls) of `type`; every window must hold enough samples to
// print its p50. The p90 (same estimator), pooled p99 and max are printed,
// not gated, each only when its samples allow.
void AddLatency(Outcome& out, const std::string& name, const Windows& windows,
                const std::string& type);

// Appends the per-layer metrics of a traced run: counters from the
// untraced windows, spans and critical-path shares from the traced ones.
// `op_unit_bytes` > 0 makes one "op" that many input bytes (reduce_stream
// counts per MiB); otherwise an op is one completed operation.
void AddLayerMetrics(const Windows& plain, const Windows& traced,
                     std::uint64_t op_unit_bytes, Outcome& out);

double Median(std::vector<double> values);
double PeakRssMb();
void Add(Outcome& out, std::string name, double value, std::string unit);
void Note(Outcome& out, std::string line);

}  // namespace perfbench
