// Cross-node trace assembly (DESIGN.md §11 "Cross-node trace assembly &
// attribution").
//
// Every server answers the trace section with its own spans on its own clock
// (TraceNowMicros = steady microseconds since *that process* started), so
// per-node dumps are islands: ids link up across processes (the frame
// header carries trace_id/span_id) but timestamps do not. This library
// turns a set of per-node dumps into cluster-wide traces:
//
//   1. Clock alignment. ClockOffsetEstimator turns N request/response
//      samples of the kHeartbeat `server_time_us` field into a per-node
//      offset via RTT-midpoint estimation with a min-RTT filter: for the
//      sample with the smallest round trip, offset = remote_time -
//      (send + recv) / 2, and the residual error is bounded by rtt / 2.
//      Nodes that were never probed (offline dumps, a client that exited)
//      are aligned *causally*: a cross-node parent-child RPC pair
//      (rpc.<Op> on one node, handle.<Op> on the other) must overlap, so
//      the median midpoint delta over all such pairs estimates the offset.
//   2. Merge + tree rebuild. Spans are grouped by trace_id across nodes,
//      parent links resolved by span id, and orphan forests (the root
//      lived in a process we never dumped) are grafted under a synthetic
//      root spanning the forest.
//   3. Critical path + attribution. The blocking critical path is the
//      partition of the root's [start, end] where each instant is charged
//      to the deepest span covering it (a child on another node than its
//      parent clamps into the parent's window, so residual skew cannot
//      produce a non-monotone path; a same-node child shares the parent's
//      clock and clamps into the root's window only, since it may truly
//      outlive its parent, like an action run outliving its stream open). Each
//      segment maps to an attribution bucket by span name:
//        client (root / cli.* / load.* / faas.*), net (rpc.*),
//        server (handle.* / meta.* / storage.*), queue (action.*.queue),
//        run (action.*.run), channel (channel.*).
//      The segments partition the root exactly, so bucket sums always
//      equal the end-to-end latency.
//
// tools/glider_trace drives this against a live cluster; RunLoadSweep uses
// it in-process to put per-component percentiles into BENCH_load_curve.json.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace glider::obs {

// One kHeartbeat round trip: local clock at send and receive, remote clock
// as reported in the reply.
struct ClockSample {
  std::uint64_t send_us = 0;    // local clock when the probe left
  std::uint64_t recv_us = 0;    // local clock when the reply arrived
  std::uint64_t remote_us = 0;  // peer's clock when it replied
};

// RTT-midpoint offset estimation with a min-RTT filter: the sample with the
// smallest round trip pins the estimate, because its midpoint assumption
// (the reply was stamped halfway through the round trip) has the least room
// to be wrong. `offset_us` is (remote clock - local clock); subtract it
// from a remote timestamp to land on the local timebase.
class ClockOffsetEstimator {
 public:
  void AddSample(const ClockSample& sample);

  bool has_estimate() const { return samples_ > 0; }
  std::int64_t offset_us() const { return offset_us_; }
  // Round trip of the best (estimate-pinning) sample.
  std::uint64_t min_rtt_us() const { return min_rtt_us_; }
  // The midpoint assumption is off by at most half the round trip.
  std::uint64_t error_bound_us() const { return (min_rtt_us_ + 1) / 2; }
  int samples() const { return samples_; }

 private:
  std::int64_t offset_us_ = 0;
  std::uint64_t min_rtt_us_ = 0;
  int samples_ = 0;
};

// Parses the Chrome trace-event JSON that TraceRecorder::ToChromeJson()
// emits ({"traceEvents":[{"ph":"X",...}]}), recovering the span/trace ids
// from the args. Non-"X" events (metadata rows in merged files) are
// skipped. Categories are interned: SpanRecord stores `const char*`.
Result<std::vector<SpanRecord>> ParseChromeTraceJson(std::string_view json);

// One span of an assembled trace: timestamps rebased onto the aligned
// timebase and normalized (the earliest span of the assembly is t=0).
struct AssembledSpan {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  SpanRecord span;           // start_us/dur_us are aligned + normalized
  std::string node;          // which dump it came from ("" = synthetic)
  std::size_t parent = kNoParent;
  std::vector<std::size_t> children;  // sorted by start
  std::size_t depth = 0;     // root = 0
  bool synthetic = false;
  // Aligned interval clamped into the parent's window, or the root's for a
  // span on its parent's node (what the critical path sweeps over); equals
  // the span's own interval when clocks agree.
  std::uint64_t clamp_start_us = 0;
  std::uint64_t clamp_end_us = 0;
};

// One segment of the blocking critical path: [start_us, end_us) charged to
// `span` (an index into AssembledTrace::spans) under `bucket`.
struct CriticalSegment {
  std::size_t span = 0;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  const char* bucket = "";
};

struct AssembledTrace {
  std::uint64_t trace_id = 0;
  std::size_t root = 0;               // index into `spans`
  std::vector<AssembledSpan> spans;
  std::vector<CriticalSegment> critical_path;  // partitions the root window
  std::map<std::string, std::uint64_t> bucket_us;  // sums to total_us
  std::uint64_t start_us = 0;  // root start (normalized timebase)
  std::uint64_t total_us = 0;  // root duration = end-to-end latency
  std::size_t nodes = 0;       // distinct source nodes
  std::size_t orphans = 0;     // spans re-parented for a missing parent
};

class TraceAssembler {
 public:
  // Adds one node's span dump. With `offset_us` (remote minus reference
  // clock, from ClockOffsetEstimator) timestamps are rebased explicitly;
  // without it the node is aligned causally against the nodes that do have
  // offsets — the first node added with no offset anchors the reference
  // timebase when nothing has an explicit offset.
  void AddSpans(const std::string& node, std::vector<SpanRecord> spans,
                std::optional<std::int64_t> offset_us = std::nullopt);

  // Merges, aligns, rebuilds trees, and computes critical paths. Traces
  // are sorted by start time. Call once; AddSpans afterwards is invalid.
  std::vector<AssembledTrace> Assemble();

  // Nodes whose offset could not be estimated (no explicit sample and no
  // cross-node span pair); their spans were taken at offset 0. Valid after
  // Assemble().
  const std::vector<std::string>& unaligned_nodes() const {
    return unaligned_nodes_;
  }
  // The causal/explicit offset used per node. Valid after Assemble().
  const std::map<std::string, std::int64_t>& node_offsets() const {
    return node_offsets_;
  }

  // Attribution bucket for a span name ("client", "net", "server",
  // "queue", "run", "channel").
  static const char* BucketFor(std::string_view span_name);

 private:
  struct NodeDump {
    std::string node;
    std::vector<SpanRecord> spans;
    std::optional<std::int64_t> offset_us;
  };

  std::vector<NodeDump> dumps_;
  std::vector<std::string> unaligned_nodes_;
  std::map<std::string, std::int64_t> node_offsets_;
};

// Merged Perfetto/Chrome JSON for a set of assembled traces: one pid per
// source node with a process_name metadata row, so the Perfetto UI shows
// node-labelled tracks on one aligned timeline.
std::string ToPerfettoJson(const std::vector<AssembledTrace>& traces);

// Nearest-rank percentile over per-trace values (helper for breakdown
// reporting; sorts a copy).
double PercentileUs(std::vector<std::uint64_t> values, double pct);

}  // namespace glider::obs
