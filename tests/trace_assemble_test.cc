// Tests for cross-node trace assembly (DESIGN.md §11): RTT-midpoint clock
// offset estimation under skew + jitter, Chrome-JSON round-tripping,
// multi-node tree rebuild and critical-path attribution under injected
// clock skew, causal alignment of nodes without heartbeat samples, orphan
// grafting, and the live paths (MiniCluster end-to-end assembly and
// ClusterMonitor::AlignClocks over real sockets).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/trace.h"
#include "common/trace_assemble.h"
#include "glider/client/action_node.h"
#include "glider/cluster_monitor.h"
#include "nodekernel/client/store_client.h"
#include "testing/cluster.h"
#include "workloads/actions.h"

namespace glider {
namespace {

using obs::AssembledTrace;
using obs::ClockOffsetEstimator;
using obs::ClockSample;
using obs::SpanRecord;
using obs::TraceAssembler;

SpanRecord MakeSpan(const std::string& name, std::uint64_t trace_id,
                    std::uint64_t span_id, std::uint64_t parent,
                    std::uint64_t start_us, std::uint64_t dur_us) {
  SpanRecord span;
  span.name = name;
  span.category = "test";
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span_id = parent;
  span.start_us = start_us;
  span.dur_us = dur_us;
  return span;
}

std::uint64_t BucketSum(const AssembledTrace& trace) {
  std::uint64_t sum = 0;
  for (const auto& [bucket, us] : trace.bucket_us) sum += us;
  return sum;
}

// ---- Clock offset estimation ------------------------------------------------

// A remote clock skewed by a constant offset, probed through a network with
// jittery one-way delays: the min-RTT-filtered midpoint estimate must land
// within error_bound_us (= min_rtt / 2) of the true offset.
TEST(ClockOffsetEstimatorTest, ConvergesWithinMinRttBound) {
  constexpr std::int64_t kTrueOffset = 25'000'000;  // 25 s boot-time delta
  SplitMix64 rng(7);
  ClockOffsetEstimator estimator;
  std::uint64_t local = 1'000'000;
  for (int i = 0; i < 64; ++i) {
    // Asymmetric jitter: 30..530 us out, 30..1030 us back.
    const std::uint64_t out = 30 + rng.Next() % 500;
    const std::uint64_t back = 30 + rng.Next() % 1000;
    ClockSample sample;
    sample.send_us = local;
    sample.remote_us =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(local + out) +
                                   kTrueOffset);
    sample.recv_us = local + out + back;
    estimator.AddSample(sample);
    local += 10'000;
  }
  ASSERT_TRUE(estimator.has_estimate());
  EXPECT_EQ(estimator.samples(), 64);
  // 64 draws make a near-minimal RTT (~60 us floor) overwhelmingly likely.
  EXPECT_LT(estimator.min_rtt_us(), 300u);
  const std::int64_t error = estimator.offset_us() - kTrueOffset;
  EXPECT_LE(static_cast<std::uint64_t>(error < 0 ? -error : error),
            estimator.error_bound_us())
      << "offset " << estimator.offset_us() << " true " << kTrueOffset
      << " bound " << estimator.error_bound_us();
}

// Symmetric delays make the midpoint exact regardless of RTT.
TEST(ClockOffsetEstimatorTest, SymmetricDelayIsExact) {
  ClockOffsetEstimator estimator;
  ClockSample sample;
  sample.send_us = 1000;
  sample.recv_us = 1400;                 // rtt 400
  sample.remote_us = 1200 + 77'000'000;  // stamped exactly at the midpoint
  estimator.AddSample(sample);
  EXPECT_EQ(estimator.offset_us(), 77'000'000);
  EXPECT_EQ(estimator.min_rtt_us(), 400u);
  EXPECT_EQ(estimator.error_bound_us(), 200u);
}

// ---- Chrome JSON round trip -------------------------------------------------

TEST(ParseChromeTraceJsonTest, RoundTripsRecorderOutput) {
  obs::SetEnabled(true);
  obs::TraceRecorder::Global().Clear();
  {
    obs::Span root = obs::Span::Root("test", "round_trip_root");
    obs::Span child("test", "round_trip_child");
  }
  const std::string json = obs::TraceRecorder::Global().ToChromeJson();
  obs::TraceRecorder::Global().Clear();
  obs::SetEnabled(false);

  auto parsed = obs::ParseChromeTraceJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  const SpanRecord* root = nullptr;
  const SpanRecord* child = nullptr;
  for (const auto& span : *parsed) {
    if (span.name == "round_trip_root") root = &span;
    if (span.name == "round_trip_child") child = &span;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(root->trace_id, child->trace_id);
  EXPECT_EQ(child->parent_span_id, root->span_id);
  EXPECT_EQ(root->parent_span_id, 0u);
  EXPECT_STREQ(root->category, "test");
  EXPECT_GE(child->start_us, root->start_us);
}

TEST(ParseChromeTraceJsonTest, RejectsGarbageAndSkipsNonSpanEvents) {
  EXPECT_FALSE(obs::ParseChromeTraceJson("not json").ok());
  // Metadata rows (ph:"M") and spans without ids are skipped, not errors.
  auto parsed = obs::ParseChromeTraceJson(
      R"({"traceEvents":[)"
      R"({"ph":"M","pid":1,"name":"process_name"},)"
      R"({"ph":"X","pid":1,"tid":2,"name":"n","cat":"c","ts":5,"dur":3,)"
      R"("args":{"trace_id":"0000000000000000","span_id":"1"}}]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->empty());
}

// ---- Multi-node assembly under skew -----------------------------------------

// Three nodes with clocks ±50 ms apart, one RPC chain spanning them:
// client(load.req -> rpc.Get) -> mid(handle.Get -> rpc.Read) ->
// far(handle.Read). With explicit offsets the assembled trace must order
// every span on one timeline, keep the critical path monotone, and have
// its buckets partition the end-to-end window exactly.
TEST(TraceAssemblerTest, ThreeNodeSkewedCriticalPath) {
  constexpr std::uint64_t kTrace = 0xabc1;
  // True timeline (reference clock): root [1000, 9000).
  // Node clocks: mid runs 50 ms ahead, far 50 ms behind.
  constexpr std::int64_t kMidOffset = 50'000;
  constexpr std::int64_t kFarOffset = -50'000;

  TraceAssembler assembler;
  assembler.AddSpans(
      "client",
      {MakeSpan("load.req", kTrace, 1, 0, 1000, 8000),
       MakeSpan("rpc.Get", kTrace, 2, 1, 2000, 6000)},
      0);
  assembler.AddSpans(
      "mid",
      {MakeSpan("handle.Get", kTrace, 3, 2, 2500 + kMidOffset, 5000),
       MakeSpan("rpc.Read", kTrace, 4, 3, 3000 + kMidOffset, 3000)},
      kMidOffset);
  assembler.AddSpans(
      "far", {MakeSpan("handle.Read", kTrace, 5, 4, 3500 + kFarOffset, 2000)},
      kFarOffset);

  auto traces = assembler.Assemble();
  ASSERT_EQ(traces.size(), 1u);
  const AssembledTrace& trace = traces[0];
  EXPECT_EQ(trace.nodes, 3u);
  EXPECT_EQ(trace.orphans, 0u);
  ASSERT_EQ(trace.spans.size(), 5u);
  EXPECT_EQ(trace.spans[trace.root].span.name, "load.req");
  EXPECT_EQ(trace.total_us, 8000u);

  // Aligned: every child starts at or after its parent (offsets removed).
  for (const auto& span : trace.spans) {
    if (span.parent == obs::AssembledSpan::kNoParent) continue;
    EXPECT_GE(span.clamp_start_us, trace.spans[span.parent].clamp_start_us)
        << span.span.name;
    EXPECT_LE(span.clamp_end_us, trace.spans[span.parent].clamp_end_us)
        << span.span.name;
  }

  // The critical path partitions [root.start, root.end) monotonically.
  ASSERT_FALSE(trace.critical_path.empty());
  std::uint64_t cursor = trace.start_us;
  for (const auto& segment : trace.critical_path) {
    EXPECT_EQ(segment.start_us, cursor);
    EXPECT_GT(segment.end_us, segment.start_us);
    cursor = segment.end_us;
  }
  EXPECT_EQ(cursor, trace.start_us + trace.total_us);
  EXPECT_EQ(BucketSum(trace), trace.total_us);

  // The depth sweep charges the deepest covering span. Aligned timeline:
  // load.req [1000,9000) > rpc.Get [2000,8000) > handle.Get [2500,7500)
  // > rpc.Read [3000,6000) > handle.Read [3500,5500), so:
  //   server: handle.Get remainders (500+1500) + handle.Read (2000)
  //   net:    rpc.Get remainders (500+500) + rpc.Read remainders (500+500)
  //   client: load.req remainders (1000+1000)
  EXPECT_EQ(trace.bucket_us.at("server"), 4000u);
  EXPECT_EQ(trace.bucket_us.at("net"), 2000u);
  EXPECT_EQ(trace.bucket_us.at("client"), 2000u);
}

// A node with no explicit offset aligns causally: its handle.Get must sit
// inside the client's rpc.Get, and the recovered offset lands close enough
// to the truth that the critical path still partitions exactly.
TEST(TraceAssemblerTest, CausalFallbackAlignsUnsampledNode) {
  constexpr std::uint64_t kTrace = 0xdef2;
  constexpr std::int64_t kServerOffset = 30'000'000;  // 30 s, no sample

  TraceAssembler assembler;
  assembler.AddSpans(
      "client",
      {MakeSpan("cli.req", kTrace, 1, 0, 1000, 4000),
       MakeSpan("rpc.Get", kTrace, 2, 1, 1500, 3000)},
      0);
  // No offset passed: alignment must come from the rpc.Get/handle.Get pair.
  assembler.AddSpans(
      "server",
      {MakeSpan("handle.Get", kTrace, 3, 2, 2000 + kServerOffset, 2000)});

  auto traces = assembler.Assemble();
  ASSERT_EQ(traces.size(), 1u);
  const AssembledTrace& trace = traces[0];
  EXPECT_TRUE(assembler.unaligned_nodes().empty());
  const std::int64_t recovered = assembler.node_offsets().at("server");
  // Midpoint-of-midpoints: rpc.Get midpoint 3000 vs handle.Get midpoint
  // 3000 + offset; the estimate is exact here.
  EXPECT_NEAR(static_cast<double>(recovered),
              static_cast<double>(kServerOffset), 1500.0);
  EXPECT_EQ(trace.nodes, 2u);
  EXPECT_EQ(BucketSum(trace), trace.total_us);
  // handle.Get clamps inside rpc.Get on the aligned timeline.
  const obs::AssembledSpan* handle = nullptr;
  const obs::AssembledSpan* rpc = nullptr;
  for (const auto& span : trace.spans) {
    if (span.span.name == "handle.Get") handle = &span;
    if (span.span.name == "rpc.Get") rpc = &span;
  }
  ASSERT_NE(handle, nullptr);
  ASSERT_NE(rpc, nullptr);
  EXPECT_GE(handle->clamp_start_us, rpc->clamp_start_us);
  EXPECT_LE(handle->clamp_end_us, rpc->clamp_end_us);
}

// Dumps whose root lived in a process we never fetched become an orphan
// forest under a synthetic root spanning the forest.
TEST(TraceAssemblerTest, OrphanForestGetsSyntheticRoot) {
  constexpr std::uint64_t kTrace = 0x5417;
  TraceAssembler assembler;
  assembler.AddSpans(
      "server",
      {MakeSpan("handle.Put", kTrace, 10, 99, 1000, 500),   // parent missing
       MakeSpan("handle.Get", kTrace, 11, 99, 2000, 800),   // parent missing
       MakeSpan("storage.write", kTrace, 12, 10, 1100, 200)},
      0);
  auto traces = assembler.Assemble();
  ASSERT_EQ(traces.size(), 1u);
  const AssembledTrace& trace = traces[0];
  ASSERT_EQ(trace.spans.size(), 4u);  // 3 real + synthetic root
  EXPECT_TRUE(trace.spans[trace.root].synthetic);
  EXPECT_EQ(trace.orphans, 2u);
  EXPECT_EQ(trace.start_us, trace.spans[trace.root].span.start_us);
  EXPECT_EQ(trace.total_us, 1800u);  // [1000, 2800)
  EXPECT_EQ(BucketSum(trace), trace.total_us);
  ASSERT_FALSE(trace.critical_path.empty());
}

// An action's run span starts under the stream open that submitted it and
// runs on through the client's writes and close. On its parent's node the
// clock is shared, so the run is not clamped into the open's window: the
// time the method spends running during the close is charged to "run".
TEST(TraceAssemblerTest, SameNodeRunOutlivingItsParentIsChargedToRun) {
  constexpr std::uint64_t kTrace = 0x7e11;
  TraceAssembler assembler;
  assembler.AddSpans(
      "client",
      {MakeSpan("load.req", kTrace, 1, 0, 1000, 8000),
       MakeSpan("rpc.StreamOpen", kTrace, 2, 1, 1100, 500),
       MakeSpan("rpc.StreamClose", kTrace, 3, 1, 3000, 5800)},
      0);
  assembler.AddSpans(
      "server",
      {MakeSpan("handle.StreamOpen", kTrace, 4, 2, 1200, 300),
       MakeSpan("action.onWrite.queue", kTrace, 5, 4, 1250, 50),
       MakeSpan("action.onWrite.run", kTrace, 6, 4, 1300, 7200),
       MakeSpan("handle.StreamClose", kTrace, 7, 3, 3100, 100)},
      0);

  auto traces = assembler.Assemble();
  ASSERT_EQ(traces.size(), 1u);
  const AssembledTrace& trace = traces[0];
  ASSERT_EQ(trace.spans.size(), 7u);
  EXPECT_EQ(trace.total_us, 8000u);
  EXPECT_EQ(BucketSum(trace), trace.total_us);

  const obs::AssembledSpan* run = nullptr;
  for (const auto& span : trace.spans) {
    if (span.span.name == "action.onWrite.run") run = &span;
  }
  ASSERT_NE(run, nullptr);
  EXPECT_GT(run->clamp_end_us, trace.spans[run->parent].clamp_end_us);

  // Deepest covering span: the run [1300, 8500) sits below every handle
  // and rpc span, so it takes all of its own window.
  EXPECT_EQ(trace.bucket_us.at("run"), 7200u);
  EXPECT_EQ(trace.bucket_us.at("queue"), 50u);
  EXPECT_EQ(trace.bucket_us.at("server"), 50u);
  EXPECT_EQ(trace.bucket_us.at("net"), 400u);
  EXPECT_EQ(trace.bucket_us.at("client"), 300u);
}

TEST(TraceAssemblerTest, BucketMapping) {
  EXPECT_STREQ(TraceAssembler::BucketFor("rpc.StreamWrite"), "net");
  EXPECT_STREQ(TraceAssembler::BucketFor("handle.Lookup"), "server");
  EXPECT_STREQ(TraceAssembler::BucketFor("meta.lookup"), "server");
  EXPECT_STREQ(TraceAssembler::BucketFor("storage.write"), "server");
  EXPECT_STREQ(TraceAssembler::BucketFor("action.onWrite.queue"), "queue");
  EXPECT_STREQ(TraceAssembler::BucketFor("action.onWrite.run"), "run");
  EXPECT_STREQ(TraceAssembler::BucketFor("channel.wait"), "channel");
  EXPECT_STREQ(TraceAssembler::BucketFor("channel.pop"), "channel");
  EXPECT_STREQ(TraceAssembler::BucketFor("load.sink"), "client");
  EXPECT_STREQ(TraceAssembler::BucketFor("cli.action-write"), "client");
  EXPECT_STREQ(TraceAssembler::BucketFor("anything.else"), "client");
}

TEST(PercentileUsTest, NearestRank) {
  EXPECT_EQ(obs::PercentileUs({}, 99), 0.0);
  EXPECT_EQ(obs::PercentileUs({7}, 50), 7.0);
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(obs::PercentileUs(v, 50), 50.0);
  EXPECT_EQ(obs::PercentileUs(v, 99), 99.0);
  EXPECT_EQ(obs::PercentileUs(v, 100), 100.0);
}

// ---- End-to-end over a MiniCluster ------------------------------------------

// A traced action-write workload through a MiniCluster: snapshotting the
// (shared, in-process) recorder and assembling must yield complete traces
// whose buckets partition the end-to-end window, with the action pipeline
// visible (queue/run spans parented under the handles, channel spans from
// the stream hops).
TEST(TraceAssembleE2ETest, MiniClusterActionWriteAssembles) {
  workloads::RegisterWorkloadActions();
  obs::SetEnabled(true);
  obs::TraceRecorder::Global().Clear();

  testing::ClusterOptions options;
  options.data_servers = 1;
  options.active_servers = 1;
  auto cluster = testing::MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  {
    auto client = (*cluster)->NewInternalClient();
    ASSERT_TRUE(client.ok());
    auto node = core::ActionNode::Create(**client, "/ta-sink", "glider.merge");
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    for (int i = 0; i < 4; ++i) {
      obs::Span root = obs::Span::Root("test", "load.e2e");
      std::string batch;
      for (int k = 0; k < 32; ++k) {
        batch += std::to_string(i * 32 + k) + ",1\n";
      }
      auto writer = node->OpenWriter();
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE((*writer)->Write(batch).ok());
      ASSERT_TRUE((*writer)->Close().ok());
    }
  }

  TraceAssembler assembler;
  assembler.AddSpans("mini", obs::TraceRecorder::Global().Snapshot(), 0);
  auto traces = assembler.Assemble();
  obs::TraceRecorder::Global().Clear();
  obs::SetEnabled(false);
  cluster->reset();

  std::size_t checked = 0;
  bool saw_queue = false, saw_run = false;
  for (const auto& trace : traces) {
    if (trace.spans[trace.root].span.name != "load.e2e") continue;
    ++checked;
    ASSERT_FALSE(trace.critical_path.empty());
    EXPECT_EQ(BucketSum(trace), trace.total_us);
    for (const auto& span : trace.spans) {
      if (span.span.name == "action.onWrite.queue") saw_queue = true;
      if (span.span.name == "action.onWrite.run") saw_run = true;
    }
  }
  EXPECT_EQ(checked, 4u);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_run);
}

// AlignClocks over real sockets: every discovered server answers, and since
// MiniCluster shares one process (one clock), each estimated offset must be
// within the estimator's own error bound of zero.
TEST(TraceAssembleE2ETest, AlignClocksOverTcpMiniCluster) {
  workloads::RegisterWorkloadActions();
  testing::ClusterOptions options;
  options.use_tcp = true;
  options.data_servers = 1;
  options.active_servers = 1;
  auto cluster = testing::MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ClusterMonitor monitor(&(*cluster)->transport(),
                         (*cluster)->metadata_address());
  auto offsets = monitor.AlignClocks(/*samples_per_server=*/6);
  ASSERT_TRUE(offsets.ok()) << offsets.status().ToString();
  ASSERT_GE(offsets->size(), 1u);
  for (const auto& [address, offset] : *offsets) {
    EXPECT_EQ(offset.samples, 6) << address;
    const std::int64_t bound =
        static_cast<std::int64_t>(offset.min_rtt_us / 2 + 1);
    EXPECT_LE(offset.offset_us, bound) << address;
    EXPECT_GE(offset.offset_us, -bound) << address;
  }
  // The gauges landed in the global registry.
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  bool saw_gauge = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("clock.offset_us.", 0) == 0) saw_gauge = true;
  }
  EXPECT_TRUE(saw_gauge);
}

}  // namespace
}  // namespace glider
