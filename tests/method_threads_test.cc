// Tests of the active server's method threads: a finished method's thread
// parks and serves the next method, more methods than the parked cap can
// block at once without starving each other, a reused thread starts every
// method with a clean principal, trace context and profile tag, and Stop()
// joins parked and running threads alike.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/attribution.h"
#include "common/metrics_registry.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "glider/client/action_node.h"
#include "testing/cluster.h"

namespace glider {
namespace {

using core::Action;
using core::ActionContext;
using core::ActionInputStream;
using core::ActionNode;
using testing::ClusterOptions;
using testing::MiniCluster;

std::atomic<int> g_threads_started{0};
std::atomic<int> g_threads_exited{0};

// Constructed on a method thread's first method; counts the thread's exit.
struct ThreadMark {
  ThreadMark() { ++g_threads_started; }
  ~ThreadMark() { ++g_threads_exited; }
};

std::atomic<int> g_in_method{0};
std::atomic<long long> g_lines{0};

// Counts lines, and how many of its methods are running at once.
class CountingAction : public Action {
 public:
  void onWrite(ActionInputStream& in, ActionContext&) override {
    thread_local ThreadMark mark;
    ++g_in_method;
    auto lines = in.Lines();
    std::string line;
    while (true) {
      auto more = lines.NextLine(line);
      if (!more.ok() || !*more) break;
      ++g_lines;
    }
    --g_in_method;
  }
};
GLIDER_REGISTER_ACTION("test.threads.count", CountingAction);

// What a method saw of its thread's ambient state when it started.
struct Ambient {
  std::thread::id thread;
  obs::PrincipalId principal = 0;
  std::uint64_t trace_id = 0;
  std::string profile_tag;
};
std::mutex g_ambient_mu;
Ambient g_ambient;

class AmbientProbeAction : public Action {
 public:
  void onWrite(ActionInputStream& in, ActionContext&) override {
    {
      std::scoped_lock lock(g_ambient_mu);
      g_ambient.thread = std::this_thread::get_id();
      g_ambient.principal = obs::CurrentPrincipal();
      g_ambient.trace_id = obs::CurrentTraceContext().trace_id;
      g_ambient.profile_tag = obs::CurrentProfileTag();
    }
    while (true) {
      auto chunk = in.ReadChunk();
      if (!chunk.ok() || chunk->empty()) break;
    }
  }
};
GLIDER_REGISTER_ACTION("test.threads.probe", AmbientProbeAction);

std::uint64_t SpawnedThreads() {
  return obs::MetricsRegistry::Global()
      .GetCounter("active.method_threads_spawned")
      .value();
}

class MethodThreadsTest : public ::testing::Test {
 protected:
  void Start(std::uint32_t slots) {
    ClusterOptions options;
    options.slots_per_server = slots;
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->NewInternalClient();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(client).value();
  }

  void WriteOnce(ActionNode& node, const std::string& text) {
    auto writer = node.OpenWriter();
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Write(text).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }

  std::unique_ptr<MiniCluster> cluster_;
  std::unique_ptr<nk::StoreClient> client_;
};

TEST_F(MethodThreadsTest, SequentialMethodsReuseParkedThreads) {
  Start(/*slots=*/4);
  auto node = ActionNode::Create(*client_, "/seq", "test.threads.count");
  ASSERT_TRUE(node.ok()) << node.status().ToString();

  g_lines = 0;
  const std::uint64_t before = SpawnedThreads();
  constexpr int kOpens = 50;
  for (int i = 0; i < kOpens; ++i) {
    WriteOnce(*node, "a\nb\n");
    ASSERT_TRUE(node->StateBytes().ok());
  }
  EXPECT_EQ(g_lines.load(), 2 * kOpens);
  // 100 methods, one at a time: a thread that finished its method may not
  // have parked yet when the next arrives, so a second (or third) thread
  // can start — but never one per method.
  EXPECT_LE(SpawnedThreads() - before, 3u);
}

TEST_F(MethodThreadsTest, MoreBlockedMethodsThanParkedCapAllComplete) {
  // 2 slots: at most 2 threads stay parked. 8 interleaved writers keep 8
  // methods blocked on their streams at once, so 8 threads must run.
  Start(/*slots=*/2);
  auto node = ActionNode::Create(*client_, "/wide", "test.threads.count",
                                 /*interleave=*/true);
  ASSERT_TRUE(node.ok()) << node.status().ToString();

  g_lines = 0;
  constexpr int kWriters = 8;
  std::vector<std::unique_ptr<core::ActionWriter>> writers;
  for (int w = 0; w < kWriters; ++w) {
    auto writer = node->OpenWriter();
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Write("x\ny\nz\n").ok());
    writers.push_back(std::move(writer).value());
  }
  // Every method starts and blocks on its open stream; none can finish
  // before its writer closes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (g_in_method.load() < kWriters &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(g_in_method.load(), kWriters);
  for (auto& writer : writers) ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(g_lines.load(), 3 * kWriters);

  // The threads beyond the cap exited; the cache still serves new methods.
  for (int i = 0; i < 10; ++i) WriteOnce(*node, "q\n");
  EXPECT_EQ(g_lines.load(), 3 * kWriters + 10);
}

TEST_F(MethodThreadsTest, ReusedThreadStartsWithCleanAmbientState) {
  // One slot, so one parked thread; the pauses let each method's thread
  // park before the next method arrives, so both runs below share it.
  Start(/*slots=*/1);
  auto node = ActionNode::Create(*client_, "/probe", "test.threads.probe");
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  const auto settle = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  settle();

  // A method under a tenant, a trace and a profile tag...
  auto& profiler = obs::SamplingProfiler::Global();
  ASSERT_TRUE(profiler.Start({}).ok());
  obs::SetEnabled(true);
  {
    obs::PrincipalScope principal(obs::PrincipalFromName("tenant"));
    obs::TraceContextScope trace(
        obs::TraceContext{obs::NewTraceId(), obs::NewSpanId()});
    WriteOnce(*node, "traced\n");
  }
  obs::SetEnabled(false);
  profiler.Stop();
  Ambient first;
  {
    std::scoped_lock lock(g_ambient_mu);
    first = g_ambient;
  }
  EXPECT_EQ(first.principal, obs::PrincipalFromName("tenant"));
  EXPECT_NE(first.trace_id, 0u);
  EXPECT_NE(first.profile_tag.find("test.threads.probe.onWrite"),
            std::string::npos)
      << first.profile_tag;
  settle();

  // ...leaves nothing behind for the next method on the same thread.
  WriteOnce(*node, "plain\n");
  Ambient second;
  {
    std::scoped_lock lock(g_ambient_mu);
    second = g_ambient;
  }
  EXPECT_EQ(second.thread, first.thread);
  EXPECT_EQ(second.principal, 0u);
  EXPECT_EQ(second.trace_id, 0u);
  EXPECT_EQ(second.profile_tag, "");
}

TEST_F(MethodThreadsTest, StopJoinsParkedAndRunningThreads) {
  Start(/*slots=*/4);
  auto node = ActionNode::Create(*client_, "/stop", "test.threads.count",
                                 /*interleave=*/true);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  const int started_before = g_threads_started.load();
  const int exited_before = g_threads_exited.load();

  // Parked threads: methods that finished.
  for (int i = 0; i < 3; ++i) WriteOnce(*node, "p\n");
  // Running threads: methods blocked on streams the client never closes.
  std::vector<std::unique_ptr<core::ActionWriter>> open;
  for (int i = 0; i < 3; ++i) {
    auto writer = node->OpenWriter();
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Write("r\n").ok());
    open.push_back(std::move(writer).value());
  }
  EXPECT_GT(g_threads_started.load(), started_before);

  cluster_->active().Stop();
  // Every method thread that ran this action has exited by the time Stop
  // returns, the blocked ones included.
  EXPECT_EQ(g_threads_started.load() - started_before,
            g_threads_exited.load() - exited_before);
  open.clear();  // their closes now fail fast against the stopped server
}

}  // namespace
}  // namespace glider
