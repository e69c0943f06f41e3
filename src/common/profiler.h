// Continuous profiling plane (DESIGN.md "Continuous profiling").
//
// A sampling CPU profiler that is safe to leave on in production: a
// process-wide SIGPROF timer (ITIMER_PROF, default 99 Hz) fires on whichever
// thread is burning CPU; the signal handler walks frame pointers from the
// interrupted context (async-signal-safe: no locks, no allocation, every
// dereference bounds-checked against the thread's stack) and appends the
// stack plus the thread's *attribution tag* into a lock-free per-thread
// ring. Symbolization (dladdr + demangle, raw-address fallback) happens at
// dump time, never in the handler.
//
// Attribution tags answer "which action/RPC is this CPU?": a thread-local
// tag set by ProfileTagScope at dispatch boundaries — the RPC service layer
// tags network workers per opcode ("rpc.StreamWrite"), the active server
// tags method threads per slot ("slot3:wordcount.onWrite"), the FaaS
// invoker tags workers per invocation. The same thread-local is read by the
// signal handler, so every sample lands under the work that was on the
// thread when the timer fired.
//
// Off-CPU attribution: code that measurably *waits* (action queue
// admission, stream-channel blocking) reports the wait duration via
// AddWaitSample; dumps convert the accumulated microseconds into synthetic
// samples at the sampling rate under a "tag;[wait];<kind>" frame, so
// flamegraphs show blocked time next to on-CPU time.
//
// Export is Brendan-Gregg collapsed-stack text ("tag;frame;frame N"), one
// line per unique stack — pipe through flamegraph.pl for an SVG. Reachable
// via the profile section on every server, `glider_cli profile`, daemon
// --profile/--profile-hz, and MiniCluster's profile_hz option.
//
// Signal-safety rules (everything the handler touches):
//   * the per-thread ring is single-producer (the interrupted thread
//     itself) / single-consumer (the collector) with acquire/release
//     indices — no locks;
//   * rings are registered from normal context before the first sample and
//     are never freed (exited threads park their ring on a free list for
//     the next thread), so the handler never observes a dangling pointer;
//   * the tag is a fixed char array published with a length field and
//     signal fences — a scope mid-update is observed as "no tag", never as
//     a torn string.
//
// Sanitizer builds (ASan/TSan) auto-disable SIGPROF sampling — the
// sanitizers' runtimes intercept signals and their stacks confuse the
// unwinder — logged once at kWarn; wait-sample (off-CPU) accounting stays
// active so the export surface keeps working.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"

namespace glider::obs {

// One captured stack, fixed-size so the signal handler never allocates.
struct ProfileSample {
  static constexpr std::size_t kMaxDepth = 32;
  static constexpr std::size_t kMaxTag = 48;  // including the NUL

  std::uint32_t depth = 0;
  char tag[kMaxTag] = {0};
  void* pcs[kMaxDepth] = {nullptr};  // pcs[0] = leaf (interrupted pc)
};

// The calling thread's current attribution tag ("" when none). Test hook;
// the signal handler reads the underlying thread-local directly.
const char* CurrentProfileTag();

// Installs `tag` as the calling thread's attribution tag and restores the
// previous tag on destruction. Registers the thread's sample ring on first
// use (normal context, so the handler never has to). Cheap when the
// profiler is inactive: one relaxed atomic load, nothing else.
class ProfileTagScope {
 public:
  explicit ProfileTagScope(const char* tag);
  ~ProfileTagScope();
  ProfileTagScope(const ProfileTagScope&) = delete;
  ProfileTagScope& operator=(const ProfileTagScope&) = delete;

 private:
  bool active_ = false;
  std::uint32_t prev_len_ = 0;
  char prev_[ProfileSample::kMaxTag] = {0};
};

class SamplingProfiler {
 public:
  struct Options {
    int hz = 99;  // sampling rate; 99 avoids lockstep with 10ms schedulers
    std::size_t ring_capacity = 2048;  // samples buffered per thread
  };

  static SamplingProfiler& Global();

  // False when SIGPROF sampling cannot run in this build (sanitizers, or a
  // platform without a frame-pointer unwinder). Start() still succeeds —
  // wait samples keep flowing — but no CPU samples are taken.
  static bool SignalSamplingSupported();

  // Arms the timer and starts a fresh window (drains every ring, clears
  // accumulated stacks). Returns kAlreadyExists if already running.
  Status Start(Options options);
  // Disarms the timer. Samples already captured stay collectable.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  // Fast gate for instrumentation sites (wait-sample timing).
  static bool ActiveFast() {
    return active_flag_.load(std::memory_order_relaxed);
  }
  int hz() const;

  // Off-CPU attribution: account `wait_us` microseconds of blocked time
  // under the calling thread's tag and `kind` ("channel.pop", ...). No-op
  // unless the profiler is running. Normal context only (takes a mutex).
  void AddWaitSample(const char* kind, std::uint64_t wait_us);

  // Drains every thread ring, symbolizes, and renders collapsed stacks:
  // "tag;outer;inner N\n" sorted by descending weight. Wait accumulators
  // are folded in as "tag;[wait];kind N" at the sampling rate. `clear`
  // resets the accumulated stacks and wait totals after rendering.
  std::string CollectFolded(bool clear = false);

  // Since the last Start(): samples captured / dropped on full rings /
  // taken on threads that never registered a ring.
  std::uint64_t SampleCount() const;
  std::uint64_t DroppedSamples() const;
  std::uint64_t UnregisteredSamples() const;

 private:
  SamplingProfiler() = default;

  static std::atomic<bool> active_flag_;

  std::atomic<bool> running_{false};
  mutable std::mutex mu_;  // guards options_, accumulated_, waits_
  Options options_;
  bool warned_sanitizer_ = false;
  // folded stack -> sample count, merged on every collect.
  std::map<std::string, std::uint64_t> accumulated_;
  // "tag;[wait];kind" -> accumulated microseconds.
  std::map<std::string, std::uint64_t> waits_;
};

}  // namespace glider::obs
