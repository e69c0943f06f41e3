#include "common/event_journal.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>

#include "common/trace.h"

namespace glider::obs {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kServerUp: return "server_up";
    case EventType::kServerDown: return "server_down";
    case EventType::kPeerAlive: return "peer_alive";
    case EventType::kPeerSuspect: return "peer_suspect";
    case EventType::kPeerDead: return "peer_dead";
    case EventType::kSlotStall: return "slot_stall";
    case EventType::kHotspot: return "hotspot";
    case EventType::kFlushStorm: return "flush_storm";
    case EventType::kPoolExhausted: return "pool_exhausted";
  }
  return "unknown";
}

// Fixed-capacity ring: `events` grows to kRingCapacity once, then `next`
// wraps and overwrites the oldest slot. Merge order is restored from the
// timestamps at Snapshot() time, so the ring never shifts elements.
struct EventJournal::ThreadRing {
  mutable std::mutex mu;
  std::vector<Event> events;
  std::size_t next = 0;
  std::uint64_t overwritten = 0;
};

namespace {

// Live threads' rings, plus `retired`: the newest kRingCapacity events of
// threads that have exited, folded in by their RingReleaser, so the
// registry follows the number of live threads, not thread churn. Events an
// exiting thread's fold pushes out count as overwritten. Leaked on purpose
// (same as TraceRecorder's registry): thread-exit destructors may run after
// static teardown.
struct RingRegistry {
  std::mutex mu;
  std::vector<EventJournal::ThreadRing*> live;
  std::vector<Event> retired;  // sorted by t_us
  std::uint64_t retired_overwritten = 0;
};

RingRegistry& Registry() {
  static RingRegistry* registry = new RingRegistry();
  return *registry;
}

// Owns the calling thread's ring; at thread exit folds it into the
// registry's retired events and unregisters it.
struct RingReleaser {
  std::unique_ptr<EventJournal::ThreadRing> ring;
  ~RingReleaser() {
    if (ring == nullptr) return;
    auto& registry = Registry();
    std::scoped_lock lock(registry.mu);
    std::erase(registry.live, ring.get());
    registry.retired_overwritten += ring->overwritten;
    if (ring->events.empty()) return;
    std::vector<Event>& retired = registry.retired;
    const auto mid = static_cast<std::ptrdiff_t>(retired.size());
    retired.insert(retired.end(), std::make_move_iterator(ring->events.begin()),
                   std::make_move_iterator(ring->events.end()));
    const auto by_time = [](const Event& a, const Event& b) {
      return a.t_us < b.t_us;
    };
    std::sort(retired.begin() + mid, retired.end(), by_time);
    std::inplace_merge(retired.begin(), retired.begin() + mid, retired.end(),
                       by_time);
    if (retired.size() > EventJournal::kRingCapacity) {
      const std::size_t excess = retired.size() - EventJournal::kRingCapacity;
      retired.erase(retired.begin(),
                    retired.begin() + static_cast<std::ptrdiff_t>(excess));
      registry.retired_overwritten += excess;
    }
  }
};

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

EventJournal& EventJournal::Global() {
  static EventJournal* journal = new EventJournal();
  return *journal;
}

EventJournal::ThreadRing& EventJournal::LocalRing() {
  thread_local RingReleaser releaser;
  if (releaser.ring == nullptr) {
    releaser.ring = std::make_unique<ThreadRing>();
    auto& registry = Registry();
    std::scoped_lock lock(registry.mu);
    registry.live.push_back(releaser.ring.get());
  }
  return *releaser.ring;
}

void EventJournal::Record(EventType type, std::string scope,
                          std::string detail, std::int64_t value) {
  Event event;
  event.t_us = TraceNowMicros();
  event.trace_id = CurrentTraceContext().trace_id;
  event.type = type;
  event.value = value;
  event.scope = std::move(scope);
  event.detail = std::move(detail);

  ThreadRing& ring = LocalRing();
  std::scoped_lock lock(ring.mu);
  if (ring.events.size() < kRingCapacity) {
    ring.events.push_back(std::move(event));
  } else {
    ring.events[ring.next] = std::move(event);
    ++ring.overwritten;
  }
  ring.next = (ring.next + 1) % kRingCapacity;
}

std::vector<Event> EventJournal::Snapshot() const {
  auto& registry = Registry();
  std::scoped_lock lock(registry.mu);
  std::vector<Event> all = registry.retired;
  for (const ThreadRing* ring : registry.live) {
    std::scoped_lock ring_lock(ring->mu);
    all.insert(all.end(), ring->events.begin(), ring->events.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& a, const Event& b) { return a.t_us < b.t_us; });
  return all;
}

std::uint64_t EventJournal::Overwritten() const {
  auto& registry = Registry();
  std::scoped_lock lock(registry.mu);
  std::uint64_t total = registry.retired_overwritten;
  for (const ThreadRing* ring : registry.live) {
    std::scoped_lock ring_lock(ring->mu);
    total += ring->overwritten;
  }
  return total;
}

void EventJournal::Clear() {
  auto& registry = Registry();
  std::scoped_lock lock(registry.mu);
  registry.retired.clear();
  registry.retired_overwritten = 0;
  for (ThreadRing* ring : registry.live) {
    std::scoped_lock ring_lock(ring->mu);
    ring->events.clear();
    ring->next = 0;
    ring->overwritten = 0;
  }
}

std::size_t EventJournal::LiveRings() {
  auto& registry = Registry();
  std::scoped_lock lock(registry.mu);
  return registry.live.size();
}

std::string EventJournal::ToJson() const {
  const std::vector<Event> events = Snapshot();
  std::string out = "{\"events\":[";
  char buf[128];
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"t_us\":%" PRIu64 ",\"type\":", e.t_us);
    out += buf;
    AppendJsonString(out, EventTypeName(e.type));
    out += ",\"scope\":";
    AppendJsonString(out, e.scope);
    if (!e.detail.empty()) {
      out += ",\"detail\":";
      AppendJsonString(out, e.detail);
    }
    std::snprintf(buf, sizeof(buf), ",\"value\":%lld",
                  static_cast<long long>(e.value));
    out += buf;
    if (e.trace_id != 0) {
      std::snprintf(buf, sizeof(buf), ",\"trace_id\":\"%" PRIx64 "\"",
                    e.trace_id);
      out += buf;
    }
    out += '}';
  }
  char tail[64];
  std::snprintf(tail, sizeof(tail), "],\"overwritten\":%" PRIu64 "}",
                Overwritten());
  out += tail;
  return out;
}

void JournalEvent(EventType type, std::string scope, std::string detail,
                  std::int64_t value) {
  EventJournal::Global().Record(type, std::move(scope), std::move(detail),
                                value);
}

}  // namespace glider::obs
