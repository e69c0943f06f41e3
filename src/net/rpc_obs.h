// RPC-plane observability glue (DESIGN.md "Observability"):
//
//   * per-opcode client/server latency histograms for both transports
//     ("rpc.client.<transport>.<op>_us" / "rpc.server.<transport>.<op>_us"),
//   * trace-context stamping of outgoing requests and installation of the
//     decoded context around server-side handling,
//   * the management opcodes kIntrospect/kHeartbeat answered uniformly by
//     every server role (storage, metadata, active) via TryHandleObs.
//
// Everything short-circuits to a no-op when obs::Enabled() is false, so the
// disabled-mode RPC hot path costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/attribution.h"
#include "common/metrics_registry.h"
#include "common/time_series.h"
#include "common/trace.h"
#include "net/transport.h"

namespace glider {
class Metrics;
}

namespace glider::net {

// Management opcodes, outside every service's protocol range. Every
// server answers both; everything else a server reports goes through the
// one kIntrospect opcode, selected by section. kHeartbeat stays separate
// because failure detection depends on it being tiny and cheap.
inline constexpr std::uint16_t kIntrospect = 990;  // -> see Section
inline constexpr std::uint16_t kHeartbeat = 995;   // -> HeartbeatResponse

// kIntrospect request: which section to dump and whether to clear it after
// dumping (genny's getStats(withReset) shape). Replies, by section:
//   metrics     -> SeriesDumpResponse (registry snapshot + sampler rings)
//   trace       -> Chrome trace-event JSON
//   slow_traces -> retained slow-trace JSON
//   profile     -> dump: collapsed stacks; start: one byte, 1 = started by
//                  this request, 0 = a profiler was already running (so a
//                  caller never stops someone else's session); stop: empty
//   health      -> HealthBoard JSON
//   events      -> EventJournal JSON
//   ledger      -> LedgerDumpResponse
// Wire form: u8 section, u8 clear, u8 profile command, u32 hz (0 = the
// profiler's default). Decode rejects with InvalidArgument: unknown
// sections and commands; `clear` on metrics, health, or a profile start or
// stop (nothing to clear); hz on anything but a profile start; a profile
// command on any other section; truncated or trailing bytes.
enum class Section : std::uint8_t {
  kMetrics = 0,
  kTrace = 1,
  kSlowTraces = 2,
  kProfile = 3,
  kHealth = 4,
  kEvents = 5,
  kLedger = 6,
};

enum class ProfileCmd : std::uint8_t {
  kDump = 0,
  kStart = 1,
  kStop = 2,
};

struct IntrospectRequest {
  Section section = Section::kMetrics;
  bool clear = false;
  ProfileCmd profile = ProfileCmd::kDump;
  std::uint32_t hz = 0;

  Buffer Encode() const;
  static Result<IntrospectRequest> Decode(ByteSpan payload);
};

// Human-readable opcode name ("Lookup", "StreamWrite", ...). The table
// duplicates the per-service protocol enums on purpose: the net layer can't
// include them (layering), and the names only feed metric/span labels.
const char* RpcOpName(std::uint16_t opcode);

// Registry histograms resolved once per (side, transport, opcode) and then
// cached in an atomic pointer table — no map lookup on the hot path.
// `transport_index`: 0 = inproc, 1 = tcp.
obs::LatencyHistogram* RpcHistogram(bool server_side, int transport_index,
                                    std::uint16_t opcode);

// Client-side per-call trace state: Begin() stamps the request with a fresh
// RPC span id (when a trace is active) and snapshots the clock; Finish()
// records the latency histogram and the client RPC span. Both are no-ops
// when observability is disabled at Begin() time. Copyable so transports
// can carry it through their pending-call tables.
struct ClientCallTrace {
  obs::TraceContext parent;
  std::uint64_t span_id = 0;
  std::uint64_t start_us = 0;
  std::uint16_t opcode = 0;
  bool active = false;

  static ClientCallTrace Begin(Message& request, int transport_index);
  void Finish() const;

 private:
  int transport_index_ = 0;
};

// Runs `service.Handle(request, responder)` under the request's trace
// context with a server-side span + latency histogram around the
// synchronous part of the handler (deferred responders complete later, by
// design — the span measures dispatch, the action-plane spans cover the
// rest).
void HandleWithObs(Service& service, Message request, Responder responder,
                   int transport_index);

// Handles the management opcodes; returns true when the request was
// consumed. `metrics` (may be null) contributes the link-class counters to
// the metrics section. Service opcodes cost one compare.
bool TryHandleObs(Message& request, Responder& responder,
                  const Metrics* metrics);

// Republishes `metrics` (nullable) and the data-plane counters into the
// global registry without rendering anything — shared by the metrics
// section and the /metrics scrape so both see identical gauges.
void RefreshMirroredGauges(const Metrics* metrics);

// The metrics section's reply: the full registry snapshot (binary,
// mergeable; clients render JSON from it with obs::ToJson) plus every
// sampler ring. Histograms travel as sparse (bucket index, count) pairs;
// log2 histograms are mostly empty so this keeps cluster polling cheap.
struct SeriesDumpResponse {
  obs::MetricsSnapshot snapshot;
  std::vector<obs::SeriesData> series;
  std::uint64_t sampler_interval_ms = 0;  // 0 = sampler not running

  Buffer Encode() const;
  static Result<SeriesDumpResponse> Decode(ByteSpan payload);
};

// The ledger section's reply: the node's resource-attribution state — the
// full (principal, op) ledger plus the heavy-hitter sketches (object keys,
// action methods, principals). Merge() is the exact
// cluster-wide merge used by ClusterMonitor: ledger cells sum per key;
// sketches merge under the space-saving rule.
struct LedgerDumpResponse {
  struct Sketch {
    std::string name;  // "keys" | "methods" | "principals"
    std::uint64_t total = 0;  // stream weight the sketch observed
    std::vector<obs::SpaceSavingTopK::Entry> entries;
  };

  std::vector<obs::LedgerEntry> entries;
  std::vector<Sketch> sketches;

  Buffer Encode() const;
  static Result<LedgerDumpResponse> Decode(ByteSpan payload);
  void Merge(const LedgerDumpResponse& other);
};

// kHeartbeat reply: a liveness proof that also piggybacks the node's
// self-computed load report (the handler runs LoadTracker::Update), so a
// health poll of an otherwise idle link costs one tiny frame and still
// refreshes the load/hotspot picture. Request payload is empty.
struct HeartbeatResponse {
  std::uint64_t server_time_us = 0;  // peer's TraceNowMicros at reply time
  double load_index = 0.0;
  std::uint32_t hotspot_slots = 0;

  Buffer Encode() const;
  static Result<HeartbeatResponse> Decode(ByteSpan payload);
};

}  // namespace glider::net
