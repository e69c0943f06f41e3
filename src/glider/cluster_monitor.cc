#include "glider/cluster_monitor.h"

#include <algorithm>
#include <utility>

#include "common/trace_assemble.h"
#include "net/rpc_client.h"

namespace glider {

ClusterMonitor::ClusterMonitor(net::Transport* transport,
                               std::string metadata_address,
                               std::shared_ptr<net::LinkModel> link,
                               obs::HealthDetector::Options health_options)
    : transport_(transport), metadata_address_(std::move(metadata_address)),
      link_(std::move(link)), health_(health_options) {}

Result<std::shared_ptr<net::Connection>> ClusterMonitor::Conn(
    const std::string& address) {
  auto it = conns_.find(address);
  if (it != conns_.end()) return it->second;
  GLIDER_ASSIGN_OR_RETURN(auto conn, transport_->Connect(address, link_));
  conns_[address] = conn;
  return conn;
}

Result<nk::ListServersResponse> ClusterMonitor::Discover() {
  auto conn = Conn(metadata_address_);
  if (!conn.ok()) {
    conns_.erase(metadata_address_);
    return conn.status();
  }
  auto resp = net::Call<nk::ListServersResponse>(
      **conn, nk::kListServers, nk::EmptyRequest{});
  if (!resp.ok()) conns_.erase(metadata_address_);
  return resp;
}

const char* ClusterMonitor::ServerSample::role() const {
  if (is_metadata) return "metadata";
  return server.storage_class == nk::kActiveClass ? "active" : "storage";
}

Result<std::vector<ClusterMonitor::ServerSample>> ClusterMonitor::Targets(
    bool* stale) {
  auto discovered = Discover();
  if (discovered.ok()) {
    last_discovered_ = std::move(discovered).value().servers;
    has_discovered_ = true;
  } else {
    // Metadata down: degrade to the cached server list instead of blinding
    // the whole round. The metadata row itself is still polled and shows
    // up unreachable (its detector state says suspect/dead).
    if (!has_discovered_) return discovered.status();
    if (stale != nullptr) *stale = true;
  }
  std::vector<ServerSample> targets(1 + last_discovered_.size());
  targets[0].server.address = metadata_address_;
  targets[0].is_metadata = true;
  std::vector<std::string> seen{metadata_address_};
  for (std::size_t i = 0; i < last_discovered_.size(); ++i) {
    ServerSample& target = targets[i + 1];
    target.server = last_discovered_[i];
    if (std::find(seen.begin(), seen.end(), target.server.address) !=
        seen.end()) {
      target.status = Status::AlreadyExists("address already polled");
    } else {
      seen.push_back(target.server.address);
    }
  }
  return targets;
}

Result<Buffer> ClusterMonitor::Fetch(const std::string& address,
                                     const net::IntrospectRequest& request) {
  GLIDER_ASSIGN_OR_RETURN(auto conn, Conn(address));
  auto reply = net::Call<Buffer>(*conn, net::kIntrospect, request);
  if (!reply.ok()) conns_.erase(address);
  return reply;
}

Result<std::map<std::string, ClusterMonitor::ClockOffset>>
ClusterMonitor::AlignClocks(int samples_per_server) {
  if (samples_per_server < 1) samples_per_server = 1;
  GLIDER_ASSIGN_OR_RETURN(auto targets, Targets());
  std::map<std::string, ClockOffset> offsets;
  auto& registry = obs::MetricsRegistry::Global();
  for (const ServerSample& target : targets) {
    if (!target.status.ok()) continue;
    const std::string& address = target.server.address;
    auto conn = Conn(address);
    if (!conn.ok()) continue;
    obs::ClockOffsetEstimator estimator;
    bool failed = false;
    for (int i = 0; i < samples_per_server; ++i) {
      obs::ClockSample sample;
      sample.send_us = obs::TraceNowMicros();
      auto resp =
          net::Call<net::HeartbeatResponse>(**conn, net::kHeartbeat, Buffer{});
      sample.recv_us = obs::TraceNowMicros();
      if (!resp.ok()) {
        conns_.erase(address);  // reconnect on the next use
        failed = true;
        break;
      }
      sample.remote_us = resp.value().server_time_us;
      estimator.AddSample(sample);
    }
    if (failed || !estimator.has_estimate()) continue;
    ClockOffset offset;
    offset.offset_us = estimator.offset_us();
    offset.min_rtt_us = estimator.min_rtt_us();
    offset.samples = estimator.samples();
    registry.GetGauge("clock.offset_us." + address).Set(offset.offset_us);
    offsets[address] = offset;
  }
  if (offsets.empty()) {
    return Status::Unavailable("no server answered clock sampling");
  }
  return offsets;
}

Result<ClusterMonitor::ClusterSample> ClusterMonitor::Poll() {
  ClusterSample sample;
  GLIDER_ASSIGN_OR_RETURN(sample.servers, Targets(&sample.stale_discovery));
  for (ServerSample& s : sample.servers) {
    if (!s.status.ok()) continue;  // a repeated address
    auto reply = Fetch(s.server.address, {});
    auto dump = reply.ok() ? net::SeriesDumpResponse::Decode(reply->span())
                           : Result<net::SeriesDumpResponse>(reply.status());
    if (!dump.ok()) {
      s.status = dump.status();
    } else {
      s.dump = std::move(dump).value();
      // A successful dump is a heartbeat; the dump's load gauges (milli
      // scaled, published by the server's LoadTracker) ride along.
      health_.Heartbeat(s.server.address);
      if (const std::int64_t* li = s.dump.snapshot.FindGauge("load_index")) {
        s.load_index = static_cast<double>(*li) / 1000.0;
      }
      if (const std::int64_t* hs = s.dump.snapshot.FindGauge("hotspot_slots")) {
        s.hotspot_slots = *hs;
      }
      health_.ReportLoad(s.server.address, s.load_index, s.hotspot_slots);
    }
    s.health = health_.State(s.server.address);
    s.phi = health_.Phi(s.server.address);
  }

  std::vector<const obs::MetricsSnapshot*> snapshots;
  for (const auto& s : sample.servers) {
    if (s.status.ok()) snapshots.push_back(&s.dump.snapshot);
  }
  sample.merged = Merge(snapshots);
  return sample;
}

Result<net::LedgerDumpResponse> ClusterMonitor::PollLedgers(bool clear_after) {
  GLIDER_ASSIGN_OR_RETURN(auto targets, Targets());
  net::LedgerDumpResponse merged;
  bool any = false;
  for (const ServerSample& target : targets) {
    if (!target.status.ok()) continue;
    auto reply = Fetch(target.server.address,
                       {net::Section::kLedger, clear_after});
    if (!reply.ok()) continue;
    auto dump = net::LedgerDumpResponse::Decode(reply->span());
    if (!dump.ok()) continue;
    merged.Merge(dump.value());
    any = true;
  }
  if (!any) return Status::Unavailable("no server answered ledger dump");
  return merged;
}

obs::MetricsSnapshot ClusterMonitor::Merge(
    const std::vector<const obs::MetricsSnapshot*>& snapshots) {
  obs::MetricsSnapshot merged;
  // Order-preserving name -> index maps keep the merged vectors sorted the
  // way std::map-backed registries emit them (first-seen order).
  std::map<std::string, std::size_t> counter_idx, gauge_idx, hist_idx;
  for (const obs::MetricsSnapshot* snap : snapshots) {
    for (const auto& [name, value] : snap->counters) {
      auto [it, inserted] =
          counter_idx.try_emplace(name, merged.counters.size());
      if (inserted) {
        merged.counters.emplace_back(name, value);
      } else {
        merged.counters[it->second].second += value;
      }
    }
    for (const auto& [name, value] : snap->gauges) {
      auto [it, inserted] = gauge_idx.try_emplace(name, merged.gauges.size());
      if (inserted) {
        merged.gauges.emplace_back(name, value);
      } else {
        merged.gauges[it->second].second += value;
      }
    }
    for (const auto& [name, hist] : snap->histograms) {
      auto [it, inserted] =
          hist_idx.try_emplace(name, merged.histograms.size());
      if (inserted) {
        merged.histograms.emplace_back(name, hist);
      } else {
        merged.histograms[it->second].second.Merge(hist);
      }
    }
  }
  return merged;
}

}  // namespace glider
