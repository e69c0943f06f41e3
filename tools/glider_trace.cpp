// glider_trace: cluster-wide trace assembly and latency attribution
// (DESIGN.md §11).
//
//   glider_trace assemble      [--metadata ADDR | --json FILE ...] [--out F]
//   glider_trace critical-path [--metadata ADDR | --json FILE ...]
//                              [--trace-id HEX]
//   glider_trace top           [--metadata ADDR | --json FILE ...]
//                              [--by-component]
//
// Live mode (--metadata): discovers every server, aligns their clocks by
// RTT-midpoint sampling over kHeartbeat (each node's trace timebase is
// steady-microseconds since *that process* started, so offsets are whole
// boot-time deltas), fetches every trace section, and merges the spans into
// cross-node traces. Offline mode (--json, repeatable): parses Chrome/
// Perfetto JSON dumps (e.g. from `glider_cli trace` or `glider_load
// --trace-out`) and aligns nodes causally via cross-dump RPC span pairs.
//
//   assemble       one row per trace; --out writes the merged Perfetto
//                  JSON (one pid per node, shared aligned timeline)
//   critical-path  the blocking critical path of one trace (slowest by
//                  default): which span, on which node, owns each slice
//                  of the end-to-end window, and the per-bucket totals
//   top            per-component totals across all traces: where cluster
//                  time actually goes (client/net/server/queue/run/channel)
//
// --check turns assemble into a smoke gate: fails unless at least one
// trace assembled, the slowest has a non-empty critical path, and every
// trace's bucket sum is within 5% of its end-to-end latency.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/trace_assemble.h"
#include "glider/cluster_monitor.h"
#include "net/tcp_transport.h"

using namespace glider;         // NOLINT
using glider::bench::Fmt;
using glider::bench::Table;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: glider_trace COMMAND [options]\n"
      "commands:\n"
      "  assemble         list assembled traces (one row per trace)\n"
      "  critical-path    blocking critical path of one trace\n"
      "  top              per-component time across all traces\n"
      "options:\n"
      "  --metadata ADDR  live cluster: align clocks + fetch every server's\n"
      "                   trace section\n"
      "  --json FILE      offline: parse a Chrome-JSON dump (repeatable;\n"
      "                   nodes align causally via cross-dump RPC pairs)\n"
      "  --out FILE       write merged Perfetto JSON (aligned timeline,\n"
      "                   one pid per node)\n"
      "  --clear          clear each server's span buffer after dumping\n"
      "  --align-samples N  heartbeat samples per server (default 8)\n"
      "  --trace-id HEX   pick the trace (default: slowest end-to-end)\n"
      "  --limit N        max table rows (default 32)\n"
      "  --by-component   aggregate `top` by attribution bucket (default)\n"
      "  --check          exit nonzero unless >=1 trace assembled, the\n"
      "                   critical path is non-empty, and bucket sums are\n"
      "                   within 5%% of end-to-end\n");
  return 2;
}

std::string HexId(std::uint64_t id) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// File stem ("out/node1.json" -> "node1") names offline dumps' nodes.
std::string Stem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name.resize(dot);
  return name;
}

struct Options {
  std::string command;
  std::string metadata;
  std::vector<std::string> json_files;
  std::string out;
  bool clear = false;
  int align_samples = 8;
  std::optional<std::uint64_t> trace_id;
  std::size_t limit = 32;
  bool check = false;
};

// Builds the assembler from either source; returns false on a hard error
// (no spans could be loaded at all).
bool LoadSpans(const Options& options, obs::TraceAssembler& assembler) {
  if (!options.json_files.empty()) {
    bool any = false;
    for (const auto& path : options.json_files) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "glider_trace: cannot read %s\n", path.c_str());
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string json = buf.str();
      auto spans = obs::ParseChromeTraceJson(json);
      if (!spans.ok()) {
        std::fprintf(stderr, "glider_trace: %s: %s\n", path.c_str(),
                     spans.status().ToString().c_str());
        continue;
      }
      assembler.AddSpans(Stem(path), std::move(spans).value());
      any = true;
    }
    return any;
  }

  net::TcpTransport transport(2);
  ClusterMonitor monitor(&transport, options.metadata,
                         net::LinkModel::Unshaped(LinkClass::kControl,
                                                  nullptr));
  auto offsets = monitor.AlignClocks(options.align_samples);
  if (!offsets.ok()) {
    std::fprintf(stderr, "glider_trace: clock alignment failed: %s\n",
                 offsets.status().ToString().c_str());
    return false;
  }
  for (const auto& [address, offset] : offsets.value()) {
    std::fprintf(stderr, "  clock %s: offset %+lld us (min rtt %llu us, "
                 "error <= %llu us)\n",
                 address.c_str(),
                 static_cast<long long>(offset.offset_us),
                 static_cast<unsigned long long>(offset.min_rtt_us),
                 static_cast<unsigned long long>((offset.min_rtt_us + 1) / 2));
  }
  bool any = false;
  for (const auto& [address, offset] : offsets.value()) {
    auto json = monitor.Fetch(address, {net::Section::kTrace, options.clear});
    if (!json.ok()) {
      std::fprintf(stderr, "glider_trace: %s: trace dump failed: %s\n",
                   address.c_str(), json.status().ToString().c_str());
      continue;
    }
    auto spans = obs::ParseChromeTraceJson(json->AsStringView());
    if (!spans.ok()) {
      std::fprintf(stderr, "glider_trace: %s: bad trace JSON: %s\n",
                   address.c_str(), spans.status().ToString().c_str());
      continue;
    }
    assembler.AddSpans(address, std::move(spans).value(), offset.offset_us);
    any = true;
  }
  return any;
}

const obs::AssembledTrace* PickTrace(
    const std::vector<obs::AssembledTrace>& traces,
    const std::optional<std::uint64_t>& wanted) {
  if (wanted) {
    for (const auto& trace : traces) {
      if (trace.trace_id == *wanted) return &trace;
    }
    return nullptr;
  }
  const obs::AssembledTrace* slowest = nullptr;
  for (const auto& trace : traces) {
    if (slowest == nullptr || trace.total_us > slowest->total_us) {
      slowest = &trace;
    }
  }
  return slowest;
}

// The dominant bucket of one trace ("server 61%"), for the assemble table.
std::string TopBucket(const obs::AssembledTrace& trace) {
  const std::string* best = nullptr;
  std::uint64_t best_us = 0;
  for (const auto& [bucket, us] : trace.bucket_us) {
    if (best == nullptr || us > best_us) {
      best = &bucket;
      best_us = us;
    }
  }
  if (best == nullptr || trace.total_us == 0) return "-";
  return *best + " " +
         Fmt(100.0 * static_cast<double>(best_us) /
                 static_cast<double>(trace.total_us),
             0) +
         "%";
}

int CmdAssemble(const Options& options,
                const std::vector<obs::AssembledTrace>& traces) {
  Table table({"Trace", "Root", "Nodes", "Spans", "Orphans", "Total (ms)",
               "Top bucket"});
  std::size_t rows = 0;
  for (const auto& trace : traces) {
    if (rows++ >= options.limit) break;
    table.AddRow({HexId(trace.trace_id),
                  trace.spans[trace.root].span.name,
                  std::to_string(trace.nodes),
                  std::to_string(trace.spans.size()),
                  std::to_string(trace.orphans),
                  Fmt(static_cast<double>(trace.total_us) / 1000.0, 3),
                  TopBucket(trace)});
  }
  table.Print();
  if (traces.size() > options.limit) {
    std::printf("(+%zu more; --limit to see them)\n",
                traces.size() - options.limit);
  }
  return 0;
}

int CmdCriticalPath(const Options& options,
                    const std::vector<obs::AssembledTrace>& traces) {
  const obs::AssembledTrace* trace = PickTrace(traces, options.trace_id);
  if (trace == nullptr) {
    std::fprintf(stderr, "glider_trace: trace not found\n");
    return 1;
  }
  std::printf("trace %s  root %s  %zu spans on %zu nodes  %.3f ms\n",
              HexId(trace->trace_id).c_str(),
              trace->spans[trace->root].span.name.c_str(),
              trace->spans.size(), trace->nodes,
              static_cast<double>(trace->total_us) / 1000.0);

  Table table({"t+ (us)", "dur (us)", "bucket", "span", "node"});
  std::size_t rows = 0;
  for (const auto& segment : trace->critical_path) {
    if (rows++ >= options.limit) break;
    const auto& span = trace->spans[segment.span];
    table.AddRow({std::to_string(segment.start_us - trace->start_us),
                  std::to_string(segment.end_us - segment.start_us),
                  segment.bucket, span.span.name,
                  span.node.empty() ? "(assembled)" : span.node});
  }
  table.Print();
  if (trace->critical_path.size() > options.limit) {
    std::printf("(+%zu more segments; --limit to see them)\n",
                trace->critical_path.size() - options.limit);
  }

  std::printf("\n");
  Table buckets({"bucket", "us", "share"});
  std::uint64_t sum = 0;
  for (const auto& [bucket, us] : trace->bucket_us) {
    sum += us;
    buckets.AddRow({bucket, std::to_string(us),
                    trace->total_us == 0
                        ? "-"
                        : Fmt(100.0 * static_cast<double>(us) /
                                  static_cast<double>(trace->total_us),
                              1) + "%"});
  }
  buckets.AddRow({"total", std::to_string(sum),
                  "e2e " + std::to_string(trace->total_us) + " us"});
  buckets.Print();
  return 0;
}

int CmdTop(const Options& options,
           const std::vector<obs::AssembledTrace>& traces) {
  // Per-bucket per-trace samples: totals tell where cluster time goes,
  // percentiles how it is distributed across traces.
  std::map<std::string, std::vector<std::uint64_t>> samples;
  std::uint64_t e2e_sum = 0;
  for (const auto& trace : traces) {
    e2e_sum += trace.total_us;
    for (const auto& [bucket, us] : trace.bucket_us) {
      samples[bucket].push_back(us);
    }
  }
  struct Row {
    std::string bucket;
    std::uint64_t total = 0;
    double p50 = 0, p99 = 0;
  };
  std::vector<Row> rows;
  for (const auto& [bucket, values] : samples) {
    Row row;
    row.bucket = bucket;
    for (const std::uint64_t us : values) row.total += us;
    row.p50 = obs::PercentileUs(values, 50);
    row.p99 = obs::PercentileUs(values, 99);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.total > b.total; });

  std::printf("%zu traces, %.3f ms end-to-end total\n", traces.size(),
              static_cast<double>(e2e_sum) / 1000.0);
  Table table({"bucket", "total (us)", "share", "p50/trace (us)",
               "p99/trace (us)"});
  std::size_t printed = 0;
  for (const auto& row : rows) {
    if (printed++ >= options.limit) break;
    table.AddRow({row.bucket, std::to_string(row.total),
                  e2e_sum == 0 ? "-"
                               : Fmt(100.0 * static_cast<double>(row.total) /
                                         static_cast<double>(e2e_sum),
                                     1) + "%",
                  Fmt(row.p50, 0), Fmt(row.p99, 0)});
  }
  table.Print();
  return 0;
}

// --check: the CI smoke gate. Bucket sums are exact by construction (the
// critical path partitions the root window), so a drift beyond 5% means
// assembly itself broke.
int RunCheck(const std::vector<obs::AssembledTrace>& traces) {
  if (traces.empty()) {
    std::fprintf(stderr, "CHECK FAILED: no traces assembled\n");
    return 1;
  }
  const obs::AssembledTrace* slowest = PickTrace(traces, std::nullopt);
  if (slowest->critical_path.empty()) {
    std::fprintf(stderr, "CHECK FAILED: slowest trace %s has an empty "
                 "critical path\n", HexId(slowest->trace_id).c_str());
    return 1;
  }
  for (const auto& trace : traces) {
    if (trace.total_us == 0) continue;
    std::uint64_t sum = 0;
    for (const auto& [bucket, us] : trace.bucket_us) sum += us;
    const double drift =
        std::abs(static_cast<double>(sum) -
                 static_cast<double>(trace.total_us)) /
        static_cast<double>(trace.total_us);
    if (drift > 0.05) {
      std::fprintf(stderr,
                   "CHECK FAILED: trace %s bucket sum %llu vs e2e %llu "
                   "(drift %.1f%%)\n",
                   HexId(trace.trace_id).c_str(),
                   static_cast<unsigned long long>(sum),
                   static_cast<unsigned long long>(trace.total_us),
                   drift * 100.0);
      return 1;
    }
  }
  std::printf("check ok: %zu traces, bucket sums match end-to-end\n",
              traces.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "glider_trace: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--metadata") {
      options.metadata = value();
    } else if (arg == "--json") {
      options.json_files.push_back(value());
    } else if (arg == "--out") {
      options.out = value();
    } else if (arg == "--clear") {
      options.clear = true;
    } else if (arg == "--align-samples") {
      options.align_samples = std::atoi(value());
    } else if (arg == "--trace-id") {
      options.trace_id = std::strtoull(value(), nullptr, 16);
    } else if (arg == "--limit") {
      options.limit = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--by-component") {
      // `top`'s only aggregation mode; accepted for explicitness.
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "glider_trace: unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else if (options.command.empty()) {
      options.command = arg;
    } else {
      std::fprintf(stderr, "glider_trace: unexpected argument '%s'\n",
                   arg.c_str());
      return Usage();
    }
  }
  if (options.command != "assemble" && options.command != "critical-path" &&
      options.command != "top") {
    return Usage();
  }
  if (options.metadata.empty() == options.json_files.empty()) {
    std::fprintf(stderr,
                 "glider_trace: need exactly one of --metadata or --json\n");
    return Usage();
  }

  obs::TraceAssembler assembler;
  if (!LoadSpans(options, assembler)) return 1;
  const std::vector<obs::AssembledTrace> traces = assembler.Assemble();
  for (const auto& node : assembler.unaligned_nodes()) {
    std::fprintf(stderr,
                 "warning: node %s has no clock estimate (no heartbeat "
                 "sample, no cross-node span pair); taken at offset 0\n",
                 node.c_str());
  }

  if (!options.out.empty()) {
    const std::string json = obs::ToPerfettoJson(traces);
    std::FILE* f = std::fopen(options.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "glider_trace: cannot write %s\n",
                   options.out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu traces)\n", options.out.c_str(),
                 traces.size());
  }

  int rc;
  if (options.command == "assemble") {
    rc = CmdAssemble(options, traces);
  } else if (options.command == "critical-path") {
    rc = CmdCriticalPath(options, traces);
  } else {
    rc = CmdTop(options, traces);
  }
  if (rc == 0 && options.check) rc = RunCheck(traces);
  return rc;
}
