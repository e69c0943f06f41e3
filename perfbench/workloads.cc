// The three workloads. Each takes its parameters from workloads.json (via
// run.py) and its inputs from --seed; the program sees only the generated
// inputs.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cmath>
#include <set>
#include <thread>

#include "glider/client/action_node.h"
#include "harness.h"
#include "nodekernel/client/file_streams.h"
#include "testing/cluster.h"

namespace perfbench {

namespace gl = glider;
namespace nk = glider::nk;
using glider::Result;
using glider::Status;

namespace {

constexpr double kMiB = 1 << 20;

// ---- shared plumbing ----------------------------------------------------------

// A started cluster plus one FaaS-class client per generator thread.
struct Deployment {
  std::unique_ptr<gl::testing::MiniCluster> cluster;
  std::vector<std::unique_ptr<nk::StoreClient>> clients;

  ~Deployment() {
    clients.clear();  // clients hold connections into the cluster
    cluster.reset();
  }
};

// Starts the cluster `setups` times, each time up to the first arrival
// (cluster start, clients, `prepare`), and keeps the last deployment.
// Returns the median set-up time in seconds over the quiet set-ups.
Result<double> SetUp(Params& params, std::size_t clients,
                     const std::function<Status(Deployment&)>& prepare,
                     std::unique_ptr<Deployment>& out, Outcome& outcome) {
  gl::testing::ClusterOptions options;
  options.use_tcp = params.Flag("use_tcp");
  options.blocks_per_server =
      static_cast<std::uint32_t>(params.Int("blocks_per_server"));
  options.slots_per_server =
      static_cast<std::uint32_t>(params.Int("slots_per_server"));
  const std::uint64_t setups = params.Int("setups");
  std::vector<double> seconds, steal;
  for (std::uint64_t i = 0; i < setups; ++i) {
    out.reset();
    const HostTicks host = HostTicks::Read();
    const std::int64_t t0 = NowNs();
    auto dep = std::make_unique<Deployment>();
    GLIDER_ASSIGN_OR_RETURN(dep->cluster, gl::testing::MiniCluster::Start(options));
    for (std::size_t c = 0; c < clients; ++c) {
      GLIDER_ASSIGN_OR_RETURN(auto client, dep->cluster->NewFaasClient());
      dep->clients.push_back(std::move(client));
    }
    GLIDER_RETURN_IF_ERROR(prepare(*dep));
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    steal.push_back(HostTicks::Read().Minus(host).StealShare());
    out = std::move(dep);
  }
  std::vector<double> quiet;
  std::string line = "setup_s samples (steal share):";
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    line += " " + std::to_string(seconds[i]) + " (" + std::to_string(steal[i]) + ")";
  }
  for (const std::size_t i : QuietWindows(steal)) quiet.push_back(seconds[i]);
  Note(outcome, line + " -- " + std::to_string(quiet.size()) + " quiet set-ups kept");
  return Median(quiet);
}

// Runs `body`; a non-OK status makes the op count as failed.
OpFn Guard(Checker& failures,
           std::function<Result<OpResult>(std::size_t, std::uint64_t, Op&)> body) {
  return [&failures, body = std::move(body)](std::size_t w, std::uint64_t id,
                                             Op& op) {
    Result<OpResult> result = body(w, id, op);
    if (result.ok()) return *result;
    failures.Fail(std::string("op ") + op.type() + " failed: " +
                  result.status().ToString());
    return OpResult::Failed();
  };
}

// Reads a chunked stream to its end.
template <typename Reader>
Result<std::string> ReadAll(Reader& reader) {
  std::string out;
  while (true) {
    GLIDER_ASSIGN_OR_RETURN(gl::Buffer chunk, reader.ReadChunk());
    if (chunk.size() == 0) return out;
    out.append(gl::AsText(chunk.span()));
  }
}

// Parses "key,value" lines; false on any malformed line.
template <typename Fn>
bool ForEachPair(std::string_view text, Fn&& fn) {
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    if (nl == std::string_view::npos) return false;
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl + 1);
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos) return false;
    std::int64_t key = 0, value = 0;
    const auto k = std::from_chars(line.data(), line.data() + comma, key);
    const auto v = std::from_chars(line.data() + comma + 1,
                                   line.data() + line.size(), value);
    if (k.ec != std::errc{} || v.ec != std::errc{} ||
        k.ptr != line.data() + comma || v.ptr != line.data() + line.size()) {
      return false;
    }
    if (!fn(key, value)) return false;
  }
  return true;
}

void Finish(const Checker& failures, const Checker& wrong, Outcome& out) {
  for (const std::string& e : failures.errors()) out.errors.push_back(e);
  for (const std::string& e : wrong.errors()) out.errors.push_back(e);
  out.failed += wrong.count();
  out.correct = out.failed == 0 && out.errors.empty();
}

void Count(const Phase& phase, Outcome& out) {
  out.attempted += phase.attempted;
  out.failed += phase.failed;
}

// Generator threads of the open-loop workloads, each with its own client.
constexpr std::size_t kWorkers = 3;
// Warm-up before the measured rounds; its results are discarded.
constexpr double kWarmupS = 1;
// One round: an open-loop block then a closed-loop block, of half each.
constexpr double kRoundS = 2;

// The open-loop workloads run in rounds of kRoundS seconds. Untraced, a
// round is an open-loop block of Poisson arrivals (latencies, CPU per op)
// followed by a closed-loop block with the same executors and op mix
// (capacity). Traced (--trace 1), a round is an untraced and a traced
// open-loop block. Each block is one window; time metrics are taken over
// the quiet ones.
Status RunOpenLoopWorkload(RunConfig& config, const gl::Metrics& metrics,
                           const OpFn& op, Outcome& out) {
  LoadSpec spec;
  spec.workers = kWorkers;
  spec.rate_per_s = config.params.Num("rate_per_s");
  const auto rounds = static_cast<std::uint64_t>(
      std::max(1.0, std::round(config.seconds / kRoundS)));

  // Warm caches, pools and connections; results are discarded.
  spec.seconds = kWarmupS;
  spec.seed = OpRng(config.seed, ~std::uint64_t{0}).Next();
  spec.first_id = std::uint64_t{1} << 62;
  Count(RunOpenLoop(spec, metrics, op), out);

  Windows open, second;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    spec.seconds = kRoundS / 2;
    // Mixed, so runs of neighbouring seeds share no round's schedule.
    spec.seed = OpRng(config.seed, r).Next();
    spec.first_id = r << 40;
    spec.traced = false;
    open.push_back(RunOpenLoop(spec, metrics, op));
    spec.first_id += std::uint64_t{1} << 39;
    if (config.trace) {
      gl::obs::SetEnabled(true);
      spec.traced = true;
      second.push_back(RunOpenLoop(spec, metrics, op));
      gl::obs::SetEnabled(false);
    } else {
      second.push_back(RunClosedLoop(spec, metrics, op));
    }
    Count(open.back(), out);
    Count(second.back(), out);
  }
  if (config.trace) {
    AddLayerMetrics(open, second, 0, out);
    return Status::Ok();
  }

  const Phase pooled = Pool(open);
  const Windows quiet_open = Quiet(open, "open-loop blocks", out);
  const Windows quiet_closed = Quiet(second, "closed-loop blocks", out);
  AddLatency(out, "write", quiet_open, "write");
  AddLatency(out, "read", quiet_open, "read");
  AddWindowed(out, "capacity_ops_per_s", "ops/s", quiet_closed, [](const Phase& w) {
    return static_cast<double>(w.ops) / w.wall_s;
  });
  Add(out, "link_bytes_per_input_byte",
      static_cast<double>(pooled.delta.faas_bytes) / static_cast<double>(pooled.written),
      "ratio");
  AddWindowed(out, "cpu_us_per_op", "us", quiet_open, [](const Phase& w) {
    return w.delta.cpu_s * 1e6 / static_cast<double>(w.ops);
  });
  Note(out, "open loop: " + std::to_string(pooled.attempted) + " arrivals in " +
                std::to_string(rounds) + " blocks, backlog peak " +
                std::to_string(pooled.backlog_peak));
  return Status::Ok();
}

// Text of `bytes` or fewer bytes of whole "key,1" lines over `key_space`
// keys; `lines` receives the line count.
std::string OnesBatch(gl::SplitMix64& rng, std::size_t bytes,
                       std::uint64_t key_space, std::uint64_t& lines) {
  std::string text;
  lines = 0;
  while (true) {
    const std::string line =
        std::to_string(rng.NextBelow(key_space)) + ",1\n";
    if (text.size() + line.size() > bytes) return text;
    text += line;
    ++lines;
  }
}

}  // namespace

// ---- action_mix ---------------------------------------------------------------

Result<Outcome> RunActionMix(RunConfig& config) {
  Params& p = config.params;
  const double write_share = p.Num("write_share");
  const std::size_t record_bytes = p.Int("record_bytes");
  const std::uint64_t key_space = p.Int("key_space");
  const std::string path = "/mix";
  Outcome out;

  // A pool of seeded 4 KiB batches; each write picks one by its own draw.
  struct Batch {
    std::string text;
    std::uint64_t lines = 0;
  };
  std::vector<Batch> batches(64);
  gl::SplitMix64 rng(config.seed);
  for (Batch& b : batches) b.text = OnesBatch(rng, record_bytes, key_space, b.lines);

  std::unique_ptr<Deployment> dep;
  GLIDER_ASSIGN_OR_RETURN(
      const double setup_s,
      SetUp(p, kWorkers, [&](Deployment& d) {
        return gl::core::ActionNode::Create(*d.clients[0], path, "glider.merge",
                                            /*interleave=*/true)
            .status();
      }, dep, out));

  Checker failures, wrong;
  std::atomic<std::uint64_t> lines_written{0};
  const auto parse_dictionary = [key_space](std::string_view text,
                                            std::uint64_t& sum) {
    std::vector<bool> seen(key_space);
    sum = 0;
    return ForEachPair(text, [&](std::int64_t k, std::int64_t v) {
      if (k < 0 || static_cast<std::uint64_t>(k) >= key_space || v <= 0 ||
          seen[static_cast<std::uint64_t>(k)]) {
        return false;
      }
      seen[static_cast<std::uint64_t>(k)] = true;
      sum += static_cast<std::uint64_t>(v);
      return true;
    });
  };

  const OpFn run_op = Guard(failures, [&](std::size_t w, std::uint64_t id,
                                          Op& op) -> Result<OpResult> {
    gl::SplitMix64 draw = OpRng(config.seed, id);
    nk::StoreClient& client = *dep->clients[w];
    const bool write = draw.NextDouble() < write_share;
    op.SetType(write ? "write" : "read");
    GLIDER_ASSIGN_OR_RETURN(auto node, op.Call("meta.lookup", [&] {
      return gl::core::ActionNode::Lookup(client, path);
    }));
    if (write) {
      const Batch& batch = batches[draw.NextBelow(batches.size())];
      GLIDER_ASSIGN_OR_RETURN(auto writer, op.Call("active.open_writer", [&] {
        return node.OpenWriter();
      }));
      GLIDER_RETURN_IF_ERROR(op.Call("stream.write", [&] {
        return writer->Write(batch.text);
      }));
      GLIDER_RETURN_IF_ERROR(op.Call("active.close", [&] {
        return writer->Close();
      }));
      lines_written += batch.lines;
      return OpResult{true, batch.text.size(), 0, {}};
    }
    GLIDER_ASSIGN_OR_RETURN(auto reader, op.Call("active.open_reader", [&] {
      return node.OpenReader();
    }));
    GLIDER_ASSIGN_OR_RETURN(
        std::string text, op.Call("active.read", [&]() -> Result<std::string> {
          GLIDER_ASSIGN_OR_RETURN(std::string all, ReadAll(*reader));
          GLIDER_RETURN_IF_ERROR(reader->Close());
          return all;
        }));
    const std::size_t size = text.size();
    return OpResult{true, 0, size, [&wrong, parse_dictionary, text = std::move(text)] {
      std::uint64_t sum = 0;
      if (!parse_dictionary(text, sum)) wrong.Fail("read: malformed dictionary");
    }};
  });

  GLIDER_RETURN_IF_ERROR(
      RunOpenLoopWorkload(config, *dep->cluster->metrics(), run_op, out));

  // Output check: the dictionary sums exactly the lines of completed writes.
  {
    GLIDER_ASSIGN_OR_RETURN(auto node,
                            gl::core::ActionNode::Lookup(*dep->clients[0], path));
    GLIDER_ASSIGN_OR_RETURN(auto reader, node.OpenReader());
    GLIDER_ASSIGN_OR_RETURN(std::string text, ReadAll(*reader));
    GLIDER_RETURN_IF_ERROR(reader->Close());
    std::uint64_t sum = 0;
    if (!parse_dictionary(text, sum)) {
      wrong.Fail("final dictionary malformed");
    } else if (sum != lines_written.load()) {
      wrong.Fail("final dictionary sums " + std::to_string(sum) + ", writes sent " +
                 std::to_string(lines_written.load()) + " lines");
    }
    Note(out, "final dictionary: value sum " + std::to_string(sum) +
                  ", lines written " + std::to_string(lines_written.load()));
  }

  if (!config.trace) {
    Add(out, "setup_s", setup_s, "s");
    Add(out, "peak_rss_mb", PeakRssMb(), "MiB");
  }
  Finish(failures, wrong, out);
  return out;
}

// ---- files_tcp ----------------------------------------------------------------

Result<Outcome> RunFilesTcp(RunConfig& config) {
  Params& p = config.params;
  const double read_share = p.Num("read_share");
  const std::size_t record_bytes = p.Int("record_bytes");
  const std::size_t files = p.Int("files");
  Outcome out;

  const auto random_bytes = [record_bytes](std::uint64_t seed) {
    gl::SplitMix64 rng(seed);
    std::string s(record_bytes, '\0');
    for (char& c : s) c = static_cast<char>('a' + rng.NextBelow(26));
    return s;
  };
  std::vector<std::string> contents(files);
  for (std::size_t i = 0; i < files; ++i) {
    contents[i] = random_bytes(config.seed * 1000003 + i);
  }
  std::vector<std::string> payloads(64);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    payloads[i] = random_bytes(~config.seed - i);
  }
  const auto file_path = [](std::size_t i) { return "/files/" + std::to_string(i); };

  std::unique_ptr<Deployment> dep;
  GLIDER_ASSIGN_OR_RETURN(
      const double setup_s,
      SetUp(p, kWorkers, [&](Deployment& d) -> Status {
        GLIDER_RETURN_IF_ERROR(
            d.clients[0]->CreateNode("/files", nk::NodeType::kDirectory).status());
        GLIDER_RETURN_IF_ERROR(
            d.clients[0]->CreateNode("/tmp", nk::NodeType::kDirectory).status());
        // Preload from every executor's client in parallel.
        std::vector<Status> status(d.clients.size());
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < d.clients.size(); ++w) {
          threads.emplace_back([&, w] {
            nk::StoreClient& client = *d.clients[w];
            for (std::size_t i = w; i < files && status[w].ok(); i += d.clients.size()) {
              status[w] = client.CreateNode(file_path(i), nk::NodeType::kFile).status();
              if (!status[w].ok()) break;
              auto writer = nk::FileWriter::Open(client, file_path(i));
              status[w] = writer.ok() ? (*writer)->Write(contents[i]) : writer.status();
              if (status[w].ok()) status[w] = (*writer)->Close();
            }
          });
        }
        for (auto& t : threads) t.join();
        for (const Status& s : status) GLIDER_RETURN_IF_ERROR(s);
        return Status::Ok();
      }, dep, out));

  Checker failures, wrong;
  const OpFn run_op = Guard(failures, [&](std::size_t w, std::uint64_t id,
                                          Op& op) -> Result<OpResult> {
    gl::SplitMix64 draw = OpRng(config.seed, id);
    nk::StoreClient& client = *dep->clients[w];
    if (draw.NextDouble() < read_share) {
      op.SetType("read");
      const std::size_t i = draw.NextBelow(files);
      GLIDER_ASSIGN_OR_RETURN(auto reader, op.Call("meta.lookup", [&] {
        return nk::FileReader::Open(client, file_path(i));
      }));
      GLIDER_ASSIGN_OR_RETURN(std::string data, op.Call("storage.read", [&] {
        return ReadAll(*reader);
      }));
      const std::size_t size = data.size();
      return OpResult{true, 0, size, [&wrong, &contents, i, data = std::move(data)] {
        if (data != contents[i]) wrong.Fail("read of file " + std::to_string(i) +
                                            " differs from its preload");
      }};
    }
    op.SetType("write");
    const std::string& payload = payloads[draw.NextBelow(payloads.size())];
    const std::string path = "/tmp/" + std::to_string(w) + "-" + std::to_string(id);
    GLIDER_RETURN_IF_ERROR(op.Call("meta.create", [&] {
      return client.CreateNode(path, nk::NodeType::kFile).status();
    }));
    GLIDER_ASSIGN_OR_RETURN(auto writer, op.Call("meta.lookup", [&] {
      return nk::FileWriter::Open(client, path);
    }));
    GLIDER_RETURN_IF_ERROR(op.Call("storage.write", [&] {
      return writer->Write(payload);
    }));
    GLIDER_RETURN_IF_ERROR(op.Call("storage.close", [&] { return writer->Close(); }));
    GLIDER_RETURN_IF_ERROR(op.Call("meta.delete", [&] {
      return client.Delete(path).status();
    }));
    return OpResult{true, payload.size(), 0, {}};
  });

  GLIDER_RETURN_IF_ERROR(
      RunOpenLoopWorkload(config, *dep->cluster->metrics(), run_op, out));

  // Output check: the namespace holds exactly the preload set.
  nk::StoreClient& client = *dep->clients[0];
  GLIDER_ASSIGN_OR_RETURN(auto root, client.List("/"));
  GLIDER_ASSIGN_OR_RETURN(auto tmp, client.List("/tmp"));
  GLIDER_ASSIGN_OR_RETURN(auto listed, client.List("/files"));
  std::set<std::string> names;
  for (const auto& e : listed.entries) names.insert(e.name);
  std::set<std::string> expected;
  for (std::size_t i = 0; i < files; ++i) expected.insert(std::to_string(i));
  if (root.entries.size() != 2 || !tmp.entries.empty() || names != expected) {
    wrong.Fail("namespace after the run: " + std::to_string(root.entries.size()) +
               " top-level nodes, " + std::to_string(tmp.entries.size()) +
               " leaked write objects, " + std::to_string(names.size()) + "/" +
               std::to_string(files) + " preload files");
  }
  Note(out, "namespace: " + std::to_string(names.size()) + " preload files, " +
                std::to_string(tmp.entries.size()) + " leaked write objects");

  if (!config.trace) {
    Add(out, "setup_s", setup_s, "s");
    Add(out, "peak_rss_mb", PeakRssMb(), "MiB");
  }
  Finish(failures, wrong, out);
  return out;
}

// ---- reduce_stream -----------------------------------------------------------

namespace {

// Order-independent digest of a dictionary.
std::uint64_t Digest(std::int64_t key, std::int64_t value) {
  gl::SplitMix64 mix(static_cast<std::uint64_t>(key) * 0x100000001b3ULL ^
                     static_cast<std::uint64_t>(value));
  return mix.Next();
}

struct Reference {
  std::uint64_t entries = 0;
  std::uint64_t digest = 0;
};

// Consecutive jobs pooled into windows of `size` (the last takes the rest).
Windows Group(const Windows& jobs, std::size_t size) {
  const std::size_t n = std::max<std::size_t>(1, jobs.size() / size);
  Windows out;
  for (std::size_t g = 0; g < n; ++g) {
    const auto first = jobs.begin() + static_cast<std::ptrdiff_t>(g * size);
    const auto last = g + 1 == n ? jobs.end() : first + static_cast<std::ptrdiff_t>(size);
    out.push_back(Pool(Windows(first, last)));
  }
  return out;
}

// Repeated Fig. 5-shaped jobs: producers stream into one fresh interleaved
// merge action, then one reader pulls and verifies the dictionary.
class ReduceJobs {
 public:
  ReduceJobs(Deployment& dep, const std::vector<std::string>& inputs,
             std::size_t write_bytes, const Reference& reference,
             Checker& failures, Checker& wrong)
      : dep_(dep), inputs_(inputs), write_bytes_(write_bytes),
        reference_(reference), failures_(failures), wrong_(wrong) {
    for (std::size_t w = 0; w < inputs_.size(); ++w) {
      producers_.emplace_back([this, w] { ProducerLoop(w); });
    }
  }

  ~ReduceJobs() {
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : producers_) t.join();
  }

  ReduceJobs(const ReduceJobs&) = delete;
  ReduceJobs& operator=(const ReduceJobs&) = delete;

  // Runs one job; its phase is one window of the run.
  Phase RunJob(bool traced) {
    traced_ = traced;
    local_.assign(inputs_.size(), Phase{});
    Phase out;
    const Counters before = Counters::Read(*dep_.cluster->metrics());
    const std::int64_t t0 = NowNs();
    const double busy_s = Job(out);
    Merge(local_, out);
    out.busy_s = busy_s;
    out.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    out.delta = Counters::Read(*dep_.cluster->metrics()).Minus(before);
    return out;
  }

 private:
  static constexpr const char* kPath = "/reduce";

  // One job; returns seconds from its first write to the verified read.
  double Job(Phase& out) {
    nk::StoreClient& client = *dep_.clients.back();
    RunOp(out, "create", NowNs(), [&](Op& op) -> Result<OpResult> {
      GLIDER_RETURN_IF_ERROR(op.Call("meta.create", [&] {
        return gl::core::ActionNode::Create(client, kPath, "glider.merge",
                                            /*interleave=*/true)
            .status();
      }));
      return OpResult{};
    });
    {
      std::unique_lock lock(mu_);
      release_ns_ = NowNs();
      first_write_ns_ = INT64_MAX;
      running_ = inputs_.size();
      ++generation_;
      cv_.notify_all();
      done_cv_.wait(lock, [&] { return running_ == 0; });
    }
    std::vector<gl::Buffer> chunks;
    RunOp(out, "pull", NowNs(), [&](Op& op) -> Result<OpResult> {
      GLIDER_ASSIGN_OR_RETURN(auto node, op.Call("meta.lookup", [&] {
        return gl::core::ActionNode::Lookup(client, kPath);
      }));
      GLIDER_ASSIGN_OR_RETURN(auto reader, op.Call("active.open_reader", [&] {
        return node.OpenReader();
      }));
      std::uint64_t bytes = 0;
      while (true) {
        GLIDER_ASSIGN_OR_RETURN(gl::Buffer chunk, op.Call("active.read", [&] {
          return reader->ReadChunk();
        }));
        if (chunk.size() == 0) break;
        bytes += chunk.size();
        chunks.push_back(std::move(chunk));
      }
      GLIDER_RETURN_IF_ERROR(op.Call("active.read", [&] { return reader->Close(); }));
      return OpResult{true, 0, bytes, {}};
    });
    Verify(chunks);
    const std::int64_t verified_ns = NowNs();
    RunOp(out, "delete", verified_ns, [&](Op& op) -> Result<OpResult> {
      GLIDER_RETURN_IF_ERROR(op.Call("meta.delete", [&] {
        return gl::core::ActionNode::Delete(client, kPath);
      }));
      return OpResult{};
    });
    std::scoped_lock lock(mu_);
    return static_cast<double>(verified_ns - first_write_ns_) / 1e9;
  }

  // Checks the pulled dictionary against the reference.
  void Verify(const std::vector<gl::Buffer>& chunks) {
    std::string text;
    for (const gl::Buffer& chunk : chunks) text.append(gl::AsText(chunk.span()));
    Reference got;
    const bool well_formed = ForEachPair(text, [&](std::int64_t k, std::int64_t v) {
      ++got.entries;
      got.digest += Digest(k, v);
      return true;
    });
    if (!well_formed || got.entries != reference_.entries ||
        got.digest != reference_.digest) {
      wrong_.Fail("reduce dictionary: " + std::to_string(got.entries) +
                  " entries (expected " + std::to_string(reference_.entries) +
                  "), digest " + (got.digest == reference_.digest ? "ok" : "wrong"));
    }
  }

  void ProducerLoop(std::size_t w) {
    std::uint64_t seen = 0;
    while (true) {
      std::int64_t release_ns = 0;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        release_ns = release_ns_;
      }
      Phase& phase = local_[w];
      const std::int64_t picked = NowNs();
      phase.lag_ms.push_back(static_cast<double>(picked - release_ns) / 1e6);
      RunOp(phase, "produce", release_ns, [&](Op& op) -> Result<OpResult> {
        nk::StoreClient& client = *dep_.clients[w];
        GLIDER_ASSIGN_OR_RETURN(auto node, op.Call("meta.lookup", [&] {
          return gl::core::ActionNode::Lookup(client, kPath);
        }));
        GLIDER_ASSIGN_OR_RETURN(auto writer, op.Call("active.open_writer", [&] {
          return node.OpenWriter();
        }));
        const std::string_view input = inputs_[w];
        for (std::size_t off = 0; off < input.size(); off += write_bytes_) {
          const std::int64_t t = NowNs();
          if (off == 0) NoteFirstWrite(t);
          GLIDER_RETURN_IF_ERROR(op.Call("stream.write", [&] {
            return writer->Write(input.substr(off, write_bytes_));
          }));
          phase.samples.push_back(Phase::Sample{
              TypeIndex(phase, "write"), static_cast<double>(NowNs() - t) / 1e6});
        }
        GLIDER_RETURN_IF_ERROR(op.Call("active.close", [&] { return writer->Close(); }));
        return OpResult{true, input.size(), 0, {}};
      }, picked);
      {
        std::scoped_lock lock(mu_);
        --running_;
      }
      done_cv_.notify_one();
    }
  }

  void NoteFirstWrite(std::int64_t t) {
    std::scoped_lock lock(mu_);
    first_write_ns_ = std::min(first_write_ns_, t);
  }

  static std::size_t TypeIndex(Phase& phase, const std::string& type) {
    const auto it = std::find(phase.types.begin(), phase.types.end(), type);
    if (it != phase.types.end()) {
      return static_cast<std::size_t>(it - phase.types.begin());
    }
    phase.types.push_back(type);
    return phase.types.size() - 1;
  }

  template <typename Body>
  void RunOp(Phase& phase, const char* type, std::int64_t scheduled_ns, Body&& body,
             std::int64_t picked_ns = 0) {
    Op op(traced_, scheduled_ns, picked_ns == 0 ? scheduled_ns : picked_ns);
    op.SetType(type);
    Result<OpResult> result = body(op);
    if (!result.ok()) {
      failures_.Fail(std::string("op ") + type + " failed: " +
                     result.status().ToString());
    }
    const double latency_ms = static_cast<double>(op.Finish()) / 1e6;
    phase.Absorb(op, result.ok() ? *result : OpResult::Failed(), latency_ms);
  }

  Deployment& dep_;
  const std::vector<std::string>& inputs_;
  const std::size_t write_bytes_;
  const Reference& reference_;
  Checker& failures_;
  Checker& wrong_;
  bool traced_ = false;
  std::vector<Phase> local_;  // per producer, touched only by its thread

  std::mutex mu_;
  std::condition_variable cv_, done_cv_;
  std::uint64_t generation_ = 0;
  std::int64_t release_ns_ = 0;
  std::int64_t first_write_ns_ = 0;
  std::size_t running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> producers_;  // last: joined before the rest dies
};

}  // namespace

Result<Outcome> RunReduceStream(RunConfig& config) {
  Params& p = config.params;
  const std::size_t producers = p.Int("producers");
  const std::size_t input_bytes = p.Int("bytes_per_producer");
  const std::size_t write_bytes = p.Int("write_bytes");
  const std::uint64_t key_space = p.Int("key_space");
  const std::uint64_t max_value = p.Int("max_value");
  const std::size_t window_jobs = p.Int("window_jobs");
  Outcome out;

  // Seeded inputs (identical for every job of the run) and their reference.
  std::vector<std::string> inputs(producers);
  std::vector<std::int64_t> sums(key_space, 0);
  for (std::size_t w = 0; w < producers; ++w) {
    gl::SplitMix64 rng(config.seed * 7919 + w);
    std::string& text = inputs[w];
    while (true) {
      const std::uint64_t key = rng.NextBelow(key_space);
      const std::uint64_t value = 1 + rng.NextBelow(max_value);
      const std::string line = std::to_string(key) + "," + std::to_string(value) + "\n";
      if (text.size() + line.size() > input_bytes) break;
      text += line;
      sums[key] += static_cast<std::int64_t>(value);
    }
  }
  Reference reference;
  for (std::uint64_t k = 0; k < key_space; ++k) {
    if (sums[k] == 0) continue;
    ++reference.entries;
    reference.digest += Digest(static_cast<std::int64_t>(k), sums[k]);
  }

  std::unique_ptr<Deployment> dep;
  GLIDER_ASSIGN_OR_RETURN(
      const double setup_s,
      SetUp(p, producers + 1, [](Deployment&) { return Status::Ok(); }, dep, out));

  Checker failures, wrong;
  {
    ReduceJobs jobs(*dep, inputs, write_bytes, reference, failures, wrong);
    Count(jobs.RunJob(false), out);  // warm-up job, discarded
    // Jobs back to back; traced runs alternate untraced and traced jobs.
    Windows plain, traced;
    const std::int64_t end = NowNs() + static_cast<std::int64_t>(config.seconds * 1e9);
    for (std::uint64_t k = 0; k < 2 || NowNs() < end; ++k) {
      const bool trace_job = config.trace && k % 2 == 1;
      gl::obs::SetEnabled(trace_job);
      Phase job = jobs.RunJob(trace_job);
      gl::obs::SetEnabled(false);
      Count(job, out);
      (trace_job ? traced : plain).push_back(std::move(job));
    }
    if (config.trace) {
      AddLayerMetrics(plain, traced, static_cast<std::uint64_t>(kMiB), out);
    } else {
      const Phase pooled = Pool(plain);
      const Windows quiet = Quiet(plain, "jobs", out);
      const auto mib = [](const Phase& job) {
        return static_cast<double>(job.written) / kMiB;
      };
      const Windows windows = Group(quiet, window_jobs);
      AddLatency(out, "write", windows, "write");
      AddLatency(out, "read", windows, "pull");
      AddWindowed(out, "capacity_ops_per_s", "ops/s", quiet,
                  [&](const Phase& job) { return mib(job) / job.wall_s; });
      AddWindowed(out, "throughput_mb_per_s", "MB/s", quiet, [](const Phase& job) {
        return static_cast<double>(job.written) / job.busy_s / 1e6;
      });
      Add(out, "link_bytes_per_input_byte",
          static_cast<double>(pooled.delta.faas_bytes) /
              static_cast<double>(pooled.written),
          "ratio");
      AddWindowed(out, "cpu_us_per_op", "us", quiet,
                  [&](const Phase& job) { return job.delta.cpu_s * 1e6 / mib(job); });
      Note(out, "reduce: " + std::to_string(plain.size()) + " jobs of " +
                    std::to_string(mib(plain.front())) + " MiB input, " +
                    std::to_string(reference.entries) + " distinct keys per job");
    }
  }
  if (!config.trace) {
    Add(out, "setup_s", setup_s, "s");
    Add(out, "peak_rss_mb", PeakRssMb(), "MiB");
  }
  Finish(failures, wrong, out);
  return out;
}

}  // namespace perfbench
