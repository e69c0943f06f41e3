#include "glider/active_server.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <deque>
#include <utility>

#include "common/attribution.h"
#include "common/buffer_pool.h"
#include "common/event_journal.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "net/link_model.h"
#include "net/rpc_client.h"

namespace glider::core {

// CPU time of the calling thread, for per-action cost attribution: wall
// time alone can't distinguish an action burning a core from one parked on
// a stream pop.
static std::uint64_t ThreadCpuMicros() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000u;
}

// The method thread's own CPU clock, resolved once when the thread starts
// (MethodThreads::Loop) and published to the watchdog by each method run.
static thread_local clockid_t t_method_clock = CLOCK_THREAD_CPUTIME_ID;

// Watchdog view of a slot's in-flight method. run_start_us != 0 publishes
// the rest (written by the method thread before it, read by the watchdog
// thread). The method thread only counts its channel touches in `progress`;
// the watchdog reads the method thread's `cpu_clock` itself and measures
// CPU burnt since it last saw `progress` or `run_start_us` move. "Stalled"
// therefore means burning CPU without yielding — a method parked on a
// channel accrues no CPU and is never flagged — and the measure starts up
// to one scan late, never early. If the thread exits between the run_start
// check and the clock read, clock_gettime fails and the scan skips the slot.
struct SlotRunState {
  std::atomic<std::uint64_t> run_start_us{0};  // wall clock; 0 = idle
  std::atomic<std::uint64_t> progress{0};
  std::atomic<clockid_t> cpu_clock{CLOCK_THREAD_CPUTIME_ID};
  std::atomic<const char*> method{""};

  // Called by the method thread whenever it touches its stream channel —
  // the watchdog's definition of "yield/progress".
  void BumpProgress() { progress.fetch_add(1, std::memory_order_relaxed); }
};

// One action slot: the unit of active-server capacity. Holds the live
// action object, its execution monitor, and its creation config.
//
// Locking: method execution (and with it every mutation of interleave/
// action_type/config) is serialized by `monitor`. The live-object pointer
// is additionally guarded by `obj_mu` so network workers can check/observe
// it without entering the monitor (which would queue them behind running
// methods).
struct ActiveServer::Slot {
  std::uint32_t index = 0;
  // shared_ptr (not unique_ptr) because handler lambdas captured into
  // std::function must stay copyable.
  std::shared_ptr<Action> object;
  mutable std::mutex obj_mu;
  ActionMonitor monitor;
  bool interleave = false;
  std::string action_type;
  Buffer config;

  // Per-slot resource accounting ("active.slot<i>.*"), resolved once at
  // server construction; updates are relaxed atomics behind the
  // obs::Enabled() gate. `queue_depth` counts methods submitted but not
  // yet admitted by the monitor; `cpu_us` is method thread CPU time
  // (CLOCK_THREAD_CPUTIME_ID), the cost-attribution signal glider_top
  // uses to blame cluster load on individual actions.
  struct Stats {
    obs::Counter* invocations = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* cpu_us = nullptr;
    obs::Counter* stalls = nullptr;
    obs::Gauge* queue_depth = nullptr;
  } stats;

  SlotRunState run;

  std::shared_ptr<Action> LiveObject() const {
    std::scoped_lock lock(obj_mu);
    return object;
  }
};

// One open I/O stream on an action.
struct ActiveServer::Stream {
  std::uint64_t id = 0;
  std::uint32_t slot = 0;
  StreamMode mode = StreamMode::kRead;
  StreamChannel channel;
  // Write streams: responder for the client's close request, fulfilled when
  // the method finishes consuming the stream ("this sends a final request
  // that ... ends the method execution", §4.2).
  std::mutex close_mu;
  net::Responder close_responder;
  net::Message close_request;
  bool method_done = false;

  Stream(std::uint64_t stream_id, std::uint32_t slot_index, StreamMode m,
         std::size_t capacity)
      : id(stream_id), slot(slot_index), mode(m), channel(capacity) {}
};

namespace {

// Context handed to action methods.
class ServerActionContext : public ActionContext {
 public:
  ServerActionContext(nk::StoreClient* store, ByteSpan config)
      : store_(store), config_(config) {}

  nk::StoreClient& store() override { return *store_; }
  ByteSpan config() const override { return config_; }

 private:
  nk::StoreClient* store_;
  ByteSpan config_;
};

// Input stream over a write-stream channel: pops tasks in order; EOS task
// becomes the empty end-of-stream chunk.
class ChannelInputStream : public ActionInputStream {
 public:
  ChannelInputStream(StreamChannel* channel, ActionMonitor* monitor,
                     SlotRunState* run)
      : channel_(channel), monitor_(monitor), run_(run) {}

  Result<Buffer> ReadChunk() override {
    if (eos_) return Buffer{};
    if (pending_.empty()) {
      run_->BumpProgress();
      // Drain every queued task with a single channel lock/wakeup: doorbell
      // batches arrive together, so one wake serves many ReadChunk calls.
      auto batch = channel_->BlockingPopAll(monitor_, kDrainMax);
      if (!batch.ok()) {
        // Teardown while reading: surface as end of stream.
        eos_ = true;
        return Buffer{};
      }
      for (auto& task : *batch) pending_.push_back(std::move(task));
    }
    DataTask task = std::move(pending_.front());
    pending_.pop_front();
    if (task.eos) {
      eos_ = true;
      return Buffer{};
    }
    return std::move(task.data);
  }

  bool saw_eos() const { return eos_; }

  // Consumes the rest of the stream — local stash first, then the channel —
  // WITHOUT monitor yields: used after the method returned or threw, when
  // the action's execution turn has already been released. Terminates on
  // the eos task or channel teardown.
  void DrainUntilEos() {
    while (!eos_) {
      while (!pending_.empty()) {
        DataTask task = std::move(pending_.front());
        pending_.pop_front();
        if (task.eos) {
          eos_ = true;
          break;
        }
      }
      if (eos_) break;
      auto batch = channel_->BlockingPopAll(nullptr, kDrainMax);
      if (!batch.ok()) {
        eos_ = true;
        break;
      }
      for (auto& task : *batch) pending_.push_back(std::move(task));
    }
  }

 private:
  // Bounds the local stash so channel capacity (and thus client admission
  // windows) keeps functioning as backpressure.
  static constexpr std::size_t kDrainMax = 16;

  StreamChannel* channel_;
  ActionMonitor* monitor_;
  SlotRunState* run_;
  std::deque<DataTask> pending_;
  bool eos_ = false;
};

// Output stream over a read-stream channel.
class ChannelOutputStream : public ActionOutputStream {
 public:
  ChannelOutputStream(StreamChannel* channel, ActionMonitor* monitor,
                      SlotRunState* run)
      : channel_(channel), monitor_(monitor), run_(run) {}

  Status Write(ByteSpan data) override {
    if (closed_) return Status::Closed("output stream closed");
    run_->BumpProgress();
    DataTask task;
    // One copy, into pooled chunk storage; the network worker later ships
    // this buffer to the wire without copying it again.
    Buffer chunk = BufferPool::Global().Acquire(data.size());
    std::copy(data.begin(), data.end(), chunk.mutable_span().begin());
    data_plane::RecordCopy(data.size());
    task.data = std::move(chunk);
    return channel_->BlockingPush(std::move(task), monitor_);
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    channel_->CloseProducer();
  }

 private:
  StreamChannel* channel_;
  ActionMonitor* monitor_;
  SlotRunState* run_;
  bool closed_ = false;
};

// Observability for one action-method execution. Captured on the network
// worker at submit time (while the RPC server span is the current context),
// then consumed on the action thread: the submit->monitor-admit gap becomes
// the queue-wait span, monitor-admit->exit the run span, each feeding an
// "action.<method>.{queue,run}_us" histogram.
struct MethodTrace {
  bool active = false;
  obs::TraceContext parent;
  obs::PrincipalId principal = 0;  // caller's tenant, captured at submit
  std::uint64_t submit_us = 0;
  std::uint64_t run_span_id = 0;  // pre-allocated: the run span's id
  const char* method = "";

  static MethodTrace Begin(const char* method) {
    MethodTrace t;
    if (!obs::Enabled()) return t;
    t.active = true;
    t.parent = obs::CurrentTraceContext();
    t.principal = obs::CurrentPrincipal();
    t.submit_us = obs::TraceNowMicros();
    t.run_span_id = obs::NewSpanId();
    t.method = method;
    return t;
  }

  // Context for the method body: the run span id is allocated up front so
  // nested work (store RPCs, channel pushes/pops) parents *under* the run
  // span — the assembled tree then decomposes run time into cpu / net /
  // channel instead of flattening those spans beside it.
  obs::TraceContext RunContext() const {
    if (!active || parent.trace_id == 0) return parent;
    return obs::TraceContext{parent.trace_id, run_span_id};
  }

  // Call once the monitor admits the method; returns the run start time.
  // Call with the method's profile tag installed: the queue wait becomes an
  // off-CPU sample attributed to the method that was kept waiting.
  std::uint64_t EnterRun() const {
    if (!active) return 0;
    const std::uint64_t now = obs::TraceNowMicros();
    obs::SamplingProfiler::Global().AddWaitSample("action.queue",
                                                  now - submit_us);
    obs::RecordSpan("action", std::string("action.") + method + ".queue",
                    parent, obs::NewSpanId(), submit_us, now);
    obs::MetricsRegistry::Global()
        .GetHistogram(std::string("action.") + method + ".queue_us")
        .Record(now - submit_us);
    obs::LedgerCell wait;
    wait.queue_us = now - submit_us;
    obs::ResourceLedger::Global().Charge(
        principal, std::string("action.") + method, wait);
    return now;
  }

  void FinishRun(std::uint64_t run_start_us) const {
    if (!active) return;
    const std::uint64_t now = obs::TraceNowMicros();
    obs::RecordSpan("action", std::string("action.") + method + ".run",
                    parent, run_span_id, run_start_us, now);
    obs::MetricsRegistry::Global()
        .GetHistogram(std::string("action.") + method + ".run_us")
        .Record(now - run_start_us);
  }

  // Bills `cpu_us` of action-thread CPU (the same delta the per-slot
  // cpu_us counter receives) plus one invocation to the caller's tenant,
  // keyed "action.<method>" — the ledger's action-plane cpu therefore sums
  // exactly to the per-slot accounting.
  void ChargeCpu(std::uint64_t cpu_us) const {
    if (!active) return;
    obs::LedgerCell cell;
    cell.cpu_us = cpu_us;
    cell.invocations = 1;
    obs::ResourceLedger::Global().Charge(
        principal, std::string("action.") + method, cell);
  }
};

}  // namespace

// One method's hold on its slot, from monitor admission to Release(): the
// watchdog mark, the run span and the CPU charge.
class ActiveServer::MethodTurn {
 public:
  // Construct holding the slot's turn, with the method's profile tag
  // installed (EnterRun files the queue wait under it).
  MethodTurn(Slot& slot, const char* method, const MethodTrace& trace,
             bool acct)
      : slot_(slot), trace_(trace), acct_(acct) {
    SlotRunState& run = slot_.run;
    run.cpu_clock.store(t_method_clock, std::memory_order_relaxed);
    run.method.store(method, std::memory_order_relaxed);
    mark_us_ = obs::TraceNowMicros();
    run.run_start_us.store(mark_us_, std::memory_order_release);
    cpu_start_us_ = acct_ ? ThreadCpuMicros() : 0;
    run_start_us_ = trace_.EnterRun();
  }
  ~MethodTurn() { Release(); }
  MethodTurn(const MethodTurn&) = delete;
  MethodTurn& operator=(const MethodTurn&) = delete;

  Slot& slot() const { return slot_; }
  // The monitor a method yields at channel waits: its slot's, when the
  // action interleaves.
  ActionMonitor* yield() const {
    return slot_.interleave ? &slot_.monitor : nullptr;
  }

  // Hands the slot's turn to the next method, then records the run span and
  // charges the method's CPU to the slot and to the caller. Idempotent.
  void Release() {
    if (released_) return;
    released_ = true;
    // An interleaved method of this slot may have published its own start
    // since: clear only our own mark.
    std::uint64_t expected = mark_us_;
    slot_.run.run_start_us.compare_exchange_strong(
        expected, 0, std::memory_order_release, std::memory_order_relaxed);
    slot_.monitor.Exit();
    trace_.FinishRun(run_start_us_);
    if (acct_) {
      const std::uint64_t cpu = ThreadCpuMicros() - cpu_start_us_;
      slot_.stats.cpu_us->Add(cpu);
      trace_.ChargeCpu(cpu);
    }
  }

 private:
  Slot& slot_;
  const MethodTrace& trace_;
  const bool acct_;
  bool released_ = false;
  std::uint64_t mark_us_ = 0;
  std::uint64_t cpu_start_us_ = 0;
  std::uint64_t run_start_us_ = 0;
};

ActiveServer::ActiveServer(Options options,
                           std::shared_ptr<ActionRegistry> registry,
                           std::shared_ptr<Metrics> metrics)
    : net::ServiceRouter("active", metrics.get()),
      options_(std::move(options)),
      registry_(std::move(registry)),
      metrics_(std::move(metrics)),
      method_threads_(options_.num_slots) {
  auto& reg = obs::MetricsRegistry::Global();
  total_queue_depth_ = &reg.GetGauge("active.queue_depth");
  total_stalls_ = &reg.GetCounter("active.stalls");
  slots_.reserve(options_.num_slots);
  for (std::uint32_t i = 0; i < options_.num_slots; ++i) {
    auto slot = std::make_shared<Slot>();
    slot->index = i;
    const std::string prefix = "active.slot" + std::to_string(i) + ".";
    slot->stats.invocations = &reg.GetCounter(prefix + "invocations");
    slot->stats.bytes_in = &reg.GetCounter(prefix + "bytes_in");
    slot->stats.bytes_out = &reg.GetCounter(prefix + "bytes_out");
    slot->stats.cpu_us = &reg.GetCounter(prefix + "cpu_us");
    slot->stats.stalls = &reg.GetCounter(prefix + "stalls");
    slot->stats.queue_depth = &reg.GetGauge(prefix + "queue_depth");
    slots_.push_back(std::move(slot));
  }
  RouteDeferred<ActionCreateRequest>(
      kActionCreate, "ActionCreate",
      [this](ActionCreateRequest req, net::Message request,
             net::Responder responder) {
        DoActionCreate(std::move(req), std::move(request),
                       std::move(responder));
      });
  RouteDeferred<SlotRequest>(
      kActionDelete, "ActionDelete",
      [this](SlotRequest req, net::Message request, net::Responder responder) {
        DoActionDelete(req, std::move(request), std::move(responder));
      });
  RouteDeferred<SlotRequest>(
      kActionStat, "ActionStat",
      [this](SlotRequest req, net::Message request, net::Responder responder) {
        DoActionStat(req, std::move(request), std::move(responder));
      });
  RouteDeferred<StreamOpenRequest>(
      kStreamOpen, "StreamOpen",
      [this](StreamOpenRequest req, net::Message request,
             net::Responder responder) {
        DoStreamOpen(req, std::move(request), std::move(responder));
      });
  RouteDeferred<StreamWriteRequest>(
      kStreamWrite, "StreamWrite",
      [this](StreamWriteRequest req, net::Message request,
             net::Responder responder) {
        DoStreamWrite(std::move(req), std::move(request),
                      std::move(responder));
      });
  RouteDeferred<StreamWriteBatchRequest>(
      kStreamWriteBatch, "StreamWriteBatch",
      [this](StreamWriteBatchRequest req, net::Message request,
             net::Responder responder) {
        DoStreamWriteBatch(std::move(req), std::move(request),
                           std::move(responder));
      });
  RouteDeferred<StreamReadRequest>(
      kStreamRead, "StreamRead",
      [this](StreamReadRequest req, net::Message request,
             net::Responder responder) {
        DoStreamRead(req, std::move(request), std::move(responder));
      });
  RouteDeferred<StreamCloseRequest>(
      kStreamClose, "StreamClose",
      [this](StreamCloseRequest req, net::Message request,
             net::Responder responder) {
        DoStreamClose(req, std::move(request), std::move(responder));
      });
}

struct ActiveServer::MethodThreads::Worker {
  std::thread thread;
  std::condition_variable wake;
  std::function<void()> task;  // handed over by Submit while parked
};

ActiveServer::MethodThreads::MethodThreads(std::size_t max_parked)
    : max_parked_(max_parked),
      spawned_(&obs::MetricsRegistry::Global().GetCounter(
          "active.method_threads_spawned")) {}

ActiveServer::MethodThreads::~MethodThreads() { Shutdown(); }

Status ActiveServer::MethodThreads::Submit(std::function<void()> task) {
  std::vector<std::thread> exited;
  {
    std::scoped_lock lock(mu_);
    if (shutdown_) return Status::Closed("active server shutting down");
    if (!parked_.empty()) {
      Worker* worker = parked_.back();
      parked_.pop_back();
      worker->task = std::move(task);
      // Under the lock: once it is released the worker may run the task,
      // find the cache full, and destroy itself.
      worker->wake.notify_one();
      return Status::Ok();
    }
    exited.swap(exited_);
    auto owned = std::make_unique<Worker>();
    Worker* worker = owned.get();
    // Started under the lock, so `worker->thread` is set before the thread
    // can reach its own exit path.
    worker->thread = std::thread(
        [this, worker, task = std::move(task)]() mutable {
          Loop(worker, std::move(task));
        });
    workers_.push_back(std::move(owned));
    spawned_->Increment();
  }
  for (std::thread& t : exited) t.join();
  return Status::Ok();
}

void ActiveServer::MethodThreads::Loop(Worker* worker,
                                       std::function<void()> task) {
  clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
  if (::pthread_getcpuclockid(::pthread_self(), &clock) == 0) {
    t_method_clock = clock;
  }
  while (true) {
    task();
    task = nullptr;  // drop the method's captures before parking
    std::unique_lock lock(mu_);
    if (shutdown_) return;  // Shutdown joins it
    if (parked_.size() >= max_parked_) {
      exited_.push_back(std::move(worker->thread));
      std::erase_if(workers_, [worker](const std::unique_ptr<Worker>& w) {
        return w.get() == worker;
      });
      return;
    }
    parked_.push_back(worker);
    worker->wake.wait(lock, [&] { return worker->task || shutdown_; });
    if (!worker->task) return;  // shut down while parked
    task = std::move(worker->task);
    worker->task = nullptr;
  }
}

void ActiveServer::MethodThreads::Shutdown() {
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::thread> exited;
  {
    std::scoped_lock lock(mu_);
    shutdown_ = true;
    parked_.clear();
    for (const auto& worker : workers_) worker->wake.notify_one();
    workers.swap(workers_);
    exited.swap(exited_);
  }
  for (const auto& worker : workers) worker->thread.join();
  for (std::thread& t : exited) t.join();
}

ActiveServer::~ActiveServer() { Stop(); }

void ActiveServer::Stop() {
  // Stop accepting requests before tearing down action state. Joining the
  // method threads here (not just in the destructor) matters: the
  // transport's listener entry holds a shared_ptr to this service, so the
  // destructor alone can never run while the listener exists. Abort open
  // streams first: a method blocked on a stream the client abandoned
  // without closing would otherwise block the join forever.
  if (listener_) {
    obs::JournalEvent(obs::EventType::kServerDown, address_, "active");
  }
  listener_.reset();
  {
    std::scoped_lock lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  streams_.AbortAll();
  method_threads_.Shutdown();
  // With the methods joined, nothing touches the internal client or the
  // action objects any more. Release both: connections held by the client
  // (and, transitively, by retained action state) can reference active
  // servers — including this one — and would otherwise keep a cycle of
  // server entries alive past shutdown.
  internal_client_.reset();
  for (const auto& slot : slots_) {
    std::scoped_lock lock(slot->obj_mu);
    slot->object.reset();
  }
}

Status ActiveServer::Start(net::Transport& transport,
                           const std::string& metadata_address) {
  // The store client actions use to reach other nodes, over the
  // storage-internal link. Built before Listen: the first RPC can arrive on
  // a listener thread with no synchronization edge back to this one. It
  // connects to the metadata server, so it does not depend on our own
  // listener being up.
  nk::StoreClient::Options copts;
  copts.transport = &transport;
  copts.metadata_address = metadata_address;
  copts.data_link = std::make_shared<net::LinkModel>(
      options_.internal_link_class, options_.internal_link_bps,
      std::chrono::microseconds(0), metrics_);
  GLIDER_ASSIGN_OR_RETURN(internal_client_,
                          nk::StoreClient::Connect(std::move(copts)));

  auto listener =
      transport.Listen(options_.preferred_address, shared_from_this());
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  address_ = listener_->address();

  // Register the slots as the blocks of this storage space, grouped under
  // the active storage class.
  auto conn = transport.Connect(
      metadata_address, net::LinkModel::Unshaped(LinkClass::kControl, metrics_));
  if (!conn.ok()) return conn.status();
  nk::RegisterServerRequest req;
  req.storage_class = nk::kActiveClass;
  req.address = address_;
  req.num_blocks = options_.num_slots;
  req.block_size = options_.slot_bytes;
  GLIDER_RETURN_IF_ERROR(net::CallVoid(**conn, nk::kRegisterServer, req));

  if (options_.stall_multiple > 0 && options_.interleave_quantum.count() > 0 &&
      !watchdog_.joinable()) {
    {
      std::scoped_lock lock(watchdog_mu_);
      watchdog_stop_ = false;
    }
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  obs::JournalEvent(obs::EventType::kServerUp, address_, "active");
  return Status::Ok();
}

void ActiveServer::WatchdogLoop() {
  const std::uint64_t threshold_us = static_cast<std::uint64_t>(
      options_.stall_multiple *
      static_cast<double>(options_.interleave_quantum.count()) * 1000.0);
  // Per slot: the run and progress count last seen, and the method
  // thread's CPU clock when they were first seen at those values.
  struct Base {
    std::uint64_t run_start_us = 0;
    std::uint64_t progress = 0;
    std::uint64_t cpu_us = 0;
    bool flagged = false;  // one warning per stall episode
  };
  std::vector<Base> bases(slots_.size());
  std::unique_lock lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, options_.watchdog_interval,
                          [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    for (const auto& slot : slots_) {
      SlotRunState& run = slot->run;
      const std::uint64_t run_start =
          run.run_start_us.load(std::memory_order_acquire);
      if (run_start == 0) continue;  // idle
      // A clock_gettime failure means the thread already exited — skip.
      timespec ts{};
      const clockid_t clock = run.cpu_clock.load(std::memory_order_relaxed);
      if (::clock_gettime(clock, &ts) != 0) continue;
      const std::uint64_t cpu_now =
          static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
          static_cast<std::uint64_t>(ts.tv_nsec) / 1000u;
      const std::uint64_t progress =
          run.progress.load(std::memory_order_relaxed);
      Base& base = bases[slot->index];
      if (base.run_start_us != run_start || base.progress != progress ||
          cpu_now < base.cpu_us) {
        base = Base{run_start, progress, cpu_now, false};
        continue;
      }
      if (base.flagged || cpu_now - base.cpu_us <= threshold_us) continue;
      // CPU burnt by the method thread since it last touched a channel.
      const std::uint64_t stalled_us = cpu_now - base.cpu_us;
      base.flagged = true;
      const char* method = run.method.load(std::memory_order_relaxed);
      total_stalls_->Increment();
      slot->stats.stalls->Increment();
      GLIDER_LOG(kWarn, "active")
          << "slot " << slot->index << " method " << method << " on-CPU "
          << stalled_us << "us without yielding (threshold " << threshold_us
          << "us = " << options_.stall_multiple << " x "
          << options_.interleave_quantum.count() << "ms quantum)";
      obs::SpanRecord record;
      record.name = "stall.slot" + std::to_string(slot->index) + "." + method;
      record.category = "active";
      record.start_us = run_start;
      record.dur_us = stalled_us;
      obs::SlowTraceStore::Global().Flag(std::move(record), threshold_us);
      obs::JournalEvent(obs::EventType::kSlotStall,
                        "slot" + std::to_string(slot->index), method,
                        static_cast<std::int64_t>(stalled_us));
    }
  }
}

void ActiveServer::StreamTable::Insert(std::uint64_t id,
                                       std::shared_ptr<Stream> stream) {
  Stripe& stripe = StripeFor(id);
  std::scoped_lock lock(stripe.mu);
  stripe.streams[id] = std::move(stream);
}

Result<std::shared_ptr<ActiveServer::Stream>> ActiveServer::StreamTable::Find(
    std::uint64_t id) const {
  const Stripe& stripe = StripeFor(id);
  std::scoped_lock lock(stripe.mu);
  auto it = stripe.streams.find(id);
  if (it == stripe.streams.end()) {
    return Status::NotFound("unknown stream " + std::to_string(id));
  }
  return it->second;
}

void ActiveServer::StreamTable::Erase(std::uint64_t id) {
  Stripe& stripe = StripeFor(id);
  std::scoped_lock lock(stripe.mu);
  stripe.streams.erase(id);
}

void ActiveServer::StreamTable::AbortAll() {
  for (Stripe& stripe : stripes_) {
    std::scoped_lock lock(stripe.mu);
    for (auto& [id, stream] : stripe.streams) stream->channel.Abort();
  }
}

Result<std::shared_ptr<ActiveServer::Slot>> ActiveServer::GetSlot(
    std::uint32_t index, bool must_have_object) {
  if (index >= slots_.size()) {
    return Status::OutOfRange("slot " + std::to_string(index) +
                              " out of range");
  }
  std::shared_ptr<Slot> slot = slots_[index];
  if (must_have_object && slot->LiveObject() == nullptr) {
    return Status::NotFound("no action in slot " + std::to_string(index));
  }
  return slot;
}

Status ActiveServer::RunOnSlot(std::shared_ptr<Slot> slot, const char* method,
                               std::string type, MethodBody body) {
  const MethodTrace mt = MethodTrace::Begin(method);
  // `acct` is captured so the increment/decrement pair stays balanced even
  // if observability is toggled while the method is queued.
  const bool acct = obs::Enabled();
  if (acct) {
    slot->stats.invocations->Increment();
    slot->stats.queue_depth->Add(1);
    total_queue_depth_->Add(1);
  }
  const Status submitted = method_threads_.Submit(
      [this, slot, method, type = std::move(type), mt, acct,
       body = std::move(body)] {
        slot->monitor.Enter();
        if (acct) {
          slot->stats.queue_depth->Add(-1);
          total_queue_depth_->Add(-1);
        }
        const std::string& action_type =
            type.empty() ? slot->action_type : type;
        // Attribution tag for the profiler: every CPU sample taken on this
        // thread while the method runs lands under the slot it is serving.
        // Built only when the profiler is on (string concat on the hot path).
        std::string profile_tag;
        if (obs::SamplingProfiler::ActiveFast()) {
          profile_tag = "slot" + std::to_string(slot->index) + ":" +
                        action_type + "." + method;
        }
        obs::ProfileTagScope ptag(profile_tag.empty() ? nullptr
                                                      : profile_tag.c_str());
        MethodTurn turn(*slot, method, mt, acct);
        // Methods issue store RPCs and block on channels; parent all of that
        // under the method's run span (RunContext pre-allocates its id).
        obs::TraceContextScope trace_scope(mt.RunContext());
        // Same hop for the principal: store RPCs and channel traffic issued
        // by the method bill to the tenant that called it.
        obs::PrincipalScope principal_scope(mt.principal);
        if (acct) obs::MethodSketch().Offer(action_type + "." + method);
        body(turn);  // `turn` releases on scope exit if the body did not
      });
  if (!submitted.ok() && acct) {
    slot->stats.queue_depth->Add(-1);
    total_queue_depth_->Add(-1);
  }
  return submitted;
}

void ActiveServer::DoActionCreate(ActionCreateRequest req,
                                  net::Message request,
                                  net::Responder responder) {
  auto slot = GetSlot(req.slot, /*must_have_object=*/false);
  if (!slot.ok()) return responder.SendError(request, slot.status());
  auto object = registry_->Create(req.action_type);
  if (!object.ok()) return responder.SendError(request, object.status());

  // Instantiate under the action's execution turn: onCreate is user code
  // and follows the single-threaded model like any other method.
  std::string type = req.action_type;
  const Status submitted = RunOnSlot(
      std::move(slot).value(), "onCreate", std::move(type),
      [this, req = std::move(req),
       object = std::shared_ptr<Action>(std::move(object).value()), request,
       responder](MethodTurn& turn) mutable {
        Slot& slot = turn.slot();
        if (slot.LiveObject() != nullptr) {
          turn.Release();
          return responder.SendError(
              request, Status::AlreadyExists("slot already holds an action"));
        }
        slot.interleave = req.interleave;
        slot.action_type = req.action_type;
        slot.config = std::move(req.config);
        {
          std::scoped_lock lock(slot.obj_mu);
          slot.object = object;
        }
        ServerActionContext ctx(internal_client_.get(), slot.config.span());
        Status status;
        try {
          object->onCreate(ctx);
        } catch (const std::exception& e) {
          std::scoped_lock lock(slot.obj_mu);
          slot.object.reset();
          status = Status::Internal(std::string("onCreate: ") + e.what());
        }
        turn.Release();
        if (status.ok()) {
          responder.SendOk(request);
        } else {
          responder.SendError(request, status);
        }
      });
  if (!submitted.ok()) responder.SendError(request, submitted);
}

void ActiveServer::DoActionDelete(SlotRequest req, net::Message request,
                                  net::Responder responder) {
  auto slot = GetSlot(req.slot, /*must_have_object=*/true);
  if (!slot.ok()) return responder.SendError(request, slot.status());
  const Status submitted = RunOnSlot(
      std::move(slot).value(), "onDelete", {},
      [this, request, responder](MethodTurn& turn) mutable {
        Slot& slot = turn.slot();
        std::shared_ptr<Action> object = slot.LiveObject();
        if (object == nullptr) {
          turn.Release();
          return responder.SendError(request,
                                     Status::NotFound("slot already empty"));
        }
        ServerActionContext ctx(internal_client_.get(), slot.config.span());
        try {
          object->onDelete(ctx);
        } catch (const std::exception& e) {
          GLIDER_LOG(kWarn, "active") << "onDelete threw: " << e.what();
        }
        {
          std::scoped_lock lock(slot.obj_mu);
          slot.object.reset();
        }
        turn.Release();
        responder.SendOk(request);
      });
  if (!submitted.ok()) responder.SendError(request, submitted);
}

void ActiveServer::DoActionStat(SlotRequest req, net::Message request,
                                net::Responder responder) {
  auto slot = GetSlot(req.slot, /*must_have_object=*/true);
  if (!slot.ok()) return responder.SendError(request, slot.status());
  const Status submitted = RunOnSlot(
      std::move(slot).value(), "StateBytes", {},
      [request, responder](MethodTurn& turn) mutable {
        ActionStatResponse resp;
        if (auto object = turn.slot().LiveObject()) {
          resp.state_bytes = object->StateBytes();
        }
        turn.Release();
        responder.SendOk(request, resp.Encode());
      });
  if (!submitted.ok()) responder.SendError(request, submitted);
}

void ActiveServer::DoStreamOpen(StreamOpenRequest req, net::Message request,
                                net::Responder responder) {
  auto slot = GetSlot(req.slot, /*must_have_object=*/true);
  if (!slot.ok()) return responder.SendError(request, slot.status());

  const std::uint64_t id = next_stream_id_.fetch_add(1);
  auto stream = std::make_shared<Stream>(id, req.slot, req.mode,
                                         options_.channel_capacity);
  streams_.Insert(id, stream);
  RunStreamMethod(std::move(slot).value(), stream);

  StreamOpenResponse resp;
  resp.stream_id = id;
  responder.SendOk(request, resp.Encode());
}

void ActiveServer::RunStreamMethod(std::shared_ptr<Slot> slot,
                                   std::shared_ptr<Stream> stream) {
  const bool write = stream->mode == StreamMode::kWrite;
  const Status submitted = RunOnSlot(
      std::move(slot), write ? "onWrite" : "onRead", {},
      [this, stream, write](MethodTurn& turn) {
        Slot& slot = turn.slot();
        ServerActionContext ctx(internal_client_.get(), slot.config.span());
        std::shared_ptr<Action> object = slot.LiveObject();
        if (write) {
          ChannelInputStream in(&stream->channel, turn.yield(), &slot.run);
          try {
            if (object != nullptr) object->onWrite(in, ctx);
          } catch (const std::exception& e) {
            GLIDER_LOG(kWarn, "active") << "onWrite threw: " << e.what();
          }
          turn.Release();
          // The method may return before consuming the whole stream; drain
          // so pipelined client writes still get acknowledged, then complete
          // the client's close. Must go through `in`, not the channel
          // directly: the input stream may hold batch-drained tasks (eos
          // included) in its local stash.
          in.DrainUntilEos();
          net::Responder close_responder;
          net::Message close_request;
          {
            std::scoped_lock lock(stream->close_mu);
            stream->method_done = true;
            close_responder = std::move(stream->close_responder);
            close_request = stream->close_request;
          }
          if (close_responder.valid()) close_responder.SendOk(close_request);
        } else {
          ChannelOutputStream out(&stream->channel, turn.yield(), &slot.run);
          try {
            if (object != nullptr) object->onRead(out, ctx);
          } catch (const std::exception& e) {
            GLIDER_LOG(kWarn, "active") << "onRead threw: " << e.what();
          }
          turn.Release();
          out.Close();  // idempotent: signals end-of-stream to the reader
          std::scoped_lock lock(stream->close_mu);
          stream->method_done = true;
        }
      });
  if (!submitted.ok()) {
    GLIDER_LOG(kWarn, "active") << "method rejected: " << submitted.ToString();
    stream->channel.Abort();
  }
}

void ActiveServer::DoStreamWrite(StreamWriteRequest req, net::Message request,
                                 net::Responder responder) {
  // Zero-copy: req.data is a slice of the request payload; the DataTask
  // keeps the frame's storage alive until the action consumes it.
  auto stream = streams_.Find(req.stream_id);
  if (!stream.ok()) return responder.SendError(request, stream.status());
  if ((*stream)->mode != StreamMode::kWrite) {
    return responder.SendError(request,
                               Status::InvalidArgument("not a write stream"));
  }
  if (obs::Enabled()) {
    slots_[(*stream)->slot]->stats.bytes_in->Add(req.data.size());
  }
  DataTask task;
  task.data = std::move(req.data);
  (*stream)->channel.AsyncPush(
      req.seq, std::move(task),
      [request, responder](Status admit) mutable {
        if (admit.ok()) {
          responder.SendOk(request);
        } else {
          responder.SendError(request, admit);
        }
      });
}

void ActiveServer::DoStreamWriteBatch(StreamWriteBatchRequest req,
                                      net::Message request,
                                      net::Responder responder) {
  // Doorbell write: the whole batch enters the channel under one lock with
  // one wakeup; the single response acks the batch once its last chunk is
  // admitted. Chunks are zero-copy slices of the request payload.
  auto stream = streams_.Find(req.stream_id);
  if (!stream.ok()) return responder.SendError(request, stream.status());
  if ((*stream)->mode != StreamMode::kWrite) {
    return responder.SendError(request,
                               Status::InvalidArgument("not a write stream"));
  }
  if (obs::Enabled()) {
    std::uint64_t total = 0;
    for (const auto& c : req.chunks) total += c.size();
    slots_[(*stream)->slot]->stats.bytes_in->Add(total);
  }
  std::vector<DataTask> tasks;
  tasks.reserve(req.chunks.size());
  for (auto& chunk : req.chunks) {
    DataTask task;
    task.data = std::move(chunk);
    tasks.push_back(std::move(task));
  }
  (*stream)->channel.AsyncPushAll(
      req.first_seq, std::move(tasks),
      [request, responder](Status admit) mutable {
        if (admit.ok()) {
          responder.SendOk(request);
        } else {
          responder.SendError(request, admit);
        }
      });
}

void ActiveServer::DoStreamRead(StreamReadRequest req, net::Message request,
                                net::Responder responder) {
  auto stream = streams_.Find(req.stream_id);
  if (!stream.ok()) return responder.SendError(request, stream.status());
  if ((*stream)->mode != StreamMode::kRead) {
    return responder.SendError(request,
                               Status::InvalidArgument("not a read stream"));
  }
  obs::Counter* bytes_out =
      obs::Enabled() ? slots_[(*stream)->slot]->stats.bytes_out : nullptr;
  (*stream)->channel.AsyncPop(
      req.seq, [request, responder, bytes_out](Result<DataTask> task) mutable {
        if (task.ok()) {
          if (bytes_out != nullptr) bytes_out->Add(task->data.size());
          responder.SendOk(request, std::move(task->data));
        } else {
          // kClosed = end of stream; the client reader treats it as EOF.
          responder.SendError(request, task.status());
        }
      });
}

void ActiveServer::DoStreamClose(StreamCloseRequest req, net::Message request,
                                 net::Responder responder) {
  auto stream_result = streams_.Find(req.stream_id);
  if (!stream_result.ok()) {
    // Already cleaned up; close is idempotent.
    return responder.SendOk(request);
  }
  auto stream = std::move(stream_result).value();

  if (stream->mode == StreamMode::kWrite) {
    bool already_done = false;
    {
      std::scoped_lock lock(stream->close_mu);
      if (stream->method_done) {
        already_done = true;
      } else {
        stream->close_responder = std::move(responder);
        stream->close_request = request;
      }
    }
    // End-of-stream arrives in-band after the last write (seq ordering).
    DataTask eos;
    eos.eos = true;
    stream->channel.AsyncPush(req.seq, std::move(eos), [](Status) {});
    if (already_done) {
      // Method finished early (it may not consume the whole stream).
      net::Responder r = std::move(responder);
      r.SendOk(request);
    }
  } else {
    // Reader is done: unblock the producer if it is still writing.
    stream->channel.Abort();
    responder.SendOk(request);
  }
  streams_.Erase(req.stream_id);
}

std::uint64_t ActiveServer::UsedBytes() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) {
    if (auto object = slot->LiveObject()) total += object->StateBytes();
  }
  return total;
}

std::size_t ActiveServer::LiveActions() const {
  std::size_t count = 0;
  for (const auto& slot : slots_) {
    if (slot->LiveObject() != nullptr) ++count;
  }
  return count;
}

}  // namespace glider::core
