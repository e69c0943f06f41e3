#include "common/profiler.h"

#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.h"

#if defined(__linux__)
#include <ucontext.h>
#endif

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

// Sanitizer runtimes intercept signal delivery and keep interceptor frames
// on the stack that defeat the frame-pointer walk; SIGPROF sampling is
// compiled out under them (SignalSamplingSupported() == false).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GLIDER_PROFILER_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GLIDER_PROFILER_SANITIZED 1
#endif
#endif

#if !defined(GLIDER_PROFILER_SANITIZED) && defined(__linux__) && \
    (defined(__x86_64__) || defined(__aarch64__))
#define GLIDER_PROFILER_CAN_SAMPLE 1
#endif

namespace glider::obs {

namespace {

// One thread's sample buffer: single producer (the thread's own signal
// handler), single consumer (CollectFolded, serialized by the profiler
// mutex). Entry memory is synchronized by the release on `head` (producer)
// and the release on `tail` (consumer); the capacity check keeps producer
// and consumer out of the same entry.
struct ThreadRing {
  std::unique_ptr<ProfileSample[]> entries;
  std::size_t capacity = 0;
  std::atomic<std::uint64_t> head{0};  // next write index (monotonic)
  std::atomic<std::uint64_t> tail{0};  // next read index (monotonic)
  // The owning thread's stack bounds: every frame-pointer dereference in
  // the handler is checked against them, so a bogus fp can never fault.
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
};

// Rings live until process exit (leaky registry: threads may still receive
// a late signal while static destructors run). Exited threads park their
// ring on a free list; the next new thread reuses it, so memory is bounded
// by the peak number of concurrent threads, not thread churn.
struct RingRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> all;
  std::vector<ThreadRing*> free_list;
};

RingRegistry& Registry() {
  static RingRegistry* registry = new RingRegistry();  // leaked on purpose
  return *registry;
}

// State the signal handler reads. Both thread-locals are trivially
// constructible/destructible so a handler access never triggers TLS guard
// or destructor-registration machinery (which may allocate).
thread_local ThreadRing* tls_ring = nullptr;
struct TagBuf {
  std::uint32_t len;
  char chars[ProfileSample::kMaxTag];
};
thread_local TagBuf tls_tag = {0, {0}};

std::atomic<bool> g_signal_armed{false};
std::atomic<std::uint64_t> g_samples{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint64_t> g_unregistered{0};
std::atomic<std::size_t> g_ring_capacity{2048};

// Returns the ring to the free list at thread exit. tls_ring is cleared
// first: a signal landing between the clear and the push is counted as
// unregistered instead of touching a ring being handed over.
struct RingReleaser {
  ThreadRing* ring = nullptr;
  ~RingReleaser() {
    ThreadRing* r = ring;
    if (r == nullptr) return;
    tls_ring = nullptr;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    std::scoped_lock lock(Registry().mu);
    Registry().free_list.push_back(r);
  }
};
thread_local RingReleaser tls_releaser;

ThreadRing* EnsureRing() {
  ThreadRing* ring = tls_ring;
  if (ring != nullptr) return ring;
  {
    RingRegistry& registry = Registry();
    std::scoped_lock lock(registry.mu);
    if (!registry.free_list.empty()) {
      ring = registry.free_list.back();
      registry.free_list.pop_back();
    } else {
      auto owned = std::make_unique<ThreadRing>();
      owned->capacity = g_ring_capacity.load(std::memory_order_relaxed);
      owned->entries = std::make_unique<ProfileSample[]>(owned->capacity);
      ring = owned.get();
      registry.all.push_back(std::move(owned));
    }
  }
  // Stack bounds for the unwinder's pointer checks. Written before the
  // handler can see the ring (tls_ring is still null on this thread).
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* base = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &base, &size) == 0) {
      ring->stack_lo = reinterpret_cast<std::uintptr_t>(base);
      ring->stack_hi = ring->stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  std::atomic_signal_fence(std::memory_order_seq_cst);
  tls_ring = ring;
  tls_releaser.ring = ring;
  return ring;
}

#if defined(GLIDER_PROFILER_CAN_SAMPLE)

// Async-signal-safe: no locks, no allocation, bounds-checked dereferences
// only. Runs on the interrupted thread, so the thread-locals it reads are
// ordered with that thread's normal-context writes by the signal fences.
void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* ucontext) {
  if (!g_signal_armed.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  ThreadRing* ring = tls_ring;
  if (ring == nullptr || ring->capacity == 0) {
    g_unregistered.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head - tail >= ring->capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  ProfileSample& sample = ring->entries[head % ring->capacity];

  const auto* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  std::uintptr_t pc =
      static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  std::uintptr_t fp =
      static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  std::uintptr_t sp =
      static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  std::uintptr_t pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  std::uintptr_t fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  std::uintptr_t sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#endif

  sample.pcs[0] = reinterpret_cast<void*>(pc);
  std::uint32_t depth = 1;
  // Frame-pointer walk: each frame is {caller fp, return address}. Caller
  // frames live at strictly higher addresses; every dereference must stay
  // inside this thread's stack or the walk stops.
  const std::uintptr_t lo = std::max(sp, ring->stack_lo);
  const std::uintptr_t hi = ring->stack_hi;
  while (depth < ProfileSample::kMaxDepth) {
    if (fp < lo || fp + 2 * sizeof(void*) > hi ||
        (fp & (sizeof(void*) - 1)) != 0) {
      break;
    }
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t next_fp = frame[0];
    const std::uintptr_t ret = frame[1];
    if (ret < 4096) break;  // null page: not a code address
    sample.pcs[depth++] = reinterpret_cast<void*>(ret);
    if (next_fp <= fp) break;  // frames must move up the stack
    fp = next_fp;
  }
  sample.depth = depth;

  // Tag snapshot. A ProfileTagScope mid-update published len = 0 first, so
  // a torn string is never observed — worst case the sample is untagged.
  std::uint32_t tag_len = tls_tag.len;
  if (tag_len >= ProfileSample::kMaxTag) tag_len = ProfileSample::kMaxTag - 1;
  for (std::uint32_t i = 0; i < tag_len; ++i) sample.tag[i] = tls_tag.chars[i];
  sample.tag[tag_len] = '\0';

  ring->head.store(head + 1, std::memory_order_release);
  g_samples.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

void InstallHandlerOnce() {
  // Installed once and left in place: restoring SIG_DFL with one last
  // timer tick in flight would terminate the process (SIGPROF's default
  // action). Disarm is the g_signal_armed gate + a zeroed timer instead.
  static bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &SigprofHandler;
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGPROF, &sa, nullptr);
    return true;
  }();
  (void)installed;
}

void ArmTimer(int hz) {
  itimerval tv{};
  const long usec = 1000000L / hz;
  tv.it_interval.tv_sec = usec / 1000000;
  tv.it_interval.tv_usec = usec % 1000000;
  tv.it_value = tv.it_interval;
  ::setitimer(ITIMER_PROF, &tv, nullptr);
}

void DisarmTimer() {
  itimerval tv{};
  ::setitimer(ITIMER_PROF, &tv, nullptr);
}

#endif  // GLIDER_PROFILER_CAN_SAMPLE

// --- symbolization (dump time, normal context) -------------------------------

// Demangles and trims one symbol to a flamegraph-friendly frame name:
// collapsed-stack syntax reserves ';' (frame separator) and ' ' (weight
// separator), so both become '_', and parameter lists are cut at '('.
std::string CleanSymbol(const char* mangled) {
  std::string name;
#if defined(__GNUG__)
  int status = 0;
  char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  if (status == 0 && demangled != nullptr) {
    name.assign(demangled);
  } else {
    name.assign(mangled);
  }
  std::free(demangled);
#else
  name.assign(mangled);
#endif
  const std::size_t paren = name.find('(');
  if (paren != std::string::npos) name.resize(paren);
  for (char& c : name) {
    if (c == ';' || c == ' ' || c == '\n') c = '_';
  }
  if (name.empty()) name = "??";
  return name;
}

// dladdr resolves through the dynamic symbol table (executables need
// -rdynamic, which the build adds); anything it cannot name falls back to
// the raw address so the sample is never lost.
std::string SymbolizePc(void* pc, bool return_address) {
  // Return addresses point one past the call; step back one byte so calls
  // at the end of a function do not attribute to the next symbol.
  void* lookup = return_address
                     ? reinterpret_cast<void*>(
                           reinterpret_cast<std::uintptr_t>(pc) - 1)
                     : pc;
  Dl_info info;
  if (::dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
    return CleanSymbol(info.dli_sname);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%" PRIxPTR,
                reinterpret_cast<std::uintptr_t>(pc));
  return buf;
}

}  // namespace

std::atomic<bool> SamplingProfiler::active_flag_{false};

const char* CurrentProfileTag() { return tls_tag.chars; }

ProfileTagScope::ProfileTagScope(const char* tag) {
  if (!SamplingProfiler::ActiveFast() || tag == nullptr) return;
  active_ = true;
  prev_len_ = tls_tag.len;
  std::memcpy(prev_, tls_tag.chars, sizeof(prev_));
  std::size_t len = std::strlen(tag);
  if (len >= ProfileSample::kMaxTag) len = ProfileSample::kMaxTag - 1;
  // Publish protocol: len -> 0, write chars, len -> new. A signal between
  // the fences sees either the old tag, no tag, or the new tag — never a
  // mix (the handler runs on this same thread, so program order holds).
  tls_tag.len = 0;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  std::memcpy(tls_tag.chars, tag, len);
  tls_tag.chars[len] = '\0';
  std::atomic_signal_fence(std::memory_order_seq_cst);
  tls_tag.len = static_cast<std::uint32_t>(len);
  EnsureRing();
}

ProfileTagScope::~ProfileTagScope() {
  if (!active_) return;
  tls_tag.len = 0;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  std::memcpy(tls_tag.chars, prev_, sizeof(prev_));
  std::atomic_signal_fence(std::memory_order_seq_cst);
  tls_tag.len = prev_len_;
}

SamplingProfiler& SamplingProfiler::Global() {
  static SamplingProfiler* profiler = new SamplingProfiler();
  return *profiler;
}

bool SamplingProfiler::SignalSamplingSupported() {
#if defined(GLIDER_PROFILER_CAN_SAMPLE)
  return true;
#else
  return false;
#endif
}

Status SamplingProfiler::Start(Options options) {
  if (options.hz <= 0 || options.hz > 10000) {
    return Status::InvalidArgument("profiler hz out of range");
  }
  if (options.ring_capacity == 0) {
    return Status::InvalidArgument("profiler ring capacity must be > 0");
  }
  std::scoped_lock lock(mu_);
  if (running_.load(std::memory_order_relaxed)) {
    return Status::AlreadyExists("profiler already running");
  }
  options_ = options;
  g_ring_capacity.store(options.ring_capacity, std::memory_order_relaxed);
  accumulated_.clear();
  waits_.clear();
  g_samples.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_unregistered.store(0, std::memory_order_relaxed);
  {
    // Fresh window: skip whatever older samples are still parked in rings.
    RingRegistry& registry = Registry();
    std::scoped_lock reg_lock(registry.mu);
    for (auto& ring : registry.all) {
      ring->tail.store(ring->head.load(std::memory_order_acquire),
                       std::memory_order_release);
    }
  }
  EnsureRing();
  active_flag_.store(true, std::memory_order_relaxed);
#if defined(GLIDER_PROFILER_CAN_SAMPLE)
  InstallHandlerOnce();
  g_signal_armed.store(true, std::memory_order_relaxed);
  ArmTimer(options_.hz);
#else
  if (!warned_sanitizer_) {
    warned_sanitizer_ = true;
    GLIDER_LOG(kWarn, "profiler")
        << "SIGPROF sampling unavailable in this build "
        << "(sanitizer or unsupported platform); collecting wait samples only";
  }
#endif
  running_.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

void SamplingProfiler::Stop() {
  std::scoped_lock lock(mu_);
  if (!running_.load(std::memory_order_relaxed)) return;
#if defined(GLIDER_PROFILER_CAN_SAMPLE)
  DisarmTimer();
  g_signal_armed.store(false, std::memory_order_relaxed);
#endif
  active_flag_.store(false, std::memory_order_relaxed);
  running_.store(false, std::memory_order_relaxed);
}

int SamplingProfiler::hz() const {
  std::scoped_lock lock(mu_);
  return options_.hz;
}

void SamplingProfiler::AddWaitSample(const char* kind, std::uint64_t wait_us) {
  if (!ActiveFast() || wait_us == 0 || kind == nullptr) return;
  const char* tag = tls_tag.len != 0 ? tls_tag.chars : "untagged";
  std::string key = std::string(tag) + ";[wait];" + kind;
  std::scoped_lock lock(mu_);
  waits_[std::move(key)] += wait_us;
}

std::string SamplingProfiler::CollectFolded(bool clear) {
  std::scoped_lock lock(mu_);
  // Drain every ring into the accumulated folded map. Symbol lookups are
  // cached per collect: hot stacks repeat the same handful of pcs.
  std::vector<ThreadRing*> rings;
  {
    RingRegistry& registry = Registry();
    std::scoped_lock reg_lock(registry.mu);
    rings.reserve(registry.all.size());
    for (auto& ring : registry.all) rings.push_back(ring.get());
  }
  std::map<void*, std::string> leaf_cache;
  std::map<void*, std::string> ret_cache;
  std::string key;
  for (ThreadRing* ring : rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const ProfileSample& sample = ring->entries[tail % ring->capacity];
      key.assign(sample.tag[0] != '\0' ? sample.tag : "untagged");
      // Collapsed stacks run root -> leaf; the sample stores leaf first.
      for (std::uint32_t i = sample.depth; i-- > 0;) {
        auto& cache = i == 0 ? leaf_cache : ret_cache;
        auto it = cache.find(sample.pcs[i]);
        if (it == cache.end()) {
          it = cache
                   .emplace(sample.pcs[i],
                            SymbolizePc(sample.pcs[i], /*return_address=*/i != 0))
                   .first;
        }
        key.push_back(';');
        key.append(it->second);
      }
      ++accumulated_[key];
    }
    ring->tail.store(tail, std::memory_order_release);
  }

  // Fold the wait accumulators in as synthetic samples at the sampling
  // rate, so their weights are comparable with on-CPU sample counts.
  std::map<std::string, std::uint64_t> lines = accumulated_;
  const std::uint64_t hz = static_cast<std::uint64_t>(
      options_.hz > 0 ? options_.hz : 99);
  for (const auto& [wait_key, us] : waits_) {
    const std::uint64_t weight = (us * hz + 500000) / 1000000;
    if (weight != 0) lines[wait_key] += weight;
  }

  std::vector<std::pair<std::string, std::uint64_t>> sorted(lines.begin(),
                                                            lines.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::string out;
  for (const auto& [stack, count] : sorted) {
    out += stack;
    out.push_back(' ');
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, count);
    out += buf;
    out.push_back('\n');
  }
  if (clear) {
    accumulated_.clear();
    waits_.clear();
  }
  return out;
}

std::uint64_t SamplingProfiler::SampleCount() const {
  return g_samples.load(std::memory_order_relaxed);
}

std::uint64_t SamplingProfiler::DroppedSamples() const {
  return g_dropped.load(std::memory_order_relaxed);
}

std::uint64_t SamplingProfiler::UnregisteredSamples() const {
  return g_unregistered.load(std::memory_order_relaxed);
}

}  // namespace glider::obs
