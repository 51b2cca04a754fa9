#include "sim/scheduler.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

// Fiber-switch annotations so the sanitizers track which stack is live.
// Without them ASan's fake-stack bookkeeping and TSan's happens-before graph
// both follow the OS thread and report false positives the first time a
// fiber migrates between workers.
#if defined(__has_include)
#if __has_include(<sanitizer/common_interface_defs.h>)
#include <sanitizer/common_interface_defs.h>
#endif
#if __has_include(<sanitizer/tsan_interface.h>)
#include <sanitizer/tsan_interface.h>
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define CA_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CA_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define CA_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CA_TSAN_FIBERS 1
#endif
#endif

namespace ca::sim {

namespace detail {

class Pool;

/// Wake handshake states. A parked fiber is resumed exactly once no matter
/// how the notifier interleaves with the fiber's own switch-out:
///   kRunning -> worker CAS -> kParked        (normal park, after switch-out)
///   kRunning -> waker exchange -> kReady     (wake raced the switch-out:
///                                             the worker's CAS fails and THE
///                                             WORKER re-queues the fiber)
///   kParked  -> waker exchange -> kReady     (late wake: the waker queues it)
enum FiberState : int { kRunning = 0, kParked = 1, kReady = 2 };

struct Fiber {
  ucontext_t ctx{};
  Pool* pool = nullptr;
  int rank = -1;
  const double* clock = nullptr;  // bound to obs::ThreadClock while running
  void* map_base = nullptr;       // mmap base; guard page at the low end
  std::size_t map_bytes = 0;
  std::size_t usable = 0;  // writable stack bytes above the guard page
  std::atomic<int> state{kReady};
  bool finished = false;
  Fiber* next = nullptr;             // TaskWaitQueue / free-list link
  ucontext_t* return_ctx = nullptr;  // resuming worker's context
#ifdef CA_TSAN_FIBERS
  void* tsan_fiber = nullptr;
  void* tsan_worker = nullptr;  // resuming worker's TSan fiber
#endif
#ifdef CA_ASAN_FIBERS
  void* asan_fake = nullptr;      // fiber's fake stack, saved across parks
  const void* from_lo = nullptr;  // resuming worker's stack bounds
  std::size_t from_size = 0;
#endif
};

namespace {

std::size_t page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// The fiber this thread is currently executing, or nullptr on a plain
/// thread. noinline so every call re-derives the TLS address: inside a fiber
/// a cached thread_local address would go stale when the fiber migrates to
/// another worker across a yield.
__attribute__((noinline)) Fiber*& tls_fiber() {
  static thread_local Fiber* current = nullptr;
  return current;
}

void fiber_trampoline(unsigned hi, unsigned lo);

}  // namespace

/// One TaskScheduler::run invocation: the worker threads, the ready deque,
/// and the fibers' lifetime. Static entry points reach the pool through the
/// current fiber's back-pointer.
class Pool {
 public:
  Pool(int workers, std::size_t stack_bytes)
      : nworkers_(workers), stack_bytes_(stack_bytes) {}

  void run(int n, const std::function<void(int)>& body,
           const std::function<const double*(int)>& clock_of) {
    if (n <= 0) return;
    body_ = &body;
    live_ = n;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (int r = 0; r < n; ++r) {
        ready_.push_back(make_fiber(r, clock_of ? clock_of(r) : nullptr));
      }
    }
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(nworkers_));
    for (int w = 0; w < nworkers_; ++w) {
      workers.emplace_back([this] { worker_loop(); });
    }
    for (auto& t : workers) t.join();
  }

  void push_ready(Fiber* f) {
    std::lock_guard<std::mutex> lk(mu_);
    ready_.push_back(f);
    cv_.notify_one();
  }

  void run_body(Fiber* f) { (*body_)(f->rank); }

  /// Switch from the current fiber back to its worker. Called with no locks
  /// held; the worker completes the park handshake (or observes `finished`).
  void yield_current(Fiber* f) {
#ifdef CA_TSAN_FIBERS
    __tsan_switch_to_fiber(f->tsan_worker, 0);
#endif
#ifdef CA_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&f->asan_fake, f->from_lo, f->from_size);
#endif
    swapcontext(&f->ctx, f->return_ctx);
    // Resumed — possibly on a different worker thread (resume() re-pointed
    // return_ctx / tsan_worker before switching us back in).
#ifdef CA_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(f->asan_fake, &f->from_lo, &f->from_size);
#endif
  }

 private:
  Fiber* make_fiber(int rank, const double* clock) {
    const std::size_t page = page_size();
    const std::size_t usable = (stack_bytes_ + page - 1) / page * page;
    const std::size_t total = usable + page;  // +1 guard page, kept PROT_NONE
    void* base = mmap(nullptr, total, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      throw std::runtime_error("TaskScheduler: fiber stack mmap failed");
    }
    if (mprotect(static_cast<char*>(base) + page, usable,
                 PROT_READ | PROT_WRITE) != 0) {
      munmap(base, total);
      throw std::runtime_error("TaskScheduler: fiber stack mprotect failed");
    }
    auto* f = new Fiber;
    f->pool = this;
    f->rank = rank;
    f->clock = clock;
    f->map_base = base;
    f->map_bytes = total;
    f->usable = usable;
#ifdef CA_TSAN_FIBERS
    f->tsan_fiber = __tsan_create_fiber(0);
#endif
    getcontext(&f->ctx);
    f->ctx.uc_stack.ss_sp = static_cast<char*>(base) + page;
    f->ctx.uc_stack.ss_size = usable;
    f->ctx.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(f);
    makecontext(&f->ctx, reinterpret_cast<void (*)()>(&fiber_trampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
    return f;
  }

  void destroy_fiber(Fiber* f) {
#ifdef CA_TSAN_FIBERS
    __tsan_destroy_fiber(f->tsan_fiber);
#endif
    munmap(f->map_base, f->map_bytes);
    delete f;
  }

  Fiber* pop_ready() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return done_ || !ready_.empty(); });
    if (ready_.empty()) return nullptr;  // done_: every fiber finished
    Fiber* f = ready_.front();
    ready_.pop_front();
    return f;
  }

  /// Switch into `f` on this worker thread and come back when it parks or
  /// finishes. The ThreadClock binding travels with the fiber (task-local):
  /// bound here on the way in, cleared on the way out, so traces and memory
  /// attribution survive migration across workers.
  void resume(Fiber* f) {
    ucontext_t worker_ctx;
    f->return_ctx = &worker_ctx;
    f->state.store(kRunning, std::memory_order_relaxed);
    tls_fiber() = f;
    obs::ThreadClock::bind(f->clock);
#ifdef CA_TSAN_FIBERS
    f->tsan_worker = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(f->tsan_fiber, 0);
#endif
#ifdef CA_ASAN_FIBERS
    void* worker_fake = nullptr;
    __sanitizer_start_switch_fiber(
        &worker_fake, static_cast<char*>(f->map_base) + page_size(),
        f->usable);
#endif
    swapcontext(&worker_ctx, &f->ctx);
#ifdef CA_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(worker_fake, nullptr, nullptr);
#endif
    obs::ThreadClock::bind(nullptr);
    tls_fiber() = nullptr;
  }

  void worker_loop() {
    while (Fiber* f = pop_ready()) {
      resume(f);
      if (f->finished) {
        destroy_fiber(f);
        std::lock_guard<std::mutex> lk(mu_);
        if (--live_ == 0) {
          done_ = true;
          cv_.notify_all();
        }
      } else {
        // Complete the park handshake: the fiber enqueued itself on a wait
        // queue before switching out. If a waker already flipped it to
        // kReady, the wake happened mid-switch and re-queueing is our job.
        int expected = kRunning;
        if (!f->state.compare_exchange_strong(expected, kParked)) {
          push_ready(f);
        }
      }
    }
  }

  int nworkers_;
  std::size_t stack_bytes_;
  const std::function<void(int)>* body_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Fiber*> ready_;
  int live_ = 0;
  bool done_ = false;
};

namespace {

void fiber_trampoline(unsigned hi, unsigned lo) {
  auto* f = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                     static_cast<std::uintptr_t>(lo));
#ifdef CA_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &f->from_lo, &f->from_size);
#endif
  f->pool->run_body(f);
  f->finished = true;
#ifdef CA_TSAN_FIBERS
  __tsan_switch_to_fiber(f->tsan_worker, 0);
#endif
#ifdef CA_ASAN_FIBERS
  // nullptr slot: this fiber is dying, release its fake stack.
  __sanitizer_start_switch_fiber(nullptr, f->from_lo, f->from_size);
#endif
  swapcontext(&f->ctx, f->return_ctx);  // never returns
}

#if defined(CA_ASAN_FIBERS) || defined(CA_TSAN_FIBERS)
constexpr std::size_t kDefaultStackBytes = 8u << 20;  // sanitizer redzones
#else
constexpr std::size_t kDefaultStackBytes = 1u << 20;
#endif
constexpr std::size_t kMinStackBytes = 64u << 10;

}  // namespace

}  // namespace detail

std::optional<SimBackend> parse_backend(const std::string& name) {
  if (name == "threads") return SimBackend::kThreads;
  if (name == "tasks") return SimBackend::kTasks;
  return std::nullopt;
}

const char* backend_name(SimBackend b) {
  return b == SimBackend::kTasks ? "tasks" : "threads";
}

void TaskScheduler::run(int n, const std::function<void(int)>& body,
                        const std::function<const double*(int)>& clock_of,
                        const Options& opts) {
  if (n <= 0) return;
  const int workers = worker_count(opts.workers, n);
  std::size_t stack =
      opts.stack_bytes > 0 ? opts.stack_bytes : detail::kDefaultStackBytes;
  if (stack < detail::kMinStackBytes) stack = detail::kMinStackBytes;
  detail::Pool pool(workers, stack);
  pool.run(n, body, clock_of);
}

int TaskScheduler::worker_count(int requested, int n) {
  int workers = requested;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::clamp(workers, 1, std::max(1, n));
}

bool TaskScheduler::on_fiber() { return detail::tls_fiber() != nullptr; }

void TaskScheduler::suspend(std::unique_lock<std::mutex>& lk,
                            TaskWaitQueue& q) {
  detail::Fiber* f = detail::tls_fiber();
  // Enqueue under the caller's mutex: a notifier must hold the same mutex to
  // change the predicate, so it cannot miss us once the state is observable.
  f->next = nullptr;
  if (q.tail_ != nullptr) {
    q.tail_->next = f;
  } else {
    q.head_ = f;
  }
  q.tail_ = f;
  lk.unlock();
  f->pool->yield_current(f);
  lk.lock();
}

void TaskScheduler::notify_queue(TaskWaitQueue& q) {
  detail::Fiber* f = q.head_;
  q.head_ = nullptr;
  q.tail_ = nullptr;
  while (f != nullptr) {
    detail::Fiber* next = f->next;
    f->next = nullptr;
    // kParked -> we own the re-queue. kRunning -> the fiber is still
    // switching out; its worker's CAS will fail and re-queue it instead.
    if (f->state.exchange(detail::kReady) == detail::kParked) {
      f->pool->push_ready(f);
    }
    f = next;
  }
}

}  // namespace ca::sim
