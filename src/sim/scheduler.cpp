#include "sim/scheduler.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

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

#ifdef CA_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#endif

namespace ca::sim {

namespace detail {

// ---- context switch ---------------------------------------------------------
//
// Two functions are all the scheduler needs from the target: make a context
// that enters entry(arg) on a fresh stack, and switch from one context to
// another. On x86-64 the switch is a few instructions of assembly that save
// what the SysV ABI says a call preserves (rbx, rbp, r12-r15, the MXCSR and
// the x87 control word) on the old stack and swap rsp: no signal-mask
// syscalls, unlike glibc's swapcontext. Other targets keep ucontext.

#if defined(__x86_64__)

struct Context {
  void* sp = nullptr;  // saved stack pointer; the registers sit above it
};

extern "C" void ca_fiber_switch(void** save_sp, void* load_sp);
extern "C" void ca_fiber_start();

// ca_fiber_switch pushes the callee-saved registers and the FP control state,
// stores rsp through save_sp, loads load_sp and pops the same frame there.
// ca_fiber_start is where a fresh context's first switch returns to: r12
// holds the entry function and r13 its argument (see context_make), and the
// entry never returns.
asm(R"(
  .text
  .globl ca_fiber_switch
  .hidden ca_fiber_switch
  .type ca_fiber_switch, @function
  .p2align 4
ca_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size ca_fiber_switch, .-ca_fiber_switch

  .globl ca_fiber_start
  .hidden ca_fiber_start
  .type ca_fiber_start, @function
  .p2align 4
ca_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r13, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size ca_fiber_start, .-ca_fiber_start
)");

/// The frame ca_fiber_switch pops, lowest address first.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad;
  void* r15;
  void* r14;
  void* r13;
  void* r12;
  void* rbx;
  void* rbp;
  void* ret;
};
static_assert(sizeof(SwitchFrame) == 64, "ca_fiber_switch pops 64 bytes");

namespace {

/// Set up `c` to run entry(arg) on [lo, lo + size) when first switched to.
/// The fiber starts with the FP control state of the thread that makes it.
void context_make(Context& c, void* lo, std::size_t size,
                  void (*entry)(void*), void* arg) {
  const auto top =
      (reinterpret_cast<std::uintptr_t>(lo) + size) & ~std::uintptr_t{15};
  // ret pops the last slot, leaving rsp 16-byte aligned at ca_fiber_start,
  // so its call enters `entry` with the alignment the ABI requires.
  auto* f = reinterpret_cast<SwitchFrame*>(top - sizeof(SwitchFrame));
  *f = SwitchFrame{};
  asm volatile("stmxcsr %0" : "=m"(f->mxcsr));
  asm volatile("fnstcw %0" : "=m"(f->x87_cw));
  f->r12 = reinterpret_cast<void*>(entry);
  f->r13 = arg;
  f->ret = reinterpret_cast<void*>(&ca_fiber_start);
  c.sp = f;
}

inline void context_switch(Context& from, Context& to) {
  ca_fiber_switch(&from.sp, to.sp);
}

}  // namespace

#else  // !__x86_64__

struct Context {
  ucontext_t uc{};
  void (*entry)(void*) = nullptr;
  void* arg = nullptr;
};

namespace {

void context_entry(unsigned hi, unsigned lo) {
  auto* c = reinterpret_cast<Context*>((static_cast<std::uintptr_t>(hi) << 32) |
                                       static_cast<std::uintptr_t>(lo));
  c->entry(c->arg);
}

void context_make(Context& c, void* lo, std::size_t size,
                  void (*entry)(void*), void* arg) {
  c.entry = entry;
  c.arg = arg;
  getcontext(&c.uc);
  c.uc.uc_stack.ss_sp = lo;
  c.uc.uc_stack.ss_size = size;
  c.uc.uc_link = nullptr;
  const auto p = reinterpret_cast<std::uintptr_t>(&c);
  makecontext(&c.uc, reinterpret_cast<void (*)()>(&context_entry), 2,
              static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffu));
}

inline void context_switch(Context& from, Context& to) {
  swapcontext(&from.uc, &to.uc);
}

}  // namespace

#endif

// ---- fibers -----------------------------------------------------------------

class Pool;

/// Wake handshake states. A parked fiber is resumed exactly once no matter
/// how the notifier interleaves with the fiber's own switch-out:
///   kRunning -> worker CAS -> kParked        (normal park, after switch-out)
///   kRunning -> waker exchange -> kReady     (wake raced the switch-out:
///                                             the worker's CAS fails and THE
///                                             WORKER re-queues the fiber)
///   kParked  -> waker exchange -> kReady     (late wake: the waker queues it)
enum FiberState : int { kRunning = 0, kParked = 1, kReady = 2 };

/// Cache-line size. Fibers live in one array per run and their `state` is
/// written by whichever worker resumes or wakes them, so each fiber gets its
/// own line; so does each worker's ready queue and each group of pool
/// fields. Without it, which fields share a line depends on where the
/// allocator and the stack put them, and step time changes from one process
/// to the next.
constexpr std::size_t kCacheLine = 64;

struct alignas(kCacheLine) Fiber {
  Context ctx;
  Pool* pool = nullptr;
  int rank = -1;
  int worker = -1;                // index of the worker hosting it, if any
  const double* clock = nullptr;  // bound to obs::ThreadClock while running
  char* stack_lo = nullptr;       // lowest usable byte, above the guard page
  std::atomic<int> state{kReady};
  bool finished = false;
  Fiber* next = nullptr;        // TaskWaitQueue link
  Fiber* ready_next = nullptr;  // ready-queue link
  Context* return_ctx = nullptr;  // resuming worker's context
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

void fiber_entry(void* arg);

/// Pause iterations an idle worker polls the ready queues before it sleeps:
/// tens of microseconds on current x86 cores, longer than the gap between a
/// park and the wake the next rendezvous arrival delivers, shorter than a
/// scheduler tick.
constexpr int kIdleSpins = 2000;

std::atomic<std::int64_t> g_threads_started{0};

/// Process-wide free list of fiber stacks, keyed by usable size. A stack is
/// one mapping: a PROT_NONE guard page at the low end, then `usable`
/// read-write bytes. Runs hand their stacks back instead of unmapping them,
/// so the next run skips mmap/mprotect/munmap and the first-touch faults.
/// The list only grows when a run needs more stacks than it holds, so it
/// never holds more than were live at once.
class StackCache {
 public:
  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    for (auto& [usable, los] : free_) {
      for (char* lo : los) unmap(lo, usable);
    }
  }

  static StackCache& instance() {
    static StackCache cache;
    return cache;
  }

  /// `n` stacks of `usable` bytes each, lowest usable byte first.
  std::vector<char*> acquire(std::size_t usable, int n) {
    std::vector<char*> out;
    out.reserve(static_cast<std::size_t>(n));
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto& list = free_[usable];
      while (!list.empty() && static_cast<int>(out.size()) < n) {
        out.push_back(list.back());
        list.pop_back();
      }
    }
#ifdef CA_ASAN_FIBERS
    // A finished fiber's last frames never returned, so their redzones are
    // still poisoned in the shadow.
    for (char* lo : out) ASAN_UNPOISON_MEMORY_REGION(lo, usable);
#endif
    while (static_cast<int>(out.size()) < n) {
      char* lo = map(usable);
      if (lo == nullptr) {
        release(usable, out);
        throw std::runtime_error("TaskScheduler: fiber stack mmap failed");
      }
      out.push_back(lo);
    }
    return out;
  }

  void release(std::size_t usable, const std::vector<char*>& los) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& list = free_[usable];
    list.insert(list.end(), los.begin(), los.end());
  }

 private:
  static char* map(std::size_t usable) {
    const std::size_t page = page_size();
    void* base = mmap(nullptr, usable + page, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) return nullptr;
    char* lo = static_cast<char*>(base) + page;
    if (mprotect(lo, usable, PROT_READ | PROT_WRITE) != 0) {
      munmap(base, usable + page);
      return nullptr;
    }
    return lo;
  }

  static void unmap(char* lo, std::size_t usable) {
    munmap(lo - page_size(), usable + page_size());
  }

  std::mutex mu_;
  std::map<std::size_t, std::vector<char*>> free_;  // guarded by mu_
};

}  // namespace

/// One worker's ready FIFO, intrusive through Fiber::ready_next, on its own
/// cache line. `size` is written under the lock and polled without it.
struct alignas(kCacheLine) ReadyQueue {
  SpinLock lock;
  Fiber* head = nullptr;  // guarded by lock
  Fiber* tail = nullptr;
  std::atomic<int> size{0};
};

/// A fixed set of worker threads, one ready queue each, that hosts one
/// TaskScheduler::run at a time and outlives it. Between runs the workers
/// block on `start_cv_`; a run deals its fibers to the queues, bumps
/// `epoch_` and sleeps until every worker has left the run. Static entry
/// points reach the pool through the current fiber's back-pointer.
///
/// Within a run a worker pops its own queue first, then steals the front
/// half of the first non-empty queue in the fixed order w+1, w+2, ... (mod
/// workers). A wake goes to the queue of the worker that delivered it. Idle workers poll the queue sizes
/// for kIdleSpins pauses and only then sleep on `sleep_cv_`, counted in
/// `asleep_`. Lost-wakeup freedom is a Dekker pair on sequentially
/// consistent atomics: a pusher adds to a queue's `size` and then reads
/// `asleep_`; a sleeper increments `asleep_` and then reads every `size`
/// under `sleep_mu_`. In the single total order one of them sees the
/// other's write: either the pusher sees the sleeper and notifies under
/// `sleep_mu_` (so the notify cannot fall between the sleeper's check and
/// its wait), or the sleeper sees the work and does not sleep.
class Pool {
 public:
  explicit Pool(int workers)
      : nworkers_(workers),
        queues_(std::make_unique<ReadyQueue[]>(
            static_cast<std::size_t>(workers))) {
    threads_.reserve(static_cast<std::size_t>(workers));
    try {
      for (int w = 0; w < workers; ++w) {
        threads_.emplace_back([this, w] { worker_main(w); });
        g_threads_started.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Pool() { stop(); }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] int workers() const { return nworkers_; }

  /// Run `n` >= workers() fibers with `usable`-byte stacks to completion.
  void run(int n, const std::function<void(int)>& body,
           const std::function<const double*(int)>& clock_of,
           std::size_t usable) {
    body_ = &body;
    usable_ = usable;
    auto& cache = StackCache::instance();
    const std::vector<char*> stacks = cache.acquire(usable_, n);
    auto fibers = std::make_unique<Fiber[]>(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      Fiber& f = fibers[static_cast<std::size_t>(r)];
      f.pool = this;
      f.rank = r;
      f.clock = clock_of ? clock_of(r) : nullptr;
      f.stack_lo = stacks[static_cast<std::size_t>(r)];
#ifdef CA_TSAN_FIBERS
      f.tsan_fiber = __tsan_create_fiber(0);
#endif
      context_make(f.ctx, f.stack_lo, usable_, &fiber_entry, &f);
    }
    // Deal the fibers to the workers in contiguous rank blocks.
    for (int w = 0; w < nworkers_; ++w) {
      const int lo = w * n / nworkers_;
      const int hi = (w + 1) * n / nworkers_;
      ReadyQueue& q = queues_[static_cast<std::size_t>(w)];
      for (int r = lo; r + 1 < hi; ++r) {
        fibers[static_cast<std::size_t>(r)].ready_next =
            &fibers[static_cast<std::size_t>(r) + 1];
      }
      q.head = lo < hi ? &fibers[static_cast<std::size_t>(lo)] : nullptr;
      q.tail = lo < hi ? &fibers[static_cast<std::size_t>(hi) - 1] : nullptr;
      q.size.store(hi - lo, std::memory_order_relaxed);
    }
    live_.store(n, std::memory_order_relaxed);
    done_.store(false, std::memory_order_relaxed);
    // ctl_mu_ publishes the set-up above to the workers, and their last
    // touches of the run back to this thread.
    {
      std::lock_guard<std::mutex> lk(ctl_mu_);
      ++epoch_;
      active_ = nworkers_;
    }
    start_cv_.notify_all();
    {
      std::unique_lock<std::mutex> lk(ctl_mu_);
      idle_cv_.wait(lk, [&] { return active_ == 0; });
    }
#ifdef CA_TSAN_FIBERS
    for (int r = 0; r < n; ++r) {
      __tsan_destroy_fiber(fibers[static_cast<std::size_t>(r)].tsan_fiber);
    }
#endif
    cache.release(usable_, stacks);
  }

  /// Append the chain first..last (`count` fibers linked by ready_next) to
  /// worker `w`'s queue in one critical section, then wake at most as many
  /// sleeping workers as fibers were pushed.
  void push_ready(int w, Fiber* first, Fiber* last, int count) {
    last->ready_next = nullptr;
    ReadyQueue& q = queues_[static_cast<std::size_t>(w)];
    {
      std::lock_guard<SpinLock> lk(q.lock);
      if (q.tail != nullptr) {
        q.tail->ready_next = first;
      } else {
        q.head = first;
      }
      q.tail = last;
      q.size.fetch_add(count);
    }
    const int sleeping = asleep_.load();
    if (sleeping > 0) {
      std::lock_guard<std::mutex> lk(sleep_mu_);
      for (int i = std::min(count, sleeping); i > 0; --i) {
        sleep_cv_.notify_one();
      }
    }
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
    context_switch(f->ctx, *f->return_ctx);
    // Resumed — possibly on a different worker thread (resume() re-pointed
    // return_ctx / tsan_worker before switching us back in).
#ifdef CA_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(f->asan_fake, &f->from_lo, &f->from_size);
#endif
  }

 private:
  /// Pop the head of worker `w`'s queue. When it is empty, steal the front
  /// half of the first non-empty queue after it: run its head, and move the
  /// rest to `w`'s queue, so one steal feeds this worker for several parks.
  Fiber* try_pop(int w) {
    ReadyQueue& own = queues_[static_cast<std::size_t>(w)];
    if (own.size.load(std::memory_order_relaxed) > 0) {
      std::lock_guard<SpinLock> lk(own.lock);
      if (Fiber* f = own.head) {
        own.head = f->ready_next;
        if (own.head == nullptr) own.tail = nullptr;
        own.size.fetch_sub(1, std::memory_order_relaxed);
        return f;
      }
    }
    for (int k = 1; k < nworkers_; ++k) {
      ReadyQueue& q = queues_[static_cast<std::size_t>((w + k) % nworkers_)];
      if (q.size.load(std::memory_order_relaxed) == 0) continue;
      Fiber* first = nullptr;
      Fiber* last = nullptr;
      int take = 0;
      {
        std::lock_guard<SpinLock> lk(q.lock);
        const int size = q.size.load(std::memory_order_relaxed);
        if (size == 0) continue;
        take = (size + 1) / 2;
        first = q.head;
        last = first;
        for (int i = 1; i < take; ++i) last = last->ready_next;
        q.head = last->ready_next;
        if (q.head == nullptr) q.tail = nullptr;
        q.size.fetch_sub(take, std::memory_order_relaxed);
      }
      if (take > 1) push_ready(w, first->ready_next, last, take - 1);
      return first;
    }
    return nullptr;
  }

  bool any_ready() const {
    for (int v = 0; v < nworkers_; ++v) {
      if (queues_[static_cast<std::size_t>(v)].size.load() > 0) return true;
    }
    return false;
  }

  /// The next ready fiber for worker `w`, or nullptr once every fiber of
  /// the run has finished. Polls for kIdleSpins pauses, then sleeps.
  Fiber* pop_ready(int w) {
    for (;;) {
      for (int i = 0; i < kIdleSpins; ++i) {
        if (Fiber* f = try_pop(w)) return f;
        if (done_.load(std::memory_order_acquire)) return nullptr;
        cpu_relax();
      }
      asleep_.fetch_add(1);
      {
        std::unique_lock<std::mutex> lk(sleep_mu_);
        sleep_cv_.wait(lk, [&] { return any_ready() || done_.load(); });
      }
      asleep_.fetch_sub(1);
    }
  }

  /// Switch into `f` on worker `w` and come back when it parks or
  /// finishes. The ThreadClock binding travels with the fiber (task-local):
  /// bound here on the way in, cleared on the way out, so traces and memory
  /// attribution survive migration across workers.
  void resume(int w, Fiber* f) {
    Context worker_ctx;
    f->return_ctx = &worker_ctx;
    f->worker = w;
    f->state.store(kRunning, std::memory_order_relaxed);
    tls_fiber() = f;
    obs::ThreadClock::bind(f->clock);
#ifdef CA_TSAN_FIBERS
    f->tsan_worker = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(f->tsan_fiber, 0);
#endif
#ifdef CA_ASAN_FIBERS
    void* worker_fake = nullptr;
    __sanitizer_start_switch_fiber(&worker_fake, f->stack_lo, usable_);
#endif
    context_switch(worker_ctx, f->ctx);
#ifdef CA_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(worker_fake, nullptr, nullptr);
#endif
    obs::ThreadClock::bind(nullptr);
    tls_fiber() = nullptr;
  }

  /// Worker `w`'s share of one run: resume ready fibers until all finished.
  void work(int w) {
    while (Fiber* f = pop_ready(w)) {
      resume(w, f);
      if (f->finished) {
        if (live_.fetch_sub(1) == 1) {
          {
            std::lock_guard<std::mutex> lk(sleep_mu_);
            done_.store(true);
          }
          sleep_cv_.notify_all();
        }
      } else {
        // Complete the park handshake: the fiber enqueued itself on a wait
        // queue before switching out. If a waker already flipped it to
        // kReady, the wake happened mid-switch and re-queueing is our job.
        int expected = kRunning;
        if (!f->state.compare_exchange_strong(expected, kParked)) {
          push_ready(w, f, f, 1);
        }
      }
    }
  }

  /// Stop and join every started worker; the pool must be idle.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(ctl_mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Worker thread body: block until a run starts (or the pool stops),
  /// work it, report back, repeat.
  void worker_main(int w) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(ctl_mu_);
        start_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
      }
      work(w);
      std::lock_guard<std::mutex> lk(ctl_mu_);
      if (--active_ == 0) idle_cv_.notify_one();
    }
  }

  const int nworkers_;
  std::unique_ptr<ReadyQueue[]> queues_;

  // The current run; written by run() before it starts the workers.
  const std::function<void(int)>* body_ = nullptr;
  std::size_t usable_ = 0;

  alignas(kCacheLine) std::atomic<int> live_{0};  // fibers not yet finished
  std::atomic<int> asleep_{0};  // workers inside the sleep path
  std::atomic<bool> done_{false};

  alignas(kCacheLine) std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;

  // Run hand-off between run() and the workers, guarded by ctl_mu_.
  alignas(kCacheLine) std::mutex ctl_mu_;
  std::condition_variable start_cv_;  // a run started, or stop_
  std::condition_variable idle_cv_;   // active_ reached 0
  std::uint64_t epoch_ = 0;           // runs started
  int active_ = 0;                    // workers still inside this run
  bool stop_ = false;

  std::vector<std::thread> threads_;  // last: the workers use every field
};

namespace {

/// Idle pools, reused by the next run that asks for the same number of
/// workers. A run takes its pool out of the list for its duration, so
/// concurrent or nested runs each get their own. Destroyed at exit, which
/// stops and joins every idle worker.
class PoolCache {
 public:
  static PoolCache& instance() {
    static PoolCache cache;
    return cache;
  }

  std::unique_ptr<Pool> acquire(int workers) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (pid_ != getpid()) {
        // A forked child inherits the list but not the threads behind it;
        // keep the dead pools reachable and never touch them again.
        for (auto& p : idle_) orphans_.push_back(p.release());
        idle_.clear();
        pid_ = getpid();
      }
      for (auto it = idle_.begin(); it != idle_.end(); ++it) {
        if ((*it)->workers() == workers) {
          std::unique_ptr<Pool> p = std::move(*it);
          idle_.erase(it);
          return p;
        }
      }
    }
    return std::make_unique<Pool>(workers);
  }

  void release(std::unique_ptr<Pool> p) {
    std::lock_guard<std::mutex> lk(mu_);
    idle_.push_back(std::move(p));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Pool>> idle_;  // guarded by mu_
  std::vector<Pool*> orphans_;
  pid_t pid_ = getpid();
};

void fiber_entry(void* arg) {
  auto* f = static_cast<Fiber*>(arg);
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
  context_switch(f->ctx, *f->return_ctx);  // never returns
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
  stack = std::max(stack, detail::kMinStackBytes);
  const std::size_t page = detail::page_size();
  stack = (stack + page - 1) / page * page;
  auto& pools = detail::PoolCache::instance();
  std::unique_ptr<detail::Pool> pool = pools.acquire(workers);
  pool->run(n, body, clock_of, stack);
  pools.release(std::move(pool));
}

int TaskScheduler::worker_count(int requested, int n) {
  int workers = requested;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::clamp(workers, 1, std::max(1, n));
}

std::int64_t TaskScheduler::threads_started() {
  return detail::g_threads_started.load(std::memory_order_relaxed);
}

bool TaskScheduler::on_fiber() { return detail::tls_fiber() != nullptr; }

void TaskScheduler::enqueue_current(TaskWaitQueue& q) {
  detail::Fiber* f = detail::tls_fiber();
  f->next = q.head_;
  q.head_ = f;
}

void TaskScheduler::suspend(std::unique_lock<std::mutex>& lk,
                            TaskWaitQueue& q) {
  // Enqueue under the caller's mutex: a notifier must hold the same mutex to
  // change the predicate, so it cannot miss us once the state is observable.
  enqueue_current(q);
  lk.unlock();
  detail::Fiber* f = detail::tls_fiber();
  f->pool->yield_current(f);
  lk.lock();
}

void TaskScheduler::park(SpinLock& guard, TaskWaitQueue& q) {
  enqueue_current(q);
  guard.unlock();
  detail::Fiber* f = detail::tls_fiber();
  f->pool->yield_current(f);
}

void TaskScheduler::notify_queue(TaskWaitQueue& q) {
  detail::Fiber* f = q.head_;
  q.head_ = nullptr;
  // Chain the fibers this call must re-queue and push them in one batch. A
  // wait queue belongs to one cluster, whose runs never overlap, so all its
  // fibers share one pool.
  detail::Fiber* first = nullptr;
  detail::Fiber* last = nullptr;
  int count = 0;
  while (f != nullptr) {
    detail::Fiber* next = f->next;
    f->next = nullptr;
    // kParked -> we own the re-queue. kRunning -> the fiber is still
    // switching out; its worker's CAS will fail and re-queue it instead.
    if (f->state.exchange(detail::kReady) == detail::kParked) {
      if (first == nullptr) {
        first = f;
      } else {
        last->ready_next = f;
      }
      last = f;
      ++count;
    }
    f = next;
  }
  if (first == nullptr) return;
  // Onto the waker's own queue when it is a worker of the same pool: the
  // woken fibers are likely to touch what the waker just wrote.
  detail::Fiber* self = detail::tls_fiber();
  const int w =
      self != nullptr && self->pool == first->pool ? self->worker : 0;
  first->pool->push_ready(w, first, last, count);
}

}  // namespace ca::sim
