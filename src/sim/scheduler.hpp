#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

namespace ca::sim {

/// How Cluster::run executes the SPMD region (CA_SIM_BACKEND / `sim.backend`):
///   kThreads — one OS thread per rank. The correctness oracle: simple,
///              preemptive, but caps practical world size around 64.
///   kTasks   — every rank is a stackful fiber multiplexed on a fixed worker
///              pool; a rank runs to its next blocking point (rendezvous
///              arrival, p2p wait, abort-wait) and yields the worker instead
///              of parking an OS thread. Scales to 1024+ ranks.
/// Both backends produce bit-identical losses, simulated clocks, and trace
/// summaries (see DESIGN.md section 8).
enum class SimBackend { kThreads, kTasks };

/// Parse a knob value ("threads" / "tasks"); nullopt for anything else.
[[nodiscard]] std::optional<SimBackend> parse_backend(const std::string& name);
/// Lower-case wire name, the inverse of parse_backend.
[[nodiscard]] const char* backend_name(SimBackend b);

namespace detail {
struct Fiber;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Test-and-test-and-set lock for critical sections of a few pointer and
/// counter writes (the fiber ready queues, AbortableBarrier): far shorter
/// than the futex round trip a contended std::mutex costs.
class SpinLock {
 public:
  void lock() {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      int spins = 0;
      while (locked_.load(std::memory_order_relaxed)) {
        // The holder may have been preempted; stop burning its core.
        if (++spins % 64 == 0) {
          std::this_thread::yield();
        } else {
          cpu_relax();
        }
      }
    }
  }
  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

/// Intrusive list of fibers parked at one blocking point (a SimCv or an
/// AbortableBarrier). The embedding object's lock guards the queue; the
/// scheduler only touches it through TaskScheduler::suspend / park /
/// notify_queue, all called with that lock held. A park pushes at the head,
/// so it writes only the queue and the parking fiber, never another
/// waiter's cache line; every wake takes the whole list, so the order does
/// not matter. Moving a queue takes its fibers and leaves the source empty,
/// so a waker can detach the waiters under the lock and wake them after
/// releasing it.
class TaskWaitQueue {
 public:
  TaskWaitQueue() = default;
  TaskWaitQueue(const TaskWaitQueue&) = delete;
  TaskWaitQueue& operator=(const TaskWaitQueue&) = delete;
  TaskWaitQueue(TaskWaitQueue&& o) noexcept : head_(o.head_) {
    o.head_ = nullptr;
  }

  [[nodiscard]] bool empty() const { return head_ == nullptr; }

 private:
  friend class TaskScheduler;
  detail::Fiber* head_ = nullptr;
};

/// The run-to-blocking-point fiber scheduler behind SimBackend::kTasks.
/// `run` turns each rank into a stackful fiber (mmap'd stack with a guard
/// page at the low end, reused across runs) and drives all of them on a
/// pool of worker threads that outlives the run: idle pools are kept per
/// worker count and block between runs. Each worker has its own ready queue
/// and steals from the others when it runs dry; a fiber that blocks parks
/// itself on a TaskWaitQueue and the worker picks up the next ready fiber.
/// Wake-ups use a three-state handshake (running / parked / ready) so a
/// notifier racing the fiber's switch-out can never lose the wake or resume
/// a fiber whose stack is still live (see DESIGN.md section 8).
class TaskScheduler {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread, clamped to the world size.
    int workers = 0;
    /// Per-fiber stack bytes; 0 = default (1 MiB, more under sanitizers).
    std::size_t stack_bytes = 0;
  };

  /// Run body(r) for every rank r in [0, n) as fibers on the worker pool and
  /// return when all finished. `clock_of(r)` supplies the simulated clock the
  /// scheduler binds to obs::ThreadClock while rank r runs — the binding is
  /// task-local: it follows the fiber across workers, so shared-pool memory
  /// samples stay attributed to the allocating rank. `body` must not let
  /// exceptions escape (Cluster::run's wrapper catches them per rank).
  static void run(int n, const std::function<void(int)>& body,
                  const std::function<const double*(int)>& clock_of,
                  const Options& opts);

  /// Worker threads `run` starts for `n` ranks: `requested`, or one per
  /// hardware thread when it is <= 0, clamped to [1, n].
  [[nodiscard]] static int worker_count(int requested, int n);

  /// True when the calling code is executing on a scheduler fiber (and must
  /// therefore yield instead of blocking the OS thread).
  [[nodiscard]] static bool on_fiber();

  /// Park the current fiber on `q` and yield the worker. `lk` (the mutex
  /// guarding `q`) is held on entry, released while parked, and reacquired
  /// before returning — std::condition_variable::wait semantics. Spurious
  /// returns are possible; callers re-check their predicate.
  static void suspend(std::unique_lock<std::mutex>& lk, TaskWaitQueue& q);

  /// Park the current fiber on `q`, which `guard` (held on entry) protects,
  /// and yield the worker. `guard` is released once the fiber is on `q` and
  /// is NOT re-taken on return; the caller decides from state it can read
  /// without the lock whether it needs it again. Spurious returns are
  /// possible.
  static void park(SpinLock& guard, TaskWaitQueue& q);

  /// Move every fiber parked on `q` to a ready queue (notify_all): that of
  /// the worker running the caller, or the first worker's when the caller
  /// is a plain thread. The caller holds the lock guarding `q` (or owns a
  /// queue detached from it); safe from fibers and from plain threads alike.
  static void notify_queue(TaskWaitQueue& q);

  /// Worker threads started so far by every pool in this process. A run
  /// that reuses an idle pool starts none.
  [[nodiscard]] static std::int64_t threads_started();

 private:
  /// Push the current fiber onto `q`; the caller holds q's lock.
  static void enqueue_current(TaskWaitQueue& q);
};

/// Hybrid condition variable for code that must block correctly under both
/// backends: waits from scheduler fibers park the fiber on the embedded
/// TaskWaitQueue, waits from plain threads fall through to the
/// std::condition_variable. notify_all wakes both kinds of waiter and — like
/// every notify site in this codebase — must be called with the mutex passed
/// to wait() held, which is what makes the fiber park/wake handshake
/// race-free.
class SimCv {
 public:
  template <class Pred>
  void wait(std::unique_lock<std::mutex>& lk, Pred pred) {
    if (TaskScheduler::on_fiber()) {
      while (!pred()) TaskScheduler::suspend(lk, q_);
    } else {
      cv_.wait(lk, std::move(pred));
    }
  }

  void notify_all() {
    cv_.notify_all();
    if (!q_.empty()) TaskScheduler::notify_queue(q_);
  }

 private:
  std::condition_variable cv_;
  TaskWaitQueue q_;
};

}  // namespace ca::sim
