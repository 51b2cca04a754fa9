// Backend A/B matrix for the fiber scheduler (DESIGN.md section 8): the
// tasks backend must be observationally identical to the thread-per-rank
// oracle — bit-identical losses, simulated clocks, interconnect bytes, and
// trace summaries — across world sizes, worker counts, and fault scenarios,
// plus a 1024-rank smoke test with a wall-time ceiling, a park/wake stress
// over overlapping groups, a fail-stop and a foreign-thread abort against
// parked fibers, worker reuse across runs, the fiber context itself (FP
// control state, recycled stacks, the guard page), the knob-parsing surface
// (CA_SIM_BACKEND / CA_SIM_WORKERS / sim.backend / sim.workers), and the CPU
// thread budget Cluster::run hands each rank (ThreadBudget.*).

#include <gtest/gtest.h>
#include <omp.h>

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "env_guard.hpp"
#include "collective/backend.hpp"
#include "collective/p2p.hpp"
#include "core/launch.hpp"
#include "obs/report.hpp"
#include "sim/cluster.hpp"
#include "sim/scheduler.hpp"
#include "tensor/parallel.hpp"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace col = ca::collective;
namespace core = ca::core;
namespace obs = ca::obs;
namespace sim = ca::sim;

namespace {

/// Everything one run observes; compared bitwise between backends.
struct RunResult {
  std::vector<float> losses;        // one per rank
  std::vector<double> clocks;       // per-device simulated clock after run
  std::vector<std::int64_t> bytes;  // per-device interconnect bytes
  obs::TraceReport report;
};

/// A mixed workload touching every blocking point the scheduler converts:
/// blocking collectives (rendezvous barriers), deferred async ops waited
/// out of order, and both p2p flavours (async ring + a sync send/recv pair).
RunResult run_workload(int world, sim::SimBackend backend, int workers) {
  sim::Cluster cluster(sim::Topology::uniform(world, 100e9));
  cluster.set_backend(backend);
  cluster.set_workers(workers);
  cluster.enable_tracing();
  col::Backend be(cluster);
  auto& g = be.world();

  std::vector<std::unique_ptr<col::P2pChannel>> ring;
  for (int r = 0; r < world; ++r) {
    ring.push_back(
        std::make_unique<col::P2pChannel>(cluster, r, (r + 1) % world));
  }

  RunResult res;
  res.losses.assign(static_cast<std::size_t>(world), 0.0f);
  cluster.run([&](int r) {
    const auto n = static_cast<std::size_t>(2048);
    std::vector<float> buf(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = std::sin(0.37f * static_cast<float>(i + 1)) *
               (1.0f + 0.13f * static_cast<float>(r));
    }
    g.all_reduce(r, buf, 1.0f / static_cast<float>(world));

    // Deferred async ops waited out of issue order (drain path).
    std::vector<float> a(512, 1.0f + static_cast<float>(r));
    std::vector<float> b(512, 2.0f);
    auto h1 = g.all_reduce_async(r, a);
    auto h2 = g.all_reduce_async(r, b);
    cluster.device(r).advance_clock(1e-4);
    h2.wait();
    h1.wait();

    // p2p ring: buffered send right, blocking recv left.
    std::vector<float> out(64, static_cast<float>(r));
    std::vector<float> in(64);
    ring[static_cast<std::size_t>(r)]->send_async(out);
    ring[static_cast<std::size_t>((r + world - 1) % world)]->recv(in);

    // And one synchronous (rendezvous) pair between ranks 0 and 1, the
    // do_send blocking path.
    if (r == 0) ring[0]->send(out);
    if (r == 1) ring[0]->recv(in);

    // reduce_scatter + all_gather round trip.
    std::vector<float> rs_in(static_cast<std::size_t>(world) * 128);
    for (std::size_t i = 0; i < rs_in.size(); ++i) {
      rs_in[i] = buf[i % n] + static_cast<float>(r) * 0.01f;
    }
    std::vector<float> rs_out(128);
    g.reduce_scatter(r, rs_in, rs_out);
    std::vector<float> ag_out(static_cast<std::size_t>(world) * 128);
    g.all_gather(r, rs_out, ag_out);

    float loss = 0.0f;
    for (float v : buf) loss += v;
    for (float v : a) loss += v * 0.5f;
    for (float v : in) loss += v * 0.25f;
    for (float v : ag_out) loss += v * 0.125f;
    res.losses[static_cast<std::size_t>(r)] = loss;
  });

  for (int r = 0; r < world; ++r) {
    res.clocks.push_back(cluster.device(r).clock());
    res.bytes.push_back(cluster.device(r).bytes_sent());
  }
  res.report = obs::summarize(*cluster.tracer());
  return res;
}

void expect_identical(const RunResult& oracle, const RunResult& probe,
                      const std::string& label) {
  ASSERT_EQ(oracle.losses.size(), probe.losses.size()) << label;
  for (std::size_t r = 0; r < oracle.losses.size(); ++r) {
    // Bitwise, not approximate: the scheduler must not change the fold order.
    EXPECT_EQ(std::memcmp(&oracle.losses[r], &probe.losses[r], sizeof(float)),
              0)
        << label << " loss differs on rank " << r;
    EXPECT_EQ(oracle.clocks[r], probe.clocks[r])
        << label << " clock differs on rank " << r;
    EXPECT_EQ(oracle.bytes[r], probe.bytes[r])
        << label << " bytes differ on rank " << r;
  }
  EXPECT_EQ(oracle.report.wall, probe.report.wall) << label;
  EXPECT_EQ(oracle.report.bubble_fraction, probe.report.bubble_fraction)
      << label;
  EXPECT_EQ(oracle.report.comm_overlap_fraction,
            probe.report.comm_overlap_fraction)
      << label;
  EXPECT_EQ(oracle.report.comm_bytes, probe.report.comm_bytes) << label;
  EXPECT_EQ(oracle.report.peak_mem, probe.report.peak_mem) << label;
  ASSERT_EQ(oracle.report.ranks.size(), probe.report.ranks.size()) << label;
  for (std::size_t r = 0; r < oracle.report.ranks.size(); ++r) {
    EXPECT_EQ(oracle.report.ranks[r].wall, probe.report.ranks[r].wall)
        << label << " rank " << r;
    EXPECT_EQ(oracle.report.ranks[r].busy, probe.report.ranks[r].busy)
        << label << " rank " << r;
    EXPECT_EQ(oracle.report.ranks[r].seconds, probe.report.ranks[r].seconds)
        << label << " rank " << r;
  }
}

}  // namespace

// ---- A/B matrix -------------------------------------------------------------

TEST(BackendAB, TasksMatchesThreadsBitwiseAcrossWorldsAndWorkers) {
  for (const int world : {4, 8, 16}) {
    const auto oracle = run_workload(world, sim::SimBackend::kThreads, 0);
    // Worker-count sweep: a single worker (pure cooperative interleaving),
    // a few, and auto must all produce the oracle's bits.
    for (const int workers : {1, 3, 0}) {
      const auto probe = run_workload(world, sim::SimBackend::kTasks, workers);
      expect_identical(oracle, probe,
                       "world " + std::to_string(world) + " workers " +
                           std::to_string(workers));
    }
  }
}

namespace {

/// Fail-stop scenario observations (shared by both backends).
struct FaultResult {
  int dead_rank = -1;
  std::vector<int> survivors_timed_out;
  std::vector<double> clocks;
};

FaultResult run_fail_stop(sim::SimBackend backend) {
  sim::Cluster cluster(sim::Topology::uniform(6, 100e9));
  cluster.set_backend(backend);
  sim::FaultPlan plan;
  plan.fail_stop_at(2, 0.35);
  plan.watchdog = 0.5;
  cluster.install_faults(plan);
  col::Backend be(cluster);
  auto& world = be.world();

  FaultResult res;
  std::array<bool, 6> timed_out{};
  try {
    cluster.run([&](int g) {
      std::vector<float> buf(256, 1.0f);
      for (;;) {
        cluster.device(g).advance_clock(0.2);
        try {
          world.all_reduce(g, buf);
        } catch (const sim::CommTimeoutError&) {
          timed_out[static_cast<std::size_t>(g)] = true;
          return;
        }
      }
    });
  } catch (const sim::DeviceFailure& e) {
    res.dead_rank = e.rank();
  }
  for (int g = 0; g < 6; ++g) {
    if (timed_out[static_cast<std::size_t>(g)]) {
      res.survivors_timed_out.push_back(g);
    }
    res.clocks.push_back(cluster.device(g).clock());
  }
  return res;
}

/// Transient-comm scenario: collectives inside the fault window back off and
/// retry; everything is symmetric, so both backends see the same delays.
RunResult run_transient(sim::SimBackend backend) {
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  cluster.set_backend(backend);
  sim::FaultPlan plan;
  plan.transient_comm(0.0, 0.4);  // retry_base 0.25: succeeds after backoff
  cluster.install_faults(plan);
  col::Backend be(cluster);
  auto& g = be.world();

  RunResult res;
  res.losses.assign(4, 0.0f);
  cluster.run([&](int r) {
    std::vector<float> buf(1024, 1.0f + static_cast<float>(r));
    for (int it = 0; it < 3; ++it) g.all_reduce(r, buf, 0.25f);
    float loss = 0.0f;
    for (float v : buf) loss += v;
    res.losses[static_cast<std::size_t>(r)] = loss;
  });
  for (int r = 0; r < 4; ++r) {
    res.clocks.push_back(cluster.device(r).clock());
    res.bytes.push_back(cluster.device(r).bytes_sent());
  }
  return res;
}

}  // namespace

TEST(BackendAB, FailStopFaultIdenticalAcrossBackends) {
  const auto oracle = run_fail_stop(sim::SimBackend::kThreads);
  const auto probe = run_fail_stop(sim::SimBackend::kTasks);
  ASSERT_EQ(oracle.dead_rank, 2);
  EXPECT_EQ(probe.dead_rank, oracle.dead_rank);
  EXPECT_EQ(probe.survivors_timed_out, oracle.survivors_timed_out);
  ASSERT_EQ(oracle.survivors_timed_out, (std::vector<int>{0, 1, 3, 4, 5}));
  for (std::size_t r = 0; r < oracle.clocks.size(); ++r) {
    EXPECT_EQ(oracle.clocks[r], probe.clocks[r]) << "rank " << r;
  }
}

TEST(BackendAB, TransientRetryFaultIdenticalAcrossBackends) {
  const auto oracle = run_transient(sim::SimBackend::kThreads);
  const auto probe = run_transient(sim::SimBackend::kTasks);
  for (std::size_t r = 0; r < oracle.losses.size(); ++r) {
    EXPECT_EQ(std::memcmp(&oracle.losses[r], &probe.losses[r], sizeof(float)),
              0)
        << "rank " << r;
    EXPECT_EQ(oracle.clocks[r], probe.clocks[r]) << "rank " << r;
    EXPECT_EQ(oracle.bytes[r], probe.bytes[r]) << "rank " << r;
  }
  // The transient window actually cost sim-time (the retries happened).
  EXPECT_GT(oracle.clocks[0], 0.25);
}

// ---- scale smoke ------------------------------------------------------------

TEST(BackendScale, Smoke1024RankAllReduceUnderWallCeiling) {
  // 1024 fiber ranks — 16x past where thread-per-rank stops being practical —
  // through a real data-moving all-reduce, against a generous wall ceiling
  // (the point is "completes in seconds, not minutes/never").
  constexpr int kWorld = 1024;
  sim::Cluster cluster(sim::Topology::uniform(kWorld, 100e9));
  cluster.set_backend(sim::SimBackend::kTasks);
  col::Backend be(cluster);
  auto& g = be.world();

  std::vector<float> sums(kWorld);
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run([&](int r) {
    std::vector<float> buf(256, 1.0f + static_cast<float>(r % 7));
    g.all_reduce(r, buf, 1.0f / kWorld);
    sums[static_cast<std::size_t>(r)] = buf[0];
  });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Every rank holds the same mean; sim clock advanced; wall under ceiling.
  for (int r = 1; r < kWorld; ++r) {
    ASSERT_EQ(sums[static_cast<std::size_t>(r)], sums[0]) << "rank " << r;
  }
  EXPECT_GT(cluster.max_clock(), 0.0);
  EXPECT_LT(wall, 30.0) << "1024-rank all-reduce took " << wall << " s";
}

// ---- park/wake stress -------------------------------------------------------

namespace {

/// Per-rank clocks and interconnect bytes after `iters` rounds of accounting
/// collectives over the row and column groups of an 8x8 grid (Table 3's 2D
/// pattern): every rank parks on two overlapping groups in alternation, so
/// wakes from row and column generations interleave on the ready queue.
RunResult run_grid_stress(sim::SimBackend backend, int workers, int iters) {
  constexpr int kSide = 8;
  sim::Cluster cluster(sim::Topology::system_iv(kSide * kSide));
  cluster.set_backend(backend);
  cluster.set_workers(workers);
  col::Backend be(cluster);
  std::vector<col::Group*> rows, cols;
  for (int i = 0; i < kSide; ++i) {
    std::vector<int> row, column;
    for (int j = 0; j < kSide; ++j) {
      row.push_back(i * kSide + j);
      column.push_back(j * kSide + i);
    }
    rows.push_back(&be.create_group(row, "row"));
    cols.push_back(&be.create_group(column, "col"));
  }
  cluster.run([&](int r) {
    col::Group& row = *rows[static_cast<std::size_t>(r / kSide)];
    col::Group& column = *cols[static_cast<std::size_t>(r % kSide)];
    for (int it = 0; it < iters; ++it) {
      // Uneven compute, so which rank arrives last changes every round.
      cluster.device(r).advance_clock(1e-6 * ((r * 7 + it) % 5 + 1));
      const std::int64_t bytes = std::int64_t{1024} << (it % 12);
      row.account_broadcast(r, bytes);
      column.account_reduce(r, bytes);
      row.account_all_reduce(r, bytes / 2);
      column.barrier(r);
    }
  });
  RunResult res;
  for (int r = 0; r < kSide * kSide; ++r) {
    res.clocks.push_back(cluster.device(r).clock());
    res.bytes.push_back(cluster.device(r).bytes_sent());
  }
  return res;
}

}  // namespace

TEST(BackendStress, GridRowColumnParksMatchThreadsBitwise) {
  // 250 rounds x 4 rendezvous: 1000 barrier generations on each of the 16
  // groups, every one parking and waking all eight members.
  constexpr int kIters = 250;
  const auto oracle = run_grid_stress(sim::SimBackend::kThreads, 0, kIters);
  for (const int workers : {1, 2, 4}) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto probe =
        run_grid_stress(sim::SimBackend::kTasks, workers, kIters);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (std::size_t r = 0; r < oracle.clocks.size(); ++r) {
      EXPECT_EQ(oracle.clocks[r], probe.clocks[r])
          << "workers " << workers << " rank " << r;
      EXPECT_EQ(oracle.bytes[r], probe.bytes[r])
          << "workers " << workers << " rank " << r;
    }
    EXPECT_LT(wall, 60.0) << "workers " << workers << " took " << wall << " s";
  }
}

// ---- fail-stop, pool reuse and foreign wakes ----------------------------------

TEST(BackendFault, FailStopWhilePeersParkInAGroupBarrier) {
  // Ranks 0-6 arrive at a group barrier and park; rank 7 waits until all of
  // them have arrived, then dies at its own arrival. Every survivor must
  // leave the barrier with CommTimeoutError, and Cluster::run must return
  // the death, at every worker count.
  constexpr int kWorld = 8;
  constexpr int kVictim = kWorld - 1;
  for (const int workers : {1, 2, 4}) {
    sim::Cluster cluster(sim::Topology::uniform(kWorld, 100e9));
    cluster.set_backend(sim::SimBackend::kTasks);
    cluster.set_workers(workers);
    sim::FaultPlan plan;
    plan.fail_stop_at(kVictim, 1.0);
    cluster.install_faults(plan);
    col::Backend be(cluster);
    std::vector<int> members(kWorld);
    std::iota(members.begin(), members.end(), 0);
    auto& g = be.create_group(members, "grid");
    std::atomic<int> arrived{0};
    std::array<std::atomic<bool>, kWorld> timed_out{};
    int dead = -1;
    try {
      cluster.run([&](int r) {
        if (r == kVictim) {
          // Any other worker can run the peers meanwhile; with one worker
          // they were all dealt ahead of this rank.
          while (arrived.load() < kWorld - 1) std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          cluster.device(r).advance_clock(2.0);
        } else {
          arrived.fetch_add(1);
        }
        try {
          g.barrier(r);
        } catch (const sim::CommTimeoutError&) {
          timed_out[static_cast<std::size_t>(r)] = true;
        }
      });
    } catch (const sim::DeviceFailure& e) {
      dead = e.rank();
    }
    EXPECT_EQ(dead, kVictim) << "workers " << workers;
    for (int r = 0; r < kVictim; ++r) {
      EXPECT_TRUE(timed_out[static_cast<std::size_t>(r)])
          << "workers " << workers << " rank " << r;
    }
  }
}

TEST(BackendPool, WorkerThreadsAreReusedAcrossRuns) {
  // One rank per worker, each holding its worker until all four run at
  // once, so every run observes exactly the pool's four threads.
  constexpr int kWorkers = 4;
  sim::Cluster cluster(sim::Topology::uniform(kWorkers, 100e9));
  cluster.set_backend(sim::SimBackend::kTasks);
  cluster.set_workers(kWorkers);
  const auto worker_ids = [&] {
    std::vector<std::thread::id> ids(kWorkers);
    std::atomic<int> running{0};
    cluster.run([&](int r) {
      ids[static_cast<std::size_t>(r)] = std::this_thread::get_id();
      running.fetch_add(1);
      while (running.load() < kWorkers) std::this_thread::yield();
    });
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto first = worker_ids();
  const std::int64_t started = sim::TaskScheduler::threads_started();
  const auto second = worker_ids();
  EXPECT_EQ(sim::TaskScheduler::threads_started(), started)
      << "the second run started worker threads";
  EXPECT_EQ(second, first);
  EXPECT_EQ(std::adjacent_find(first.begin(), first.end()), first.end())
      << "two ranks shared a worker while both were running";
  EXPECT_EQ(std::count(first.begin(), first.end(), std::this_thread::get_id()),
            0);
}

TEST(BackendFiber, AbortFromAPlainThreadResumesEveryParkedFiber) {
  // Ranks 0-6 park in a barrier that rank 7 never reaches; a thread outside
  // the pool aborts the region. Its wake must resume every parked fiber,
  // which then leaves through the watchdog.
  constexpr int kWorld = 8;
  for (const int workers : {1, 4}) {
    sim::Cluster cluster(sim::Topology::uniform(kWorld, 100e9));
    cluster.set_backend(sim::SimBackend::kTasks);
    cluster.set_workers(workers);
    col::Backend be(cluster);
    auto& g = be.world();
    std::atomic<int> arrived{0};
    std::array<std::atomic<bool>, kWorld> timed_out{};
    std::thread aborter([&] {
      while (arrived.load() < kWorld - 1) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      cluster.fault_state().abort(kWorld - 1, "aborted from outside", false);
    });
    cluster.run([&](int r) {
      if (r == kWorld - 1) return;
      arrived.fetch_add(1);
      try {
        g.barrier(r);
      } catch (const sim::CommTimeoutError&) {
        timed_out[static_cast<std::size_t>(r)] = true;
      }
    });
    aborter.join();
    for (int r = 0; r < kWorld - 1; ++r) {
      EXPECT_TRUE(timed_out[static_cast<std::size_t>(r)])
          << "workers " << workers << " rank " << r;
    }
  }
}

// ---- fiber context ----------------------------------------------------------

namespace {

#if defined(__x86_64__)
constexpr unsigned kMxcsrFtz = 0x8000;  // flush-to-zero
void set_ftz(bool on) {
  _mm_setcsr(on ? (_mm_getcsr() | kMxcsrFtz) : (_mm_getcsr() & ~kMxcsrFtz));
}
bool ftz_on() { return (_mm_getcsr() & kMxcsrFtz) != 0; }
#else
void set_ftz(bool) {}
bool ftz_on() { return false; }
#endif

/// The FP control state as the arithmetic sees it: the rounding mode
/// (1 + 1e-8 rounds up only under FE_UPWARD) and flush-to-zero (a denormal
/// product survives only without it).
struct FpState {
  int round = 0;
  bool rounds_up = false;
  bool ftz = false;
  bool flushes = false;
};

FpState observe_fp() {
  volatile float one = 1.0f, eps = 1e-8f, tiny = 1e-38f, half = 0.5f;
  FpState s;
  s.round = std::fegetround();
  s.rounds_up = one + eps > 1.0f;
  s.ftz = ftz_on();
  s.flushes = tiny * half == 0.0f;
  return s;
}

}  // namespace

TEST(BackendFiber, FpControlStateTravelsWithTheFiber) {
  const FpState defaults = observe_fp();
  ASSERT_EQ(defaults.round, FE_TONEAREST);
  ASSERT_FALSE(defaults.rounds_up);
  ASSERT_FALSE(defaults.ftz);
#if defined(__x86_64__)
  ASSERT_FALSE(defaults.flushes);
#endif
  constexpr int kWorld = 8;
  for (const int workers : {1, 4}) {
    sim::Cluster cluster(sim::Topology::uniform(kWorld, 100e9));
    cluster.set_backend(sim::SimBackend::kTasks);
    cluster.set_workers(workers);
    col::Backend be(cluster);
    auto& g = be.world();
    std::vector<std::vector<FpState>> seen(kWorld);
    cluster.run([&](int r) {
      // Rank 0 changes its FP control state, then every rank parks and
      // resumes (with 4 workers, possibly elsewhere) several times.
      if (r == 0) {
        std::fesetround(FE_UPWARD);
        set_ftz(true);
      }
      for (int round = 0; round < 4; ++round) {
        g.barrier(r);
        seen[static_cast<std::size_t>(r)].push_back(observe_fp());
      }
    });
    for (int r = 0; r < kWorld; ++r) {
      for (const FpState& s : seen[static_cast<std::size_t>(r)]) {
        const std::string where =
            "workers " + std::to_string(workers) + " rank " + std::to_string(r);
        if (r == 0) {
          EXPECT_EQ(s.round, FE_UPWARD) << where;
          EXPECT_TRUE(s.rounds_up) << where;
#if defined(__x86_64__)
          EXPECT_TRUE(s.ftz) << where;
          EXPECT_TRUE(s.flushes) << where;
#endif
        } else {
          EXPECT_EQ(s.round, defaults.round) << where;
          EXPECT_EQ(s.rounds_up, defaults.rounds_up) << where;
          EXPECT_EQ(s.ftz, defaults.ftz) << where;
          EXPECT_EQ(s.flushes, defaults.flushes) << where;
        }
      }
    }
    // The calling thread never ran the fiber and keeps its own state.
    const FpState after = observe_fp();
    EXPECT_EQ(after.round, defaults.round);
    EXPECT_EQ(after.ftz, defaults.ftz);
  }
}

namespace {

/// Each rank's frame address inside one run: equal sets across two runs
/// mean the second run got the first run's stacks back.
std::vector<std::uintptr_t> rank_frames(sim::Cluster& cluster) {
  std::vector<std::uintptr_t> frames(
      static_cast<std::size_t>(cluster.world_size()));
  cluster.run([&](int r) {
    frames[static_cast<std::size_t>(r)] =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  });
  std::sort(frames.begin(), frames.end());
  return frames;
}

/// Recurses until the stack runs out; the depth bound only keeps the
/// compiler from proving the recursion infinite.
__attribute__((noinline)) int recurse(int depth) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  if (depth == std::numeric_limits<int>::max()) return 0;
  return recurse(depth + 1) + pad[0];
}

/// Killed by SIGSEGV natively; under a sanitizer, its SEGV report exits
/// non-zero instead.
bool died_of_overflow(int status) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return !(WIFEXITED(status) && WEXITSTATUS(status) == 0);
#else
  return testing::KilledBySignal(SIGSEGV)(status);
#endif
}

}  // namespace

TEST(BackendStack, StacksAreRecycledAcrossRuns) {
  sim::Cluster cluster(sim::Topology::uniform(16, 100e9));
  cluster.set_backend(sim::SimBackend::kTasks);
  cluster.set_workers(2);
  const auto first = rank_frames(cluster);
  EXPECT_EQ(rank_frames(cluster), first);
}

TEST(FiberGuard, OverflowDiesWithSigsegvOnFreshAndRecycledStacks) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EnvGuard be("CA_SIM_BACKEND", "tasks");
  EnvGuard kb("CA_SIM_STACK_KB", "64");
  EnvGuard wk("CA_SIM_WORKERS", "2");
  // Fresh stacks: the free list of 64 KiB stacks starts empty in the child.
  EXPECT_EXIT(
      {
        sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
        cluster.run([](int r) {
          if (r == 1) recurse(0);
        });
        std::exit(0);
      },
      died_of_overflow, "");
  // Recycled stacks: the second run must get the first run's stacks back
  // (exit 3 otherwise), and the guard page below each must still trap.
  EXPECT_EXIT(
      {
        sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
        const auto first = rank_frames(cluster);
        if (rank_frames(cluster) != first) std::exit(3);
        cluster.run([](int r) {
          if (r == 1) recurse(0);
        });
        std::exit(0);
      },
      died_of_overflow, "");
}

// ---- knobs ------------------------------------------------------------------

TEST(BackendKnobs, ParseAndName) {
  EXPECT_EQ(sim::parse_backend("threads"), sim::SimBackend::kThreads);
  EXPECT_EQ(sim::parse_backend("tasks"), sim::SimBackend::kTasks);
  EXPECT_EQ(sim::parse_backend("fibers"), std::nullopt);
  EXPECT_EQ(sim::parse_backend(""), std::nullopt);
  EXPECT_STREQ(sim::backend_name(sim::SimBackend::kThreads), "threads");
  EXPECT_STREQ(sim::backend_name(sim::SimBackend::kTasks), "tasks");
}

TEST(BackendKnobs, ClusterReadsEnvironment) {
  {
    EnvGuard be("CA_SIM_BACKEND", "tasks");
    EnvGuard wk("CA_SIM_WORKERS", "3");
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    EXPECT_EQ(cluster.backend(), sim::SimBackend::kTasks);
    EXPECT_EQ(cluster.workers(), 3);
  }
  {
    EnvGuard be("CA_SIM_BACKEND", nullptr);
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    EXPECT_EQ(cluster.backend(), sim::SimBackend::kThreads);  // the default
  }
  {
    EnvGuard be("CA_SIM_BACKEND", "green-threads");
    EXPECT_THROW(sim::Cluster cluster(sim::Topology::uniform(2, 100e9)),
                 std::invalid_argument);
  }
  {
    EnvGuard wk("CA_SIM_WORKERS", "lots");
    EXPECT_THROW(sim::Cluster cluster(sim::Topology::uniform(2, 100e9)),
                 std::invalid_argument);
  }
}

TEST(BackendKnobs, ConfigKeysParsedAndEnvWins) {
  {
    EnvGuard be("CA_SIM_BACKEND", nullptr);
    EnvGuard wk("CA_SIM_WORKERS", nullptr);
    auto world = core::launch("data=2 sim.backend=tasks sim.workers=2");
    EXPECT_EQ(world->cluster().backend(), sim::SimBackend::kTasks);
    EXPECT_EQ(world->cluster().workers(), 2);
    // And the tasks backend actually runs the SPMD region.
    std::vector<int> seen(2, 0);
    world->run([&](ca::tp::Env env) { seen[env.grank] = 1; });
    EXPECT_EQ(seen, (std::vector<int>{1, 1}));
  }
  {
    // Environment beats the config field.
    EnvGuard be("CA_SIM_BACKEND", "threads");
    auto world = core::launch("data=2 sim.backend=tasks");
    EXPECT_EQ(world->cluster().backend(), sim::SimBackend::kThreads);
  }
  EXPECT_THROW(core::launch("data=2 sim.backend=coroutines"),
               std::invalid_argument);
  EXPECT_THROW(core::launch("data=2 sim.workers=-1"), std::invalid_argument);
}

// ---- CPU thread budget ------------------------------------------------------

namespace {

/// OpenMP team size every rank sees inside cluster.run; fails unless all
/// ranks agree.
int rank_team(sim::Cluster& cluster) {
  std::vector<int> seen(static_cast<std::size_t>(cluster.world_size()), 0);
  cluster.run([&](int r) {
    seen[static_cast<std::size_t>(r)] = omp_get_max_threads();
  });
  for (const int t : seen) EXPECT_EQ(t, seen[0]);
  return seen[0];
}

/// The caps the budget tests run under: the process default and a fixed 8,
/// so the split is exercised on any machine.
std::vector<int> caps() { return {omp_get_max_threads(), 8}; }

}  // namespace

TEST(ThreadBudget, ThreadsBackendSplitsTheCapOverTheWorld) {
  const int saved = omp_get_max_threads();
  for (const int cap : caps()) {
    omp_set_num_threads(cap);
    for (const int world : {1, 2, 4, 64}) {
      sim::Cluster cluster(sim::Topology::uniform(world, 100e9));
      cluster.set_backend(sim::SimBackend::kThreads);
      EXPECT_EQ(rank_team(cluster), std::max(1, cap / world))
          << "cap " << cap << ", world " << world;
      EXPECT_EQ(omp_get_max_threads(), cap) << "the caller's team changed";
    }
  }
  omp_set_num_threads(saved);
}

TEST(ThreadBudget, TasksBackendSplitsTheCapOverTheWorkers) {
  const int saved = omp_get_max_threads();
  EnvGuard be("CA_SIM_BACKEND", "tasks");
  for (const int cap : caps()) {
    omp_set_num_threads(cap);
    for (const char* workers : {"1", "2"}) {
      EnvGuard wk("CA_SIM_WORKERS", workers);
      sim::Cluster cluster(sim::Topology::uniform(16, 100e9));
      ASSERT_EQ(cluster.backend(), sim::SimBackend::kTasks);
      EXPECT_EQ(rank_team(cluster), std::max(1, cap / std::atoi(workers)))
          << "cap " << cap << ", workers " << workers;
      EXPECT_EQ(omp_get_max_threads(), cap) << "the caller's team changed";
    }
  }
  omp_set_num_threads(saved);
}

TEST(ThreadBudget, ParallelForInsideAParallelRegionRunsOnOneThread) {
  const std::int64_t n = 1 << 20;
  std::atomic<int> calls{0}, whole{0}, same_team{0};
  int outer = 0;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    outer = omp_get_num_threads();
    const int me = omp_get_thread_num();
    ca::tensor::parallel_for(n, 1, [&](std::int64_t lo, std::int64_t hi) {
      ++calls;
      if (lo == 0 && hi == n) ++whole;
      if (omp_get_thread_num() == me && omp_get_num_threads() == outer) {
        ++same_team;
      }
    });
  }
  EXPECT_EQ(calls.load(), outer);
  EXPECT_EQ(whole.load(), outer);
  EXPECT_EQ(same_team.load(), outer);
}
