#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "autop/planner.hpp"
#include "core/context.hpp"
#include "sim/scheduler.hpp"

namespace ca::engine {

/// Knobs of the in-flight elastic continuation path (DESIGN.md section 13);
/// resolve() reads CA_ELASTIC / CA_ELASTIC_MIN_WORLD over a Config.
struct ElasticOptions {
  bool enabled = false;
  /// Fewest survivors worth continuing with; below this floor recovery gives
  /// up and the original failure propagates out of Cluster::run.
  int min_world = 1;
  /// Recovery rounds before giving up (each round can only shrink the world,
  /// so this also bounds total rebuild work).
  int max_recoveries = 4;

  // Model/cluster facts the default re-planner scores layouts with.
  std::int64_t rows = 0;    ///< batch * seq of the training step
  std::int64_t hidden = 0;  ///< layer width (the sharded dimension)
  int max_data = 1;         ///< cap on the data-parallel factor after shrink
  double flops_per_sec = 0.0;  ///< 0 = read from the cluster's GPU model
  double bandwidth = 0.0;      ///< 0 = the cluster's intra-node bandwidth

  /// Choose the layout for `survivors` ranks. The returned config's world
  /// must be <= survivors (ranks beyond it are dropped from the run) and
  /// must be a pure function of (survivors, previous) — every survivor calls
  /// through the single recovery leader, but determinism keeps rounds
  /// reproducible across backends and reruns. Defaults to
  /// autop::best_survivor_layout over a TP x DP grid.
  std::function<core::Config(int survivors, const core::Config& previous)>
      replan;

  [[nodiscard]] static ElasticOptions resolve(const core::Config& config);
};

/// The elastic continuation coordinator: survivors of a mid-run rank death
/// meet here (each after catching the CommTimeoutError the watchdog raised),
/// agree on the survivor set, and resume on a re-planned smaller world — all
/// inside the same Cluster::run, no process restart.
///
/// Protocol per recovery round (DESIGN.md section 13):
///   1. Every living member of the current epoch eventually throws — the
///      abort flag wakes all parked rendezvous — and calls recover().
///   2. Arrivals are counted against `members(epoch) \ dead_ranks`; the
///      FaultState keeps dead_ranks across rearm(), so consensus needs no
///      extra messaging: the round seals exactly when every survivor parked.
///   3. The sealing rank becomes the leader: it re-plans the layout for the
///      survivor count, re-arms the FaultState (clearing the abort so
///      collectives work again), and — alone, every peer parked — builds a
///      fresh ParallelContext over the first `world` survivors.
///   4. Clocks align to the latest arrival, the epoch is published, and each
///      survivor resumes (members) or leaves the SPMD region (dropped ranks).
///
/// The in-memory checkpoint store rides along: serialize_checkpoint bytes
/// are bit-identical on every member, so each rank can deposit its own copy
/// and any survivor set can restore — re-sharding through nn::ShardSpec —
/// onto whatever layout the re-planner picked.
class ElasticCoordinator {
 public:
  /// Builds the initial (epoch 0) context over the full cluster world. Main
  /// thread, before the SPMD region — group creation is not thread-safe.
  ElasticCoordinator(collective::Backend& backend, core::Config initial,
                     ElasticOptions opts);
  ~ElasticCoordinator();

  ElasticCoordinator(const ElasticCoordinator&) = delete;
  ElasticCoordinator& operator=(const ElasticCoordinator&) = delete;

  [[nodiscard]] const ElasticOptions& options() const { return opts_; }

  /// Current epoch's context / index / resume clock. Stable between recovery
  /// rounds; rank threads use the pointer recover() handed them instead.
  [[nodiscard]] core::ParallelContext& context();
  [[nodiscard]] int epoch();
  [[nodiscard]] int recoveries();

  /// One rank's whole elastic run: execute `body(ctx, epoch)` (the per-epoch
  /// training loop), and whenever it throws CommTimeoutError, recover and
  /// re-run it on the new context. Returns when the body completes or this
  /// rank is dropped from the shrunk world. DeviceFailure (this rank dying)
  /// and every other exception propagate to Cluster::run as before; with
  /// elasticity disabled the timeout propagates too.
  void run(int grank,
           const std::function<void(core::ParallelContext&, int epoch)>& body);

  /// The recovery rendezvous itself (run() calls this after catching a
  /// CommTimeoutError; `cause` is that exception). Blocks until the round
  /// seals and the next epoch is published. Returns the new context when
  /// this rank is a member, nullptr when it was dropped. When recovery
  /// cannot continue (floor/round budget/replan failure) every survivor
  /// rethrows its own `cause`.
  core::ParallelContext* recover(int grank, const std::exception_ptr& cause);

  /// Throw this rank back into recovery when the region aborted — the poll
  /// for compute-only stretches that would otherwise never notice a peer
  /// died. No-op while healthy.
  void poll(int grank);

  // ---- in-memory checkpoint store -------------------------------------------

  /// Deposit checkpoint bytes (keep the newest step; identical bytes arrive
  /// from every member, so first-writer-wins per step).
  void store_checkpoint(std::int64_t step, std::string bytes);
  /// Newest stored checkpoint, or {-1, ""} when none was deposited yet.
  [[nodiscard]] std::pair<std::int64_t, std::string> latest_checkpoint() const;

  /// Observability helper for the restore path: emits elastic.reshard_bytes
  /// and the kFault "elastic.reshard" span on this rank.
  void note_resharded(int grank, std::int64_t bytes);
  /// Observability helper for the replay path: emits elastic.replayed_steps
  /// and the kFault "elastic.replay" span covering [resume clock, now].
  void note_replayed(int grank, std::int64_t steps);

 private:
  struct Epoch {
    core::Config config;
    std::vector<int> members;
    std::unique_ptr<core::ParallelContext> ctx;
    double detect_clock = 0.0;  ///< earliest survivor arrival (round start)
    double resume_clock = 0.0;  ///< aligned clock survivors restarted at
  };

  /// Living members of the current epoch (mu_ NOT held — reads FaultState).
  [[nodiscard]] std::vector<int> survivors_now();
  /// Leader-only: re-plan, rearm, rebuild, publish. Called with mu_ held;
  /// drops the lock for every FaultState / Backend call (lock order: never
  /// hold mu_ while taking a FaultState or Group mutex — the FaultState
  /// waker locks mu_ the other way around).
  void seal(std::unique_lock<std::mutex>& lk, int grank,
            const std::exception_ptr& cause);

  collective::Backend& backend_;
  ElasticOptions opts_;

  std::mutex mu_;
  sim::SimCv cv_;
  std::vector<Epoch> epochs_;  // grows only; old contexts stay valid
  int arrived_ = 0;            // survivors parked in the current round
  std::vector<int> dead_;      // dead-rank snapshot (under mu_)
  bool sealing_ = false;       // a leader is mid-seal (mu_ dropped)
  bool failed_ = false;        // recovery gave up; survivors rethrow
  std::uint64_t wake_seq_ = 0;  // bumped on arrival / new death
  double round_max_clock_ = 0.0;
  double round_min_clock_ = -1.0;

  mutable std::mutex ckpt_mu_;
  std::int64_t ckpt_step_ = -1;
  std::string ckpt_bytes_;
};

}  // namespace ca::engine
