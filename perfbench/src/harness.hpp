#pragma once

// Shared pieces of the perfbench binary: host-clock spans kept in memory and
// written out as a Chrome trace, process resource counters, and the interface
// every workload implements.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cluster.hpp"

namespace perfbench {

/// Host steady-clock nanoseconds since the first call in this process.
double now_ns();

/// Independent sub-seed `stream` of the workload seed (splitmix64), so
/// weights, data and micro-batch splits each get their own stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// One closed interval of host time around a call into a layer. `rank` is -1
/// for spans on the launching (host) thread. `parent` is the id of the span
/// that caused this one, 0 for none.
struct Span {
  const char* name = "";
  int rank = -1;
  long step = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double t0_ns = 0.0;
  double t1_ns = 0.0;
};

/// In-memory span store with one append-only buffer per writer: slot 0 for
/// the host thread, slot r + 1 for rank r. Each rank's body writes only its
/// own slot and the host reads the buffers after Cluster::run has joined, so
/// recording takes no lock. Toggle `enabled` only outside an SPMD region.
class SpanRecorder {
 public:
  explicit SpanRecorder(int world);

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Reserve an id in `rank`'s slot; the span is stored by close().
  [[nodiscard]] std::uint64_t next_id(int rank);
  void close(Span s);

  /// The host-thread span new host spans hang under (the running step).
  void set_host_parent(std::uint64_t id) { host_parent_ = id; }
  [[nodiscard]] std::uint64_t host_parent() const { return host_parent_; }

  /// Chrome-trace JSON ("X" events, microsecond stamps, one tid per rank,
  /// step/id/parent in args). `meta` is a JSON object written under
  /// "metadata". Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path, const std::string& meta) const;

 private:
  [[nodiscard]] std::size_t slot(int rank) const;

  bool enabled_ = false;
  std::uint64_t host_parent_ = 0;
  std::vector<std::vector<Span>> slots_;
  std::vector<std::uint64_t> counters_;
};

/// RAII span; inert when `rec` is null or disabled, so an untraced run pays
/// one branch per layer call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int rank, long step,
             std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* rec_ = nullptr;
  Span span_;
};

/// Run `body(rank, rank_span_id)` SPMD on `cluster` under a host "sim.run"
/// span whose children are one "rank" span per rank, so the run's self time
/// is what Cluster::run spends outside the rank bodies.
void run_ranks(SpanRecorder* rec, ca::sim::Cluster& cluster, long step,
               const std::function<void(int, std::uint64_t)>& body);

/// getrusage(RUSAGE_SELF) snapshot: CPU time of every thread of the process
/// and its context switches.
struct Usage {
  double cpu_ms = 0.0;
  long ctx_switches = 0;
  long max_rss_kib = 0;
};
Usage usage_now();

/// Host CPU time from /proc/stat in clock ticks: all of it, and the part the
/// hypervisor gave to other guests while this guest wanted to run (steal).
/// Zeros where the kernel does not report it.
struct HostTicks {
  long long total = 0;
  long long steal = 0;
};
HostTicks host_ticks();
/// Stolen share of the host CPU time between two readings; 0 when no time
/// was counted.
double steal_frac(const HostTicks& before, const HostTicks& after);

/// Simulated-clock results of the last step, read from the program's own
/// counters (Cluster clocks, bytes, MemoryTracker peaks, obs::summarize).
struct ModelStats {
  double step_s = 0.0;
  double samples = 0.0;
  double bytes = 0.0;
  double peak_device_bytes = 0.0;
  double bubble_frac = 0.0;
  double comm_overlap_frac = 0.0;
};

/// What a rank sees of the host runtime, for the run manifest.
struct RuntimeInfo {
  int omp_team = 0;
  std::string backend;
  int workers = 0;
};

/// Counters at the start of a step.
struct StepMark {
  double clock = 0.0;
  std::int64_t bytes = 0;
};
/// Start a step from a synchronised state: advance every device clock to the
/// cluster's max clock (no rank runs ahead into the step), restart the memory
/// peaks at the current level and drop recorded sim-trace events. Clocks and
/// comm lanes keep advancing across steps, so a step is read as the change
/// from this mark. Call outside the SPMD region.
StepMark begin_step(ca::sim::Cluster& cluster);
/// Read the step since `mark`; the bubble and overlap fractions need the sim
/// tracer to have been on for that step.
ModelStats read_model_stats(ca::sim::Cluster& cluster, const StepMark& mark,
                            double samples, bool sim_traced);
/// Turn the program's sim-clock tracer on or off. Call outside the SPMD
/// region.
void set_sim_tracing(ca::sim::Cluster& cluster, bool on);
/// OpenMP team size seen inside rank 0, and the sim backend and its worker
/// count as Cluster::run will use them.
RuntimeInfo probe_runtime(ca::sim::Cluster& cluster);

/// A named training workload driven one step at a time by main().
class Workload {
 public:
  virtual ~Workload() = default;

  /// Rank-steps one step completes: world size times the train steps each
  /// rank runs in it.
  [[nodiscard]] virtual int rank_steps_per_step() const = 0;
  /// Name (or name prefix) of the per-rank span around the call that closes a
  /// step on a synchronisation every rank must reach.
  [[nodiscard]] virtual const char* sync_span() const = 0;
  /// Drop any previous state and build clusters, contexts and models.
  virtual void setup() = 0;
  /// One training step; throws when a rank fails.
  virtual void step(long id) = 0;
  /// Output check of the step just run: "" when right, else the reason.
  [[nodiscard]] virtual std::string check() = 0;
  /// Turn the program's simulated-clock tracer on or off (between steps).
  virtual void set_sim_tracing(bool on) = 0;
  /// Simulated results of the last step (with the sim tracer on, the
  /// bubble and overlap fractions come from obs::summarize).
  [[nodiscard]] virtual ModelStats model_stats() = 0;
  [[nodiscard]] virtual RuntimeInfo runtime() = 0;
  /// Analytic fwd+bwd FLOPs of one step over all ranks; 0 without real math.
  [[nodiscard]] virtual double flops_per_step() const { return 0.0; }
  /// Host ms of one step of the single-rank serial model on the same batch;
  /// empty when the workload has no serial twin.
  [[nodiscard]] virtual std::vector<double> serial_step_ms(int steps) {
    (void)steps;
    return {};
  }
};

// The workloads; `rec` outlives the returned object.
std::unique_ptr<Workload> make_hybrid_tp_pp(std::uint64_t seed,
                                            SpanRecorder* rec);
std::unique_ptr<Workload> make_dp_small_64r(std::uint64_t seed,
                                            SpanRecorder* rec);
std::unique_ptr<Workload> make_table3_sim_64r(std::uint64_t seed,
                                              SpanRecorder* rec);

}  // namespace perfbench
