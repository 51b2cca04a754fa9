// table3_sim_64r: Table 3's 64-GPU block on System IV (64 P100 nodes),
// fibers on the tasks backend, accounting only (no tensor data). One step
// sweeps the four tensor-parallel modes, 1D, 2D, 2.5D (depth 4) and 3D, each
// a tp::SimTransformer train step in its own Cluster::run as the paper
// benches do. Collectives are pure rendezvous plus the cost model.

#include <array>
#include <cmath>
#include <random>

#include "core/launch.hpp"
#include "harness.hpp"
#include "tp/sim_transformer.hpp"

namespace perfbench {
namespace {

constexpr int kWorld = 64;

struct Mode {
  const char* config;
  const char* span;
  ca::core::TpMode mode;
};

constexpr std::array<Mode, 4> kModes{{
    {"tensor.size=64 tensor.mode=1d sim.backend=tasks", "tp.sim_step.1d",
     ca::core::TpMode::k1d},
    {"tensor.size=64 tensor.mode=2d sim.backend=tasks", "tp.sim_step.2d",
     ca::core::TpMode::k2d},
    {"tensor.size=64 tensor.mode=2.5d tensor.depth=4 sim.backend=tasks",
     "tp.sim_step.2p5d", ca::core::TpMode::k2p5d},
    {"tensor.size=64 tensor.mode=3d sim.backend=tasks", "tp.sim_step.3d",
     ca::core::TpMode::k3d},
}};

// Table 3's 64-GPU model (hidden 4096, 64 heads, ViT's 197 tokens, fp16)
// with the layer stack cut from 32 to 4: host cost is the same per layer, so
// the cut shortens a step without changing what it exercises.
constexpr std::int64_t kLayers = 4;

class Table3Sim64r final : public Workload {
 public:
  Table3Sim64r(std::uint64_t seed, SpanRecorder* rec) : rec_(rec) {
    shape_.layers = kLayers;
    shape_.hidden = 4096;
    shape_.heads = 64;
    shape_.seq = 197;
    shape_.bytes_per_elem = 2;
    // Table 3 runs this block at batch 512; the seed draws the batch from
    // 384..640 in steps of 64, which every mode's grid divides.
    std::mt19937_64 gen(derive_seed(seed, 0));
    shape_.batch = 64 * std::uniform_int_distribution<std::int64_t>(6, 10)(gen);
  }

  [[nodiscard]] int rank_steps_per_step() const override {
    return kWorld * static_cast<int>(kModes.size());
  }
  [[nodiscard]] const char* sync_span() const override {
    return "tp.sim_step.";
  }

  void setup() override {
    for (auto& w : worlds_) w.reset();
    for (std::size_t i = 0; i < kModes.size(); ++i) {
      ScopedSpan launch(rec_, "core.launch", -1, -1, rec_->host_parent());
      worlds_[i] = ca::core::launch(kModes[i].config,
                                    ca::sim::Topology::system_iv(kWorld));
    }
  }

  void step(long id) override {
    for (std::size_t i = 0; i < kModes.size(); ++i) {
      auto& world = *worlds_[i];
      const StepMark mark = begin_step(world.cluster());
      const Mode& m = kModes[i];
      auto& ctx = world.context();
      run_ranks(rec_, world.cluster(), id, [&](int g, std::uint64_t parent) {
        ca::tp::SimTransformer model(ca::tp::Env{&ctx, g}, m.mode, shape_);
        ScopedSpan sp(rec_, m.span, g, id, parent);
        model.train_step();
      });
      stats_[i] = read_model_stats(world.cluster(), mark,
                                   static_cast<double>(shape_.batch),
                                   sim_traced_);
    }
  }

  [[nodiscard]] std::string check() override {
    // Accounting is deterministic: every repeat of a mode must charge the
    // same bytes and simulated time, both finite and positive. Clocks keep
    // advancing across steps, so a repeat's time is a difference rounded at a
    // larger magnitude and is compared to a relative 1e-9.
    for (std::size_t i = 0; i < kModes.size(); ++i) {
      const ModelStats& s = stats_[i];
      if (!(std::isfinite(s.step_s) && s.step_s > 0.0 && s.bytes > 0.0)) {
        return std::string(kModes[i].span) + ": non-positive step time or bytes";
      }
      if (!have_ref_[i]) {
        ref_[i] = s;
        have_ref_[i] = true;
      } else if (s.bytes != ref_[i].bytes ||
                 std::abs(s.step_s - ref_[i].step_s) > 1e-9 * ref_[i].step_s) {
        return std::string(kModes[i].span) + ": repeat differs from the first";
      }
    }
    return "";
  }

  void set_sim_tracing(bool on) override {
    sim_traced_ = on;
    for (auto& w : worlds_) perfbench::set_sim_tracing(w->cluster(), on);
  }

  [[nodiscard]] ModelStats model_stats() override {
    // One step is the sweep: times, samples and bytes add up over the four
    // modes; fractions are the mean over modes.
    ModelStats sum;
    for (const ModelStats& s : stats_) {
      sum.step_s += s.step_s;
      sum.samples += s.samples;
      sum.bytes += s.bytes;
      sum.peak_device_bytes = std::max(sum.peak_device_bytes, s.peak_device_bytes);
      sum.bubble_frac += s.bubble_frac / static_cast<double>(kModes.size());
      sum.comm_overlap_frac +=
          s.comm_overlap_frac / static_cast<double>(kModes.size());
    }
    return sum;
  }

  [[nodiscard]] RuntimeInfo runtime() override {
    return probe_runtime(worlds_[0]->cluster());
  }

 private:
  SpanRecorder* rec_;
  ca::tp::TransformerShape shape_;
  std::array<std::unique_ptr<ca::core::LaunchedWorld>, kModes.size()> worlds_;
  std::array<ModelStats, kModes.size()> stats_{};
  std::array<ModelStats, kModes.size()> ref_{};
  std::array<bool, kModes.size()> have_ref_{};
  bool sim_traced_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_table3_sim_64r(std::uint64_t seed,
                                              SpanRecorder* rec) {
  return std::make_unique<Table3Sim64r>(seed, rec);
}

}  // namespace perfbench
