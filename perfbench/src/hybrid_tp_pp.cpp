// hybrid_tp_pp: functional pipeline=2 x tensor(1D)=2 on 4 rank threads. Each
// stage is a stack of tp::TransformerBlock1D run by pp::Pipeline with the
// configured default schedule, then Adam on the stage's shards. Real
// arithmetic dominates, and real data crosses the pipeline p2p channels and
// the TP all-reduces.

#include <algorithm>
#include <cmath>
#include <random>

#include "core/launch.hpp"
#include "harness.hpp"
#include "nn/layers.hpp"
#include "optim/optimizer.hpp"
#include "pp/pipeline.hpp"
#include "tensor/ops.hpp"
#include "tp/linear1d.hpp"

namespace perfbench {
namespace {

namespace t = ca::tensor;
namespace nn = ca::nn;

constexpr const char* kConfig =
    "pipeline=2 tensor.size=2 tensor.mode=1d sim.backend=threads";
constexpr std::int64_t kHidden = 128, kHeads = 4, kFfn = 512;
constexpr std::int64_t kSeq = 16, kMicroRows = 2, kMicros = 4;
constexpr int kBlocksPerStage = 2;
constexpr int kStages = 2;
constexpr int kWorld = kStages * 2;
constexpr int kBatches = 4;  // distinct seeded batches the loop cycles through
constexpr float kLr = 1e-3f;
// The MSE loss is normalised by the element count of the whole batch.
constexpr float kNorm = static_cast<float>(kMicroRows * kMicros * kSeq * kHidden);
// Step-0 loss against the serial model: fp32, with TP changing the reduction
// order of every row-parallel matmul.
constexpr double kLossRtol = 1e-4;

struct Batch {
  std::vector<t::Tensor> inputs;   // kMicros x (kMicroRows, kSeq, kHidden)
  std::vector<t::Tensor> targets;  // same shapes
};

struct RankState {
  nn::Sequential stage;
  std::unique_ptr<ca::pp::Pipeline> pipe;
  std::unique_ptr<ca::optim::Adam> adam;
};

float mse(const t::Tensor& y, const t::Tensor& target, t::Tensor& dy) {
  dy = t::sub(y, target);
  const float l = 0.5f * t::sum(t::mul(dy, dy)) / kNorm;
  t::scale_(dy, 1.0f / kNorm);
  return l;
}

class HybridTpPp final : public Workload {
 public:
  HybridTpPp(std::uint64_t seed, SpanRecorder* rec) : seed_(seed), rec_(rec) {
    // Seeded batches; the micro-batch split is a seeded permutation of the
    // batch's sequences.
    const std::int64_t rows = kMicroRows * kMicros;
    for (int b = 0; b < kBatches; ++b) {
      const auto x = t::randn(t::Shape{rows, kSeq, kHidden},
                              derive_seed(seed, 100 + b));
      const auto y = t::randn(t::Shape{rows, kSeq, kHidden},
                              derive_seed(seed, 200 + b));
      std::vector<std::int64_t> order(static_cast<std::size_t>(rows));
      for (std::int64_t i = 0; i < rows; ++i) order[static_cast<std::size_t>(i)] = i;
      std::mt19937_64 gen(derive_seed(seed, 300 + b));
      std::shuffle(order.begin(), order.end(), gen);
      Batch batch;
      for (std::int64_t m = 0; m < kMicros; ++m) {
        std::vector<t::Tensor> xs, ys;
        for (std::int64_t i = 0; i < kMicroRows; ++i) {
          const std::int64_t row = order[static_cast<std::size_t>(m * kMicroRows + i)];
          xs.push_back(t::narrow(x, 0, row, 1));
          ys.push_back(t::narrow(y, 0, row, 1));
        }
        batch.inputs.push_back(t::cat(xs, 0));
        batch.targets.push_back(t::cat(ys, 0));
      }
      batches_.push_back(std::move(batch));
    }
    serial_loss0_ = serial_loss(batches_[0]);
  }

  [[nodiscard]] int rank_steps_per_step() const override { return kWorld; }
  [[nodiscard]] const char* sync_span() const override {
    return "pp.train_step";
  }

  void setup() override {
    ranks_.clear();
    world_.reset();
    {
      ScopedSpan launch(rec_, "core.launch", -1, -1, rec_->host_parent());
      world_ = ca::core::launch(kConfig, ca::sim::Topology::system_iii(1));
    }
    ranks_.resize(kWorld);
    auto& ctx = world_->context();
    run_ranks(rec_, world_->cluster(), -1, [&](int g, std::uint64_t) {
      auto st = std::make_unique<RankState>();
      const ca::tp::Env env{&ctx, g};
      const int s = ctx.pipeline_rank(g);
      for (int l = 0; l < kBlocksPerStage; ++l) {
        const int blk = s * kBlocksPerStage + l;
        st->stage.add(std::make_unique<ca::tp::TransformerBlock1D>(
            env, "blk" + std::to_string(blk), kHidden, kHeads, kFfn,
            block_seed(blk)));
      }
      st->pipe = std::make_unique<ca::pp::Pipeline>(
          env, st->stage, t::Shape{kMicroRows, kSeq, kHidden});
      st->adam = std::make_unique<ca::optim::Adam>(
          st->stage.parameters(), ca::optim::Adam::Hyper{.lr = kLr});
      ranks_[static_cast<std::size_t>(g)] = std::move(st);
    });
    losses_.assign(kWorld, 0.0f);
    steps_since_setup_ = 0;
  }

  void step(long id) override {
    auto& cluster = world_->cluster();
    mark_ = begin_step(cluster);
    const Batch& batch =
        batches_[static_cast<std::size_t>(steps_since_setup_ % kBatches)];
    ++steps_since_setup_;
    auto& ctx = world_->context();
    run_ranks(rec_, cluster, id, [&](int g, std::uint64_t parent) {
      RankState& st = *ranks_[static_cast<std::size_t>(g)];
      st.stage.zero_grad();
      float loss = 0.0f;
      {
        ScopedSpan sp(rec_, "pp.train_step", g, id, parent);
        loss = st.pipe->train_step(
            static_cast<int>(kMicros), batch.inputs,
            [&](const t::Tensor& y, t::Tensor& dy, int m) {
              return mse(y, batch.targets[static_cast<std::size_t>(m)], dy);
            });
      }
      {
        ScopedSpan sp(rec_, "optim.step", g, id, parent);
        st.adam->step();
      }
      losses_[static_cast<std::size_t>(g)] =
          ctx.is_last_stage(g) ? loss : 0.0f;
    });
  }

  [[nodiscard]] std::string check() override {
    auto& ctx = world_->context();
    float ref = 0.0f;
    bool have = false;
    for (int g = 0; g < kWorld; ++g) {
      if (!ctx.is_last_stage(g)) continue;
      const float l = losses_[static_cast<std::size_t>(g)];
      if (!std::isfinite(l)) return "non-finite loss on rank " + std::to_string(g);
      if (have && l != ref) return "losses differ across tensor ranks";
      ref = l;
      have = true;
    }
    if (steps_since_setup_ == 1 &&
        std::abs(static_cast<double>(ref) - serial_loss0_) >
            kLossRtol * std::max(1.0, std::abs(serial_loss0_))) {
      return "step-0 loss " + std::to_string(ref) +
             " differs from the serial model's " + std::to_string(serial_loss0_);
    }
    return "";
  }

  void set_sim_tracing(bool on) override {
    sim_traced_ = on;
    perfbench::set_sim_tracing(world_->cluster(), on);
  }

  [[nodiscard]] ModelStats model_stats() override {
    return read_model_stats(world_->cluster(), mark_,
                            static_cast<double>(kMicroRows * kMicros),
                            sim_traced_);
  }

  [[nodiscard]] RuntimeInfo runtime() override {
    return probe_runtime(world_->cluster());
  }

  [[nodiscard]] double flops_per_step() const override {
    // Per block forward: the four projections plus QK^T and AV; backward is
    // twice the forward.
    const double tokens = static_cast<double>(kMicroRows * kMicros * kSeq);
    const double h = kHidden, f = kFfn;
    const double fwd = 2.0 * tokens * (4.0 * h * h + 2.0 * h * f) +
                       4.0 * static_cast<double>(kMicroRows * kMicros) *
                           static_cast<double>(kSeq * kSeq) * h;
    return 3.0 * fwd * kStages * kBlocksPerStage;
  }

  [[nodiscard]] std::vector<double> serial_step_ms(int steps) override {
    // The same model as one serial stack on the launching thread: every
    // micro-batch forward and backward, then Adam over all parameters.
    nn::Sequential model;
    add_serial_blocks(model);
    ca::optim::Adam adam(model.parameters(), ca::optim::Adam::Hyper{.lr = kLr});
    std::vector<double> ms;
    for (int i = 0; i < steps; ++i) {
      const Batch& batch = batches_[static_cast<std::size_t>(i % kBatches)];
      const double t0 = now_ns();
      model.zero_grad();
      for (std::int64_t m = 0; m < kMicros; ++m) {
        t::Tensor dy;
        const auto mi = static_cast<std::size_t>(m);
        mse(model.forward(batch.inputs[mi]), batch.targets[mi], dy);
        model.backward(dy);
      }
      adam.step();
      ms.push_back((now_ns() - t0) / 1e6);
    }
    return ms;
  }

 private:
  [[nodiscard]] std::uint64_t block_seed(int blk) const {
    return derive_seed(seed_, static_cast<std::uint64_t>(blk));
  }

  /// Both stages' blocks as serial nn::TransformerBlocks; with the same
  /// seeds they hold the weights the TP shards are sliced from.
  void add_serial_blocks(nn::Sequential& model) const {
    for (int blk = 0; blk < kStages * kBlocksPerStage; ++blk) {
      model.add(std::make_unique<nn::TransformerBlock>(
          "blk" + std::to_string(blk), kHidden, kHeads, kFfn, block_seed(blk)));
    }
  }

  /// Mean micro-batch loss of the serial model at its initial weights.
  double serial_loss(const Batch& batch) const {
    nn::Sequential model;
    add_serial_blocks(model);
    double total = 0.0;
    for (std::int64_t m = 0; m < kMicros; ++m) {
      t::Tensor dy;
      const auto mi = static_cast<std::size_t>(m);
      total += mse(model.forward(batch.inputs[mi]), batch.targets[mi], dy);
    }
    return total / static_cast<double>(kMicros);
  }

  std::uint64_t seed_;
  SpanRecorder* rec_;
  std::vector<Batch> batches_;
  double serial_loss0_ = 0.0;
  std::unique_ptr<ca::core::LaunchedWorld> world_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::vector<float> losses_;
  long steps_since_setup_ = 0;
  StepMark mark_;
  bool sim_traced_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_hybrid_tp_pp(std::uint64_t seed,
                                            SpanRecorder* rec) {
  return std::make_unique<HybridTpPp>(seed, rec);
}

}  // namespace perfbench
