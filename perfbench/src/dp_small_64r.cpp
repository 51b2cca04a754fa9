// dp_small_64r: 64-rank data parallelism on System III (16 nodes x 4 GPUs),
// fibers on the tasks backend. Every rank trains the same tiny
// many-parameter model through Engine's bucketed async all-reduce, so kernels
// are tiny and host time goes to rendezvous, fiber switches, gradient
// buckets and per-op runtime overhead.

#include <cmath>
#include <cstring>
#include <random>

#include "core/launch.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "nn/layers.hpp"
#include "optim/optimizer.hpp"
#include "tensor/ops.hpp"

namespace perfbench {
namespace {

namespace t = ca::tensor;
namespace nn = ca::nn;

constexpr const char* kConfig = "data=64 sim.backend=tasks";
constexpr int kNodes = 16;
constexpr int kWorld = 64;
// The shape of the many-small-parameters DP overlap bench, with fewer blocks.
constexpr int kBlocks = 2;
constexpr std::int64_t kHidden = 16, kHeads = 2, kFfn = 64;
constexpr std::int64_t kBatch = 1, kSeq = 2;
constexpr int kBatches = 4;
constexpr float kLr = 1e-3f;

struct Batch {
  t::Tensor x;                      // (kBatch, kSeq, kHidden)
  std::vector<std::int64_t> labels;  // kBatch * kSeq classes in [0, kHidden)
};

struct RankState {
  nn::Sequential net;
  std::unique_ptr<ca::engine::Engine> engine;
};

class DpSmall64r final : public Workload {
 public:
  DpSmall64r(std::uint64_t seed, SpanRecorder* rec) : seed_(seed), rec_(rec) {
    for (int b = 0; b < kBatches; ++b) {
      Batch batch;
      batch.x = t::randn(t::Shape{kBatch, kSeq, kHidden},
                         derive_seed(seed, 100 + b));
      std::mt19937_64 gen(derive_seed(seed, 200 + b));
      std::uniform_int_distribution<std::int64_t> cls(0, kHidden - 1);
      for (std::int64_t i = 0; i < kBatch * kSeq; ++i) {
        batch.labels.push_back(cls(gen));
      }
      batches_.push_back(std::move(batch));
    }
  }

  [[nodiscard]] int rank_steps_per_step() const override { return kWorld; }
  [[nodiscard]] const char* sync_span() const override { return "engine.step"; }

  void setup() override {
    ranks_.clear();
    world_.reset();
    {
      ScopedSpan launch(rec_, "core.launch", -1, -1, rec_->host_parent());
      world_ = ca::core::launch(kConfig, ca::sim::Topology::system_iii(kNodes));
    }
    ranks_.resize(kWorld);
    auto& ctx = world_->context();
    run_ranks(rec_, world_->cluster(), -1, [&](int g, std::uint64_t) {
      auto st = std::make_unique<RankState>();
      for (int b = 0; b < kBlocks; ++b) {
        st->net.add(std::make_unique<nn::TransformerBlock>(
            "blk" + std::to_string(b), kHidden, kHeads, kFfn,
            derive_seed(seed_, static_cast<std::uint64_t>(b))));
      }
      st->engine = ca::engine::initialize(
          ca::tp::Env{&ctx, g}, st->net,
          std::make_unique<ca::optim::Sgd>(st->net.parameters(), kLr));
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
    run_ranks(rec_, cluster, id, [&](int g, std::uint64_t parent) {
      auto& eng = *ranks_[static_cast<std::size_t>(g)]->engine;
      eng.zero_grad();
      t::Tensor out;
      {
        ScopedSpan sp(rec_, "engine.forward", g, id, parent);
        out = eng.forward(batch.x);
      }
      t::Tensor dl;
      const float loss = t::cross_entropy(
          out.reshape(t::Shape{kBatch * kSeq, kHidden}), batch.labels, dl);
      {
        ScopedSpan sp(rec_, "engine.backward", g, id, parent);
        eng.backward_from(dl.reshape(t::Shape{kBatch, kSeq, kHidden}));
      }
      {
        ScopedSpan sp(rec_, "engine.step", g, id, parent);
        eng.step();
      }
      losses_[static_cast<std::size_t>(g)] = loss;
    });
  }

  [[nodiscard]] std::string check() override {
    // Every replica saw the same batch, so losses and updated parameters
    // must be bit-identical across all of them.
    if (!std::isfinite(losses_[0])) return "non-finite loss";
    const auto ref = ranks_[0]->net.parameters();
    for (int g = 1; g < kWorld; ++g) {
      if (std::memcmp(&losses_[0], &losses_[static_cast<std::size_t>(g)],
                      sizeof(float)) != 0) {
        return "loss of replica " + std::to_string(g) + " differs from replica 0";
      }
      const auto mine = ranks_[static_cast<std::size_t>(g)]->net.parameters();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        const auto a = ref[i]->value.data();
        const auto b = mine[i]->value.data();
        if (a.size() != b.size() ||
            std::memcmp(a.data(), b.data(), a.size_bytes()) != 0) {
          return "parameter " + ref[i]->name + " of replica " +
                 std::to_string(g) + " differs from replica 0";
        }
      }
    }
    return "";
  }

  void set_sim_tracing(bool on) override {
    sim_traced_ = on;
    perfbench::set_sim_tracing(world_->cluster(), on);
  }

  [[nodiscard]] ModelStats model_stats() override {
    return read_model_stats(world_->cluster(), mark_,
                            static_cast<double>(kWorld * kBatch), sim_traced_);
  }

  [[nodiscard]] RuntimeInfo runtime() override {
    return probe_runtime(world_->cluster());
  }

 private:
  std::uint64_t seed_;
  SpanRecorder* rec_;
  std::vector<Batch> batches_;
  std::unique_ptr<ca::core::LaunchedWorld> world_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::vector<float> losses_;
  long steps_since_setup_ = 0;
  StepMark mark_;
  bool sim_traced_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_dp_small_64r(std::uint64_t seed,
                                            SpanRecorder* rec) {
  return std::make_unique<DpSmall64r>(seed, rec);
}

}  // namespace perfbench
