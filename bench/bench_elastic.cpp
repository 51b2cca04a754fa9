// Elastic continuation MTTR breakdown (DESIGN.md section 13): kill one rank
// mid-training on each tensor layout, let the ElasticCoordinator shrink the
// world, and split the recovery into its phases — detect (watchdog budget),
// consensus (survivor rendezvous), rebuild (group construction), re-shard
// (checkpoint re-layout), replay (lost steps re-run). Simulated-time rows are
// deterministic and gated by tools/bench_compare.py; wall rows are reported
// only. Writes BENCH_elastic.json.

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/checkpoint.hpp"
#include "engine/elastic.hpp"
#include "nn/layers.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"
#include "tensor/ops.hpp"
#include "tp/linear1d.hpp"
#include "tp/linear2p5d.hpp"
#include "tp/linear3d.hpp"
#include "tp/relayout.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;
namespace engine = ca::engine;
namespace optim = ca::optim;
namespace obs = ca::obs;

namespace {

constexpr std::int64_t kRows = 24;
constexpr std::int64_t kHidden = 48;
constexpr std::int64_t kTotalSteps = 8;
constexpr std::uint64_t kSeed = 7;

/// One TP linear driven full-in / full-out on whatever layout the context
/// carries (the harness from tests/test_elastic.cpp, trimmed to the bench).
struct ElasticModel {
  ElasticModel(const tp::Env& env, std::uint64_t seed) : env_(env) {
    core::ParallelContext& ctx = *env.ctx;
    mode_ = ctx.config().tensor_mode;
    switch (mode_) {
      case core::TpMode::kNone:
      case core::TpMode::k1d:
        layer_ = std::make_unique<tp::Linear1DCol>(env, "l", kHidden, kHidden,
                                                   seed, /*gather_output=*/true);
        break;
      case core::TpMode::k2d:
      case core::TpMode::k2p5d:
        layer_ =
            std::make_unique<tp::Linear2p5D>(env, "l", kHidden, kHidden, seed);
        break;
      case core::TpMode::k3d:
        layer_ = std::make_unique<tp::Linear3D>(env, "l", kHidden, kHidden, seed);
        break;
    }
  }

  t::Tensor forward_full(const t::Tensor& x) {
    core::ParallelContext& ctx = *env_.ctx;
    const int g = env_.grank;
    switch (mode_) {
      case core::TpMode::kNone:
      case core::TpMode::k1d:
        return layer_->forward(x);
      case core::TpMode::k2d:
      case core::TpMode::k2p5d: {
        const int q = ctx.grid_side(), d = ctx.depth();
        const int r = ctx.row_coord(g), c = ctx.col_coord(g);
        const int dd = ctx.depth_coord(g);
        auto y = layer_->forward(
            tp::Linear2p5D::shard_activation(x, q, d, dd, r, c));
        const nn::ShardSpec spec{kRows, kHidden, d * q, dd * q + r, q, c, 1,
                                 true};
        return tp::gather_full(ctx.tensor_group(g), g, spec, y);
      }
      case core::TpMode::k3d: {
        const int l = ctx.grid_side();
        const int i = ctx.cube_i(g), j = ctx.cube_j(g), k = ctx.cube_k(g);
        auto y = layer_->forward(tp::Linear3D::shard_input(x, l, i, j, k));
        const nn::ShardSpec spec{kRows, kHidden, l * l, i * l + k, l, j, 1,
                                 true};
        return tp::gather_full(ctx.tensor_group(g), g, spec, y);
      }
    }
    throw std::logic_error("unreachable");
  }

  void backward_full(const t::Tensor& dy) {
    core::ParallelContext& ctx = *env_.ctx;
    const int g = env_.grank;
    switch (mode_) {
      case core::TpMode::kNone:
      case core::TpMode::k1d:
        layer_->backward(dy);
        return;
      case core::TpMode::k2d:
      case core::TpMode::k2p5d:
        layer_->backward(tp::Linear2p5D::shard_activation(
            dy, ctx.grid_side(), ctx.depth(), ctx.depth_coord(g),
            ctx.row_coord(g), ctx.col_coord(g)));
        return;
      case core::TpMode::k3d:
        layer_->backward(tp::Linear3D::shard_output(
            dy, ctx.grid_side(), ctx.cube_i(g), ctx.cube_j(g), ctx.cube_k(g)));
        return;
    }
  }

  float train_step(std::int64_t s, optim::Optimizer& opt) {
    auto x =
        t::randn(t::Shape{kRows, kHidden}, 1000 + static_cast<std::uint64_t>(s));
    auto target = t::randn(t::Shape{kRows, kHidden}, 99);
    auto y = forward_full(x);
    auto yd = y.data();
    auto td = target.data();
    const auto n = static_cast<std::int64_t>(yd.size());
    float loss = 0.0f;
    t::Tensor dy(t::Shape{kRows, kHidden}, 0.0f);
    auto dyd = dy.data();
    const float inv = 1.0f / static_cast<float>(n);
    for (std::int64_t i = 0; i < n; ++i) {
      const float d =
          yd[static_cast<std::size_t>(i)] - td[static_cast<std::size_t>(i)];
      loss += d * d * inv;
      dyd[static_cast<std::size_t>(i)] = 2.0f * d * inv;
    }
    opt.zero_grad();
    backward_full(dy);
    opt.step();
    return loss;
  }

  tp::Env env_;
  core::TpMode mode_;
  std::unique_ptr<nn::Module> layer_;
};

struct Mttr {
  double detect_s = 0.0;         // watchdog budget before the timeout fired
  double consensus_s = 0.0;      // survivor rendezvous (max span, sim)
  double rebuild_wall_ns = 0.0;  // survivor-context group construction (wall)
  double reshard_wall_ns = 0.0;  // checkpoint re-layout, max rank (wall)
  double reshard_bytes = 0.0;
  double replay_s = 0.0;         // lost steps re-run (max span, sim)
  double replayed_steps = 0.0;
  double mttr_s = 0.0;           // detect + consensus + rebuild (sim gauge)
  double total_wall_ns = 0.0;    // the whole killed run, end to end
};

Mttr run_scenario(core::TpMode mode, int tp, int depth, std::int64_t kill_step) {
  Mttr out;
  core::Config cfg;
  cfg.tensor_parallel_size = tp;
  cfg.tensor_mode = mode;
  cfg.tensor_depth = depth;
  cfg.elastic = "on";

  sim::Cluster cluster(sim::Topology::uniform(cfg.world_size(), 100e9));
  cluster.install_faults(
      sim::FaultPlan{}.fail_stop(cfg.world_size() - 1, kill_step));
  auto& tracer = cluster.enable_tracing();
  col::Backend backend(cluster);
  engine::ElasticOptions opts = engine::ElasticOptions::resolve(cfg);
  opts.rows = kRows;
  opts.hidden = kHidden;
  engine::ElasticCoordinator coord(backend, cfg, opts);

  std::vector<double> reshard_ns(static_cast<std::size_t>(cfg.world_size()),
                                 0.0);
  std::vector<std::int64_t> replayed(static_cast<std::size_t>(cfg.world_size()),
                                     0);
  const auto wall0 = std::chrono::steady_clock::now();
  cluster.run([&](int g) {
    coord.run(g, [&](core::ParallelContext& ctx, int ep) {
      tp::Env env{&ctx, g};
      ElasticModel model(env, kSeed);
      optim::Adam opt(model.layer_->parameters(), {});
      std::int64_t start = 0;
      auto [cstep, cbytes] = coord.latest_checkpoint();
      if (cstep >= 0) {
        const auto r0 = std::chrono::steady_clock::now();
        std::istringstream is(cbytes);
        start = engine::deserialize_checkpoint(env, *model.layer_, opt, is);
        reshard_ns[static_cast<std::size_t>(g)] =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - r0)
                .count();
        coord.note_resharded(g, static_cast<std::int64_t>(cbytes.size()));
        if (ep > 0) replayed[static_cast<std::size_t>(g)] = kTotalSteps - start;
      }
      for (std::int64_t s = start; s < kTotalSteps; ++s) {
        coord.poll(g);
        cluster.fault_injector()->on_step(g, s, cluster.device(g).clock());
        model.train_step(s, opt);
        std::ostringstream os;
        engine::serialize_checkpoint(env, *model.layer_, opt, s + 1, os);
        coord.store_checkpoint(s + 1, os.str());
      }
      if (ep > 0) coord.note_replayed(g, kTotalSteps - start);
    });
  });
  out.total_wall_ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();

  out.detect_s = cluster.fault_state().watchdog();
  for (int r = 0; r < cfg.world_size(); ++r) {
    out.reshard_wall_ns = std::max(out.reshard_wall_ns, reshard_ns[r]);
    out.replayed_steps =
        std::max(out.replayed_steps, static_cast<double>(replayed[r]));
    for (const auto& ev : tracer.rank(r).events()) {
      if (ev.cat != obs::Category::kFault) continue;
      if (ev.name == "elastic.consensus") {
        out.consensus_s = std::max(out.consensus_s, ev.t1 - ev.t0);
      } else if (ev.name == "elastic.replay") {
        out.replay_s = std::max(out.replay_s, ev.t1 - ev.t0);
      } else if (ev.name == "elastic.reshard") {
        out.reshard_bytes = std::max(out.reshard_bytes,
                                     static_cast<double>(ev.bytes));
      }
    }
  }
  out.mttr_s = out.detect_s + out.consensus_s;

  // Rebuild cost (wall): constructing the survivor layout's groups from
  // scratch — what the recovery leader does single-threadedly inside seal().
  const core::Config final_cfg = coord.context().config();
  out.rebuild_wall_ns = bench::time_ns([&] {
    sim::Cluster c2(sim::Topology::uniform(final_cfg.world_size(), 100e9));
    col::Backend b2(c2);
    core::ParallelContext ctx2(b2, final_cfg);
    (void)ctx2;
  });
  return out;
}

const char* mode_name(core::TpMode m) {
  switch (m) {
    case core::TpMode::kNone: return "none";
    case core::TpMode::k1d: return "1d";
    case core::TpMode::k2d: return "2d";
    case core::TpMode::k2p5d: return "2.5d";
    case core::TpMode::k3d: return "3d";
  }
  return "?";
}

}  // namespace

int main() {
  bench::JsonReport report("BENCH_elastic.json");

  struct Case {
    core::TpMode mode;
    int tp, depth;
    std::int64_t kill;
  };
  const Case cases[] = {
      {core::TpMode::k1d, 4, 1, 3},   {core::TpMode::k2d, 4, 1, 1},
      {core::TpMode::k2d, 4, 1, 3},   {core::TpMode::k2d, 4, 1, 5},
      {core::TpMode::k2p5d, 8, 2, 3}, {core::TpMode::k3d, 8, 1, 3},
  };

  bench::header("elastic continuation: MTTR breakdown per layout / kill step");
  std::printf(
      "%-6s %-4s %-3s | %9s %11s %11s %11s %9s %8s\n", "mode", "tp", "k",
      "detect_s", "consensus_s", "rebuild_us", "reshard_us", "replay_s",
      "steps");
  for (const Case& c : cases) {
    const Mttr m = run_scenario(c.mode, c.tp, c.depth, c.kill);
    std::printf("%-6s %-4d %-3lld | %9.3f %11.6f %11.1f %11.1f %9.4f %8.0f\n",
                mode_name(c.mode), c.tp, static_cast<long long>(c.kill),
                m.detect_s, m.consensus_s, m.rebuild_wall_ns / 1e3,
                m.reshard_wall_ns / 1e3, m.replay_s, m.replayed_steps);
    const std::string shape = std::string(mode_name(c.mode)) + "_tp" +
                              std::to_string(c.tp) + "_k" +
                              std::to_string(c.kill);
    // Simulated-time rows: deterministic, gated by bench_compare.
    report.add("elastic_detect_s", shape, m.detect_s, 0.0);
    report.add("elastic_replay_s", shape, m.replay_s, 0.0);
    report.add("elastic_replayed_steps", shape, m.replayed_steps, 0.0);
    report.add("elastic_reshard_bytes", shape, m.reshard_bytes, 0.0);
    // Wall rows: reported, not gated (bench_compare skips wall* rows).
    // Consensus/MTTR span lengths depend on which simulated clock each
    // survivor's abort lands on — thread-scheduling dependent, so ungated.
    report.add("wall_elastic_consensus_s", shape, m.consensus_s, 0.0);
    report.add("wall_elastic_mttr_s", shape, m.mttr_s, 0.0);
    report.add("wall_elastic_rebuild_ns", shape, m.rebuild_wall_ns, 0.0);
    report.add("wall_elastic_reshard_ns", shape, m.reshard_wall_ns, 0.0);
    report.add("wall_elastic_total_ns", shape, m.total_wall_ns, 0.0);
  }
  report.write();
  return 0;
}
