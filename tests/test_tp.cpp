// Exactness tests for every tensor-parallel mode: each parallel layer, run
// SPMD over a simulated cluster, must reproduce the serial nn:: reference
// built from the same seeds — the property behind the paper's Figure 7
// ("testing accuracy curves of multi-dimensional tensor parallelism well
// align with data parallel training").
//
// Also: Table 1 communication-volume checks against measured interconnect
// bytes, and cross-validation of the analytic memory model (Figure 8)
// against measured MemoryTracker peaks.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "nn/layers.hpp"
#include "obs/trace.hpp"
#include "tp/block_grid.hpp"
#include "tp/comm_volume.hpp"
#include "tp/linear1d.hpp"
#include "tp/linear2p5d.hpp"
#include "tp/linear3d.hpp"
#include "tp/memory_model.hpp"
#include "tp/sim_transformer.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace tp = ca::tp;
namespace core = ca::core;
namespace col = ca::collective;
namespace sim = ca::sim;

namespace {

struct TpWorld {
  TpWorld(core::Config cfg)
      : cluster(sim::Topology::uniform(cfg.world_size(), 100e9)),
        backend(cluster),
        ctx(backend, cfg) {
    // This suite asserts exact serial equivalence; pin the wire to fp32 so
    // it stays meaningful under the CA_COMM_DTYPE=bf16 CI sweep.
    ctx.set_comm_dtype(ca::tensor::Dtype::kF32);
  }

  tp::Env env(int grank) { return tp::Env{&ctx, grank}; }

  sim::Cluster cluster;
  col::Backend backend;
  core::ParallelContext ctx;
};

core::Config tp_config(core::TpMode mode, int size, int depth = 1) {
  core::Config cfg;
  cfg.tensor_parallel_size = size;
  cfg.tensor_mode = mode;
  cfg.tensor_depth = depth;
  return cfg;
}

}  // namespace

// ---- 1D -----------------------------------------------------------------------

TEST(Tp1d, ColLinearMatchesSerial) {
  const int p = 4;
  const std::int64_t in = 8, out = 12, rows = 6;
  TpWorld w(tp_config(core::TpMode::k1d, p));

  nn::Linear serial("l", in, out, 42);
  auto x = t::randn(t::Shape{rows, in}, 7);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{rows, out}, 8);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> dx(p), y(p), dw(p);
  w.cluster.run([&](int r) {
    tp::Linear1DCol lin(w.env(r), "l", in, out, 42, /*gather_output=*/true);
    y[r] = lin.forward(x);
    dx[r] = lin.backward(dy);
    dw[r] = lin.weight().grad.clone();
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(t::allclose(y[r], y_ref, 1e-4f)) << "rank " << r;
    EXPECT_TRUE(t::allclose(dx[r], dx_ref, 1e-4f)) << "rank " << r;
    EXPECT_TRUE(t::allclose(dw[r], t::chunk(serial.weight().grad, 1, p, r), 1e-4f));
  }
}

TEST(Tp1d, RowLinearMatchesSerial) {
  const int p = 4;
  const std::int64_t in = 8, out = 6, rows = 5;
  TpWorld w(tp_config(core::TpMode::k1d, p));

  nn::Linear serial("l", in, out, 13);
  auto x = t::randn(t::Shape{rows, in}, 14);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{rows, out}, 15);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p), dw(p);
  w.cluster.run([&](int r) {
    tp::Linear1DRow lin(w.env(r), "l", in, out, 13);
    auto x_local = t::chunk(x, -1, p, r);
    y[r] = lin.forward(x_local);
    dx[r] = lin.backward(dy);
    dw[r] = lin.weight().grad.clone();
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(t::allclose(y[r], y_ref, 1e-4f)) << "rank " << r;
    EXPECT_TRUE(t::allclose(dx[r], t::chunk(dx_ref, -1, p, r), 1e-4f));
    EXPECT_TRUE(t::allclose(dw[r], t::chunk(serial.weight().grad, 0, p, r), 1e-4f));
  }
}

TEST(Tp1d, MlpMatchesSerial) {
  const int p = 2;
  const std::int64_t h = 8, f = 16, rows = 4;
  TpWorld w(tp_config(core::TpMode::k1d, p));

  nn::Mlp serial("m", h, f, 21);
  auto x = t::randn(t::Shape{rows, h}, 22);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{rows, h}, 23);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int r) {
    tp::Mlp1D mlp(w.env(r), "m", h, f, 21);
    y[r] = mlp.forward(x);
    dx[r] = mlp.backward(dy);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(t::allclose(y[r], y_ref, 1e-4f));
    EXPECT_TRUE(t::allclose(dx[r], dx_ref, 1e-4f));
  }
}

TEST(Tp1d, AttentionMatchesSerial) {
  const int p = 2;
  const std::int64_t b = 2, s = 4, h = 8, heads = 4;
  TpWorld w(tp_config(core::TpMode::k1d, p));

  nn::MultiHeadAttention serial("a", h, heads, 31);
  auto x = t::randn(t::Shape{b, s, h}, 32);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{b, s, h}, 33);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int r) {
    tp::Attention1D attn(w.env(r), "a", h, heads, 31);
    y[r] = attn.forward(x);
    dx[r] = attn.backward(dy);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(t::allclose(y[r], y_ref, 1e-4f)) << "rank " << r;
    EXPECT_TRUE(t::allclose(dx[r], dx_ref, 1e-4f)) << "rank " << r;
  }
}

TEST(Tp1d, TransformerBlockMatchesSerial) {
  const int p = 2;
  const std::int64_t b = 1, s = 3, h = 8, heads = 2, f = 16;
  TpWorld w(tp_config(core::TpMode::k1d, p));

  nn::TransformerBlock serial("t", h, heads, f, 41);
  auto x = t::randn(t::Shape{b, s, h}, 42);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{b, s, h}, 43);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int r) {
    tp::TransformerBlock1D blk(w.env(r), "t", h, heads, f, 41);
    y[r] = blk.forward(x);
    dx[r] = blk.backward(dy);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(t::allclose(y[r], y_ref, 1e-3f)) << "rank " << r;
    EXPECT_TRUE(t::allclose(dx[r], dx_ref, 1e-3f)) << "rank " << r;
  }
}

TEST(Tp1d, RowLinearAllReduceBytesMatchRingFormula) {
  const int p = 4;
  const std::int64_t in = 8, out = 8, rows = 4;
  TpWorld w(tp_config(core::TpMode::k1d, p));
  auto x = t::randn(t::Shape{rows, in}, 1);
  w.cluster.run([&](int r) {
    tp::Linear1DRow lin(w.env(r), "l", in, out, 2);
    lin.forward(t::chunk(x, -1, p, r));
  });
  // forward = exactly one ring all-reduce of (rows*out) fp32 elements
  const std::int64_t payload = rows * out * 4;
  EXPECT_EQ(w.cluster.total_bytes_sent(),
            p * col::bytes_sent_per_rank(col::Op::kAllReduce, p, payload));
}

// ---- 2D -----------------------------------------------------------------------

namespace {

/// Run a two-sided comparison of a 2D linear against serial, with nonzero
/// bias propagated into the shards.
void check_2d_linear(int p, std::int64_t in, std::int64_t out,
                     std::int64_t rows) {
  const int q = core::Config::exact_sqrt(p);
  TpWorld w(tp_config(core::TpMode::k2d, p));

  nn::Linear serial("l", in, out, 51);
  auto bias_full = t::randn(t::Shape{out}, 52);
  serial.bias()->value = bias_full;
  auto x = t::randn(t::Shape{rows, in}, 53);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{rows, out}, 54);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p), dw(p), db(p);
  w.cluster.run([&](int g) {
    const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
    tp::Linear2p5D lin(w.env(g), "l", in, out, 51);
    lin.bias()->value = t::chunk(bias_full, 0, q, c);
    auto x_blk = tp::Linear2p5D::shard_activation(x, q, 1, 0, r, c);
    auto dy_blk = tp::Linear2p5D::shard_activation(dy, q, 1, 0, r, c);
    y[g] = lin.forward(x_blk);
    dx[g] = lin.backward(dy_blk);
    dw[g] = lin.weight().grad.clone();
    db[g] = lin.bias()->grad.clone();
  });
  for (int g = 0; g < p; ++g) {
    const int r = g / q, c = g % q;
    EXPECT_TRUE(t::allclose(
        y[g], tp::Linear2p5D::shard_activation(y_ref, q, 1, 0, r, c), 1e-4f))
        << "block " << r << "," << c;
    EXPECT_TRUE(t::allclose(
        dx[g], tp::Linear2p5D::shard_activation(dx_ref, q, 1, 0, r, c), 1e-4f));
    auto dw_ref = t::chunk(t::chunk(serial.weight().grad, 0, q, r), 1, q, c);
    EXPECT_TRUE(t::allclose(dw[g], dw_ref, 1e-4f));
    EXPECT_TRUE(
        t::allclose(db[g], t::chunk(serial.bias()->grad, 0, q, c), 1e-4f));
  }
}

}  // namespace

TEST(Tp2d, LinearMatchesSerial4Gpus) { check_2d_linear(4, 8, 12, 6); }
TEST(Tp2d, LinearMatchesSerial9Gpus) { check_2d_linear(9, 9, 18, 9); }

TEST(Tp2d, MlpMatchesSerial) {
  const int p = 4, q = 2;
  const std::int64_t h = 8, f = 16, rows = 4;
  TpWorld w(tp_config(core::TpMode::k2d, p));

  nn::Mlp serial("m", h, f, 61);
  auto x = t::randn(t::Shape{rows, h}, 62);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{rows, h}, 63);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int g) {
    const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
    tp::Mlp2p5D mlp(w.env(g), "m", h, f, 61);
    y[g] = mlp.forward(tp::Linear2p5D::shard_activation(x, q, 1, 0, r, c));
    dx[g] = mlp.backward(tp::Linear2p5D::shard_activation(dy, q, 1, 0, r, c));
  });
  for (int g = 0; g < p; ++g) {
    const int r = g / q, c = g % q;
    EXPECT_TRUE(t::allclose(
        y[g], tp::Linear2p5D::shard_activation(y_ref, q, 1, 0, r, c), 1e-4f));
    EXPECT_TRUE(t::allclose(
        dx[g], tp::Linear2p5D::shard_activation(dx_ref, q, 1, 0, r, c), 1e-4f));
  }
}

// ---- 2.5D ----------------------------------------------------------------------

TEST(Tp2p5d, LinearMatchesSerial8Gpus) {
  const int p = 8, d = 2, q = 2;
  const std::int64_t in = 8, out = 12, rows = 8;
  TpWorld w(tp_config(core::TpMode::k2p5d, p, d));

  nn::Linear serial("l", in, out, 71);
  auto x = t::randn(t::Shape{rows, in}, 72);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{rows, out}, 73);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p), dw(p);
  w.cluster.run([&](int g) {
    const int dd = w.ctx.depth_coord(g), r = w.ctx.row_coord(g),
              c = w.ctx.col_coord(g);
    tp::Linear2p5D lin(w.env(g), "l", in, out, 71);
    auto x_blk = tp::Linear2p5D::shard_activation(x, q, d, dd, r, c);
    auto dy_blk = tp::Linear2p5D::shard_activation(dy, q, d, dd, r, c);
    y[g] = lin.forward(x_blk);
    dx[g] = lin.backward(dy_blk);
    dw[g] = lin.weight().grad.clone();
  });
  for (int g = 0; g < p; ++g) {
    const int dd = g / (q * q), r = (g % (q * q)) / q, c = g % q;
    EXPECT_TRUE(t::allclose(
        y[g], tp::Linear2p5D::shard_activation(y_ref, q, d, dd, r, c), 1e-4f));
    EXPECT_TRUE(t::allclose(
        dx[g], tp::Linear2p5D::shard_activation(dx_ref, q, d, dd, r, c), 1e-4f));
    // weight slab dd of grid block (r, c)
    auto block = t::chunk(t::chunk(serial.weight().grad, 0, q, r), 1, q, c);
    EXPECT_TRUE(t::allclose(dw[g], t::chunk(block, 0, d, dd), 1e-4f))
        << "grank " << g;
  }
}

// ---- 2D is 2.5D at depth 1 -------------------------------------------------------

namespace {

/// What one grid run leaves behind, per rank: the outputs, input gradients
/// and parameter gradients of a two-layer Linear2p5D chain and of a
/// GridTransformerBlock; the simulated clock, bytes sent and memory peak;
/// and, when traced, the event list and the memory timeline.
struct GridRun {
  std::vector<std::vector<t::Tensor>> values;
  std::vector<double> clock;
  std::vector<std::int64_t> bytes, peak;
  std::vector<std::vector<ca::obs::TraceEvent>> events;
  std::vector<std::vector<std::pair<double, std::int64_t>>> mem;
};

GridRun run_grid(const core::Config& cfg, t::Dtype wire, bool trace) {
  TpWorld w(cfg);
  w.ctx.set_comm_dtype(wire);
  if (trace) w.cluster.enable_tracing();
  const int p = cfg.world_size();
  const std::int64_t rows = 12, h = 12, b = 6, s = 3, heads = 6, f = 24;
  const auto x = t::randn(t::Shape{rows, h}, 1);
  const auto dy = t::randn(t::Shape{rows, h}, 2);
  const auto xt = t::randn(t::Shape{b, s, h}, 3);
  const auto dyt = t::randn(t::Shape{b, s, h}, 4);
  GridRun out;
  out.values.resize(static_cast<std::size_t>(p));
  w.cluster.run([&](int g) {
    const int q = w.ctx.grid_side(), d = w.ctx.depth(),
              dd = w.ctx.depth_coord(g), r = w.ctx.row_coord(g),
              c = w.ctx.col_coord(g);
    tp::Linear2p5D l1(w.env(g), "a", h, h, 7), l2(w.env(g), "b", h, h, 8);
    auto y = l2.forward(
        l1.forward(tp::Linear2p5D::shard_activation(x, q, d, dd, r, c)));
    auto dx = l1.backward(
        l2.backward(tp::Linear2p5D::shard_activation(dy, q, d, dd, r, c)));
    tp::GridTransformerBlock blk(w.env(g), "t", h, heads, f, 21);
    auto yt = blk.forward(tp::shard_tokens(xt, q, d, dd, r, c));
    auto dxt = blk.backward(tp::shard_tokens(dyt, q, d, dd, r, c));
    auto& v = out.values[static_cast<std::size_t>(g)];
    v = {y, dx, yt, dxt};
    std::vector<nn::Parameter*> params;
    l1.collect_parameters(params);
    l2.collect_parameters(params);
    blk.collect_parameters(params);
    for (nn::Parameter* prm : params) v.push_back(prm->grad.clone());
  });
  for (int g = 0; g < p; ++g) {
    const sim::Device& dev = w.cluster.device(g);
    out.clock.push_back(dev.clock());
    out.bytes.push_back(dev.bytes_sent());
    out.peak.push_back(dev.mem().peak());
    if (trace) {
      out.events.push_back(w.cluster.tracer()->rank(g).events());
      out.mem.push_back(w.cluster.tracer()->rank(g).mem_timeline());
    }
  }
  return out;
}

bool same_event(const ca::obs::TraceEvent& a, const ca::obs::TraceEvent& b) {
  return a.name == b.name && a.cat == b.cat && a.t0 == b.t0 && a.t1 == b.t1 &&
         a.t_issue == b.t_issue && a.bytes == b.bytes && a.flops == b.flops &&
         a.alpha == b.alpha && a.algo == b.algo && a.dtype == b.dtype;
}

}  // namespace

TEST(Tp2p5d, DepthOneDegeneratesTo2d) {
  // tensor.mode=2d and tensor.mode=2.5d tensor.depth=1 are one computation:
  // the same bits, clocks, bytes and memory, and the same trace. A depth-1
  // layer that still gathered its weight block or ran size-1 depth
  // collectives would show up in the memory peak and timeline.
  for (int p : {4, 9}) {
    for (t::Dtype wire : {t::Dtype::kF32, t::Dtype::kBF16}) {
      SCOPED_TRACE("p=" + std::to_string(p) + " wire=" + t::dtype_name(wire));
      const auto a = run_grid(tp_config(core::TpMode::k2d, p), wire, true);
      const auto b = run_grid(tp_config(core::TpMode::k2p5d, p, 1), wire, true);
      for (int g = 0; g < p; ++g) {
        const auto& va = a.values[static_cast<std::size_t>(g)];
        const auto& vb = b.values[static_cast<std::size_t>(g)];
        ASSERT_EQ(va.size(), vb.size());
        for (std::size_t i = 0; i < va.size(); ++i) {
          ASSERT_EQ(va[i].shape(), vb[i].shape());
          EXPECT_EQ(std::memcmp(va[i].data().data(), vb[i].data().data(),
                                va[i].data().size_bytes()),
                    0)
              << "rank " << g << " tensor " << i;
        }
        const auto& ea = a.events[static_cast<std::size_t>(g)];
        const auto& eb = b.events[static_cast<std::size_t>(g)];
        ASSERT_EQ(ea.size(), eb.size()) << "rank " << g;
        for (std::size_t i = 0; i < ea.size(); ++i) {
          EXPECT_TRUE(same_event(ea[i], eb[i]))
              << "rank " << g << " event " << i << " " << ea[i].name;
        }
        EXPECT_EQ(a.mem[static_cast<std::size_t>(g)],
                  b.mem[static_cast<std::size_t>(g)])
            << "rank " << g;
      }
      EXPECT_EQ(a.clock, b.clock);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(a.peak, b.peak);
    }
  }
}

TEST(Tp2d, GoldenClocksBytesAndPeaks) {
  // run_grid's workload under 2D, pinned per rank: the simulated clock
  // (exact, hex-float), bytes sent and memory peak. Every rank of these
  // symmetric grids lands on the same triple.
  struct Golden {
    int p;
    t::Dtype wire;
    double clock;
    std::int64_t bytes, peak;
  };
  const Golden cases[] = {
      {4, t::Dtype::kF32, 0x1.063d2160686b2p-11, 9024, 6624},
      {4, t::Dtype::kBF16, 0x1.06354d844348dp-11, 6108, 6624},
      {9, t::Dtype::kF32, 0x1.649436afc6faep-10, 7982, 3040},
      {9, t::Dtype::kBF16, 0x1.648efec7ae398p-10, 5395, 3040},
  };
  for (const Golden& c : cases) {
    const auto run = run_grid(tp_config(core::TpMode::k2d, c.p), c.wire, false);
    for (int g = 0; g < c.p; ++g) {
      const auto i = static_cast<std::size_t>(g);
      SCOPED_TRACE("p=" + std::to_string(c.p) + " wire=" +
                   t::dtype_name(c.wire) + " rank " + std::to_string(g));
      EXPECT_EQ(run.clock[i], c.clock);
      EXPECT_EQ(run.bytes[i], c.bytes);
      EXPECT_EQ(run.peak[i], c.peak);
    }
  }
}

TEST(Tp2p5d, MlpMatchesSerial) {
  const int p = 8, d = 2, q = 2;
  const std::int64_t h = 8, f = 16, rows = 8;
  TpWorld w(tp_config(core::TpMode::k2p5d, p, d));

  nn::Mlp serial("m", h, f, 91);
  auto x = t::randn(t::Shape{rows, h}, 92);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{rows, h}, 93);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int g) {
    const int dd = w.ctx.depth_coord(g), r = w.ctx.row_coord(g),
              c = w.ctx.col_coord(g);
    tp::Mlp2p5D mlp(w.env(g), "m", h, f, 91);
    y[g] = mlp.forward(tp::Linear2p5D::shard_activation(x, q, d, dd, r, c));
    dx[g] = mlp.backward(tp::Linear2p5D::shard_activation(dy, q, d, dd, r, c));
  });
  for (int g = 0; g < p; ++g) {
    const int dd = g / (q * q), r = (g % (q * q)) / q, c = g % q;
    EXPECT_TRUE(t::allclose(
        y[g], tp::Linear2p5D::shard_activation(y_ref, q, d, dd, r, c), 1e-4f));
    EXPECT_TRUE(t::allclose(
        dx[g], tp::Linear2p5D::shard_activation(dx_ref, q, d, dd, r, c), 1e-4f));
  }
}

// ---- 3D -----------------------------------------------------------------------

TEST(Tp3d, LinearMatchesSerial8Gpus) {
  const int p = 8, l = 2;
  const std::int64_t in = 8, out = 12 * 2, rows = 8;  // out % l^2 == 0
  TpWorld w(tp_config(core::TpMode::k3d, p));

  nn::Linear serial("l", in, out, 101);
  auto x = t::randn(t::Shape{rows, in}, 102);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{rows, out}, 103);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p), dw(p);
  w.cluster.run([&](int g) {
    const int i = w.ctx.cube_i(g), j = w.ctx.cube_j(g), k = w.ctx.cube_k(g);
    tp::Linear3D lin(w.env(g), "l", in, out, 101);
    auto x_blk = tp::Linear3D::shard_input(x, l, i, j, k);
    auto dy_blk = tp::Linear3D::shard_output(dy, l, i, j, k);
    y[g] = lin.forward(x_blk);
    dx[g] = lin.backward(dy_blk);
    dw[g] = lin.weight().grad.clone();
  });
  for (int g = 0; g < p; ++g) {
    const int i = g / (l * l), j = (g / l) % l, k = g % l;
    EXPECT_TRUE(
        t::allclose(y[g], tp::Linear3D::shard_output(y_ref, l, i, j, k), 1e-4f))
        << "grank " << g;
    EXPECT_TRUE(
        t::allclose(dx[g], tp::Linear3D::shard_input(dx_ref, l, i, j, k), 1e-4f))
        << "grank " << g;
    // W layout: rows chunk k, cols chunk (j*l + i)
    auto dw_ref = t::chunk(t::chunk(serial.weight().grad, 0, l, k), 1, l * l,
                           j * l + i);
    EXPECT_TRUE(t::allclose(dw[g], dw_ref, 1e-4f)) << "grank " << g;
  }
}

TEST(Tp3d, LayoutConversionRoundTrip) {
  const int p = 8, l = 2;
  const std::int64_t rows = 8, n = 8;
  TpWorld w(tp_config(core::TpMode::k3d, p));
  auto full = t::randn(t::Shape{rows, n}, 111);

  std::vector<t::Tensor> as_x(p), back(p);
  w.cluster.run([&](int g) {
    const int i = w.ctx.cube_i(g), j = w.ctx.cube_j(g), k = w.ctx.cube_k(g);
    tp::Linear3D lin(w.env(g), "l", n, n, 112);
    auto y_blk = tp::Linear3D::shard_output(full, l, i, j, k);
    as_x[g] = lin.convert_y_to_x_layout(y_blk);
    back[g] = lin.convert_x_to_y_layout(as_x[g]);
  });
  for (int g = 0; g < p; ++g) {
    const int i = g / (l * l), j = (g / l) % l, k = g % l;
    EXPECT_EQ(t::max_diff(as_x[g], tp::Linear3D::shard_input(full, l, i, j, k)),
              0.0f);
    EXPECT_EQ(t::max_diff(back[g], tp::Linear3D::shard_output(full, l, i, j, k)),
              0.0f);
  }
}

TEST(Tp3d, MlpMatchesSerial) {
  const int p = 8, l = 2;
  const std::int64_t h = 8, f = 16, rows = 8;
  TpWorld w(tp_config(core::TpMode::k3d, p));

  nn::Mlp serial("m", h, f, 121);
  auto x = t::randn(t::Shape{rows, h}, 122);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{rows, h}, 123);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int g) {
    const int i = w.ctx.cube_i(g), j = w.ctx.cube_j(g), k = w.ctx.cube_k(g);
    tp::Mlp3D mlp(w.env(g), "m", h, f, 121);
    y[g] = mlp.forward(tp::Linear3D::shard_input(x, l, i, j, k));
    dx[g] = mlp.backward(tp::Linear3D::shard_output(dy, l, i, j, k));
  });
  for (int g = 0; g < p; ++g) {
    const int i = g / (l * l), j = (g / l) % l, k = g % l;
    EXPECT_TRUE(
        t::allclose(y[g], tp::Linear3D::shard_output(y_ref, l, i, j, k), 1e-4f))
        << "grank " << g;
    EXPECT_TRUE(
        t::allclose(dx[g], tp::Linear3D::shard_input(dx_ref, l, i, j, k), 1e-4f))
        << "grank " << g;
  }
}

// ---- Table 1 communication volumes ----------------------------------------------

TEST(CommVolume, Table1Formulas) {
  tp::MatmulShape m;  // b=32, s=512, h=1024 as in Figure 5
  // spot values computed by hand from Table 1
  EXPECT_EQ(tp::comm_volume_1d(m, 16), 2 * 15 * m.sx());
  EXPECT_EQ(tp::comm_volume_2d(m, 16), 3 * 3 * (m.sx() + m.sw()));
  EXPECT_EQ(tp::comm_volume_2p5d(m, 16, 4), 3 * 1 * (m.sx() / 4 + m.sw()));
  EXPECT_EQ(tp::comm_volume_3d(m, 8), 2 * 1 * (m.sx() + m.sw() + m.sy()) / 2);
}

TEST(CommVolume, AdvancedModesBeat1dAtScale) {
  tp::MatmulShape m;
  for (int p : {16, 64, 256}) {
    EXPECT_LT(tp::comm_volume_2d(m, p), tp::comm_volume_1d(m, p)) << p;
    EXPECT_LT(tp::comm_volume_2p5d(m, p, 4), tp::comm_volume_1d(m, p)) << p;
  }
  for (int p : {8, 64, 512}) {
    EXPECT_LT(tp::comm_volume_3d(m, p), tp::comm_volume_1d(m, p)) << p;
  }
}

TEST(CommVolume, MeasuredTrafficOrdersLikeTable1) {
  // Functional layers at equal (rows, h) on p=8... 1D vs 3D; and p=4 1D vs 2D.
  const std::int64_t rows = 8, h = 8;
  auto measure = [&](core::TpMode mode, int p, int depth) {
    TpWorld w(tp_config(mode, p, depth));
    auto x = t::randn(t::Shape{rows, h}, 1);
    auto dy = t::randn(t::Shape{rows, h}, 2);
    w.cluster.run([&](int g) {
      switch (mode) {
        case core::TpMode::k1d: {
          // Megatron pair: col (no gather) + row — the Figure 4 module
          tp::Linear1DCol c1(w.env(g), "c", h, h, 3, false);
          tp::Linear1DRow r1(w.env(g), "r", h, h, 4);
          auto y = r1.forward(c1.forward(x));
          (void)y;
          c1.backward(r1.backward(dy));
          break;
        }
        case core::TpMode::k2d: {
          const int q = w.ctx.grid_side();
          const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
          tp::Linear2p5D lin(w.env(g), "l", h, h, 3);
          auto xb = tp::Linear2p5D::shard_activation(x, q, 1, 0, r, c);
          auto dyb = tp::Linear2p5D::shard_activation(dy, q, 1, 0, r, c);
          lin.backward(lin.forward(xb).shares_storage_with(xb) ? dyb : dyb);
          break;
        }
        case core::TpMode::k3d: {
          const int l = w.ctx.grid_side();
          tp::Linear3D lin(w.env(g), "l", h, h, 3);
          auto xb = tp::Linear3D::shard_input(x, l, w.ctx.cube_i(g),
                                              w.ctx.cube_j(g), w.ctx.cube_k(g));
          auto dyb = tp::Linear3D::shard_output(dy, l, w.ctx.cube_i(g),
                                                w.ctx.cube_j(g), w.ctx.cube_k(g));
          lin.forward(xb);
          lin.backward(dyb);
          break;
        }
        default:
          break;
      }
    });
    return w.cluster.total_bytes_sent();
  };

  // At p=8 the 3D algorithm must move less than the two 1D all-reduces.
  EXPECT_LT(measure(core::TpMode::k3d, 8, 1), measure(core::TpMode::k1d, 8, 1));
}

// ---- memory model cross-validation -----------------------------------------------

namespace {

std::int64_t measured_two_layer_peak(core::TpMode mode, int p, int depth,
                                     std::int64_t b, std::int64_t h) {
  TpWorld w(tp_config(mode, p, depth));
  auto x = t::randn(t::Shape{b, h}, 5);
  auto dy = t::randn(t::Shape{b, h}, 6);
  w.cluster.run([&](int g) {
    tp::Env env = w.env(g);
    switch (mode) {
      case core::TpMode::k1d: {
        tp::Linear1DCol l1(env, "a", h, h, 7, false);
        tp::Linear1DRow l2(env, "b", h, h, 8);
        auto y = l2.forward(l1.forward(x));
        (void)y;
        l1.backward(l2.backward(dy));
        break;
      }
      case core::TpMode::k2d:
      case core::TpMode::k2p5d: {
        const int q = w.ctx.grid_side(), d = w.ctx.depth();
        const int dd = w.ctx.depth_coord(g), r = w.ctx.row_coord(g),
                  c = w.ctx.col_coord(g);
        tp::Linear2p5D l1(env, "a", h, h, 7);
        tp::Linear2p5D l2(env, "b", h, h, 8);
        auto y = l2.forward(
            l1.forward(tp::Linear2p5D::shard_activation(x, q, d, dd, r, c)));
        (void)y;
        l1.backward(
            l2.backward(tp::Linear2p5D::shard_activation(dy, q, d, dd, r, c)));
        break;
      }
      case core::TpMode::k3d: {
        const int l = w.ctx.grid_side();
        const int i = w.ctx.cube_i(g), j = w.ctx.cube_j(g), k = w.ctx.cube_k(g);
        tp::Linear3D l1(env, "a", h, h, 7);
        tp::Linear3D l2(env, "b", h, h, 8);
        auto y1 = l1.forward(tp::Linear3D::shard_input(x, l, i, j, k));
        auto y2 = l2.forward(l1.convert_y_to_x_layout(y1));
        (void)y2;
        auto d2 = l2.backward(tp::Linear3D::shard_output(dy, l, i, j, k));
        l1.backward(l1.convert_x_to_y_layout(d2));
        break;
      }
      default:
        break;
    }
  });
  return w.cluster.device(0).mem().peak();
}

}  // namespace

struct MemModelCase {
  core::TpMode mode;
  int p;
  int depth;
  std::int64_t b, h;
};

class MemoryModelValidation : public ::testing::TestWithParam<MemModelCase> {};

TEST_P(MemoryModelValidation, AnalyticPeakEqualsMeasured) {
  const auto c = GetParam();
  tp::TwoLayerShape shape{c.b, c.h, 4};
  EXPECT_EQ(tp::two_layer_peak(c.mode, shape, c.p, c.depth),
            measured_two_layer_peak(c.mode, c.p, c.depth, c.b, c.h));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, MemoryModelValidation,
    ::testing::Values(
        MemModelCase{core::TpMode::k1d, 4, 1, 8, 16},
        MemModelCase{core::TpMode::k1d, 8, 1, 16, 32},
        MemModelCase{core::TpMode::k2d, 4, 1, 8, 16},
        MemModelCase{core::TpMode::k2d, 9, 1, 9, 18},
        MemModelCase{core::TpMode::k2p5d, 8, 2, 16, 16},
        MemModelCase{core::TpMode::k3d, 8, 1, 16, 16}));

TEST(MemoryModel, AdvancedModesBeat1dAtPaperScale) {
  // the Figure 8 claims at the paper's sizes: transformer-style inputs are
  // (batch, seq, hidden), so the row count is batch * seq — the regime where
  // 1D's replicated block inputs/outputs dominate.
  tp::TwoLayerShape big{512 * 512, 16384, 4};
  const auto m1d = tp::two_layer_peak(core::TpMode::k1d, big, 8);
  const auto m25 = tp::two_layer_peak(core::TpMode::k2p5d, big, 8, 2);
  const auto m3d = tp::two_layer_peak(core::TpMode::k3d, big, 8);
  EXPECT_LT(m25, m1d);
  EXPECT_LT(m3d, m1d);
  EXPECT_LT(m3d, m25);
  // the headline ratios: 2.5D and 3D are tens of percent below 1D
  EXPECT_GT(1.0 - static_cast<double>(m25) / m1d, 0.40);
  EXPECT_GT(1.0 - static_cast<double>(m3d) / m1d, 0.55);
}

// ---- simulated transformer -------------------------------------------------------

TEST(SimTransformer, OneStepAdvancesClockAndTraffic) {
  TpWorld w(tp_config(core::TpMode::k1d, 4));
  tp::TransformerShape shape;
  shape.layers = 2;
  shape.hidden = 512;
  shape.heads = 8;
  shape.batch = 8;
  shape.seq = 128;
  w.cluster.run([&](int g) {
    tp::SimTransformer model(w.env(g), core::TpMode::k1d, shape);
    model.train_step();
  });
  EXPECT_GT(w.cluster.max_clock(), 0.0);
  EXPECT_GT(w.cluster.total_bytes_sent(), 0);
}

TEST(SimTransformer, AdvancedModesMoveFewerBytesAtScale) {
  tp::TransformerShape shape;
  shape.layers = 2;
  shape.hidden = 4096;
  shape.heads = 64;
  shape.batch = 64;
  shape.seq = 197;  // ViT-224/16 sequence length

  auto traffic = [&](core::TpMode mode, int p, int depth) {
    TpWorld w(tp_config(mode, p, depth));
    w.cluster.run([&](int g) {
      tp::SimTransformer model(w.env(g), mode, shape);
      model.train_step();
    });
    return w.cluster.total_bytes_sent();
  };
  const auto b1d = traffic(core::TpMode::k1d, 64, 1);
  const auto b2d = traffic(core::TpMode::k2d, 64, 1);
  const auto b3d = traffic(core::TpMode::k3d, 64, 1);
  EXPECT_LT(b2d, b1d);
  EXPECT_LT(b3d, b1d);
}

TEST(SimTransformer, MemoryFitGate) {
  TpWorld w(tp_config(core::TpMode::k1d, 4));
  tp::TransformerShape shape;
  shape.layers = 24;
  shape.hidden = 2048;
  shape.heads = 32;
  shape.seq = 197;
  shape.bytes_per_elem = 2;
  shape.with_optimizer = true;

  shape.batch = 8;
  tp::SimTransformer small(w.env(0), core::TpMode::k1d, shape);
  EXPECT_TRUE(small.fits());

  shape.batch = 1 << 20;  // absurd batch cannot fit
  tp::SimTransformer huge(w.env(0), core::TpMode::k1d, shape);
  EXPECT_FALSE(huge.fits());
}

TEST(SimTransformer, TwoPointFiveDAccountsDepthTraffic) {
  // 2.5D at depth 2 must issue the weight-slab gather/scatter on the depth
  // group and still move fewer bytes than 1D at the same scale.
  tp::TransformerShape shape;
  shape.layers = 2;
  shape.hidden = 2048;
  shape.heads = 32;
  shape.batch = 64;
  shape.seq = 197;

  auto run = [&](core::TpMode mode, int p, int depth) {
    TpWorld w(tp_config(mode, p, depth));
    w.cluster.run([&](int g) {
      tp::SimTransformer model(w.env(g), mode, shape);
      model.train_step();
    });
    return w.cluster.total_bytes_sent();
  };
  const auto b1d = run(core::TpMode::k1d, 8, 1);
  const auto b25 = run(core::TpMode::k2p5d, 8, 2);
  EXPECT_GT(b25, 0);
  EXPECT_LT(b25, b1d);
}
