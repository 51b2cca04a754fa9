// Exactness tests for the grid-mode (2D / 2.5D) Transformer blocks and the
// vocabulary-parallel embedding + cross-entropy.

#include <gtest/gtest.h>

#include "nn/layers.hpp"
#include "tp/block_grid.hpp"
#include "tp/vocab_parallel.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;

namespace {

struct World {
  World(core::TpMode mode, int size, int depth = 1)
      : cluster(sim::Topology::uniform(size, 100e9)),
        backend(cluster),
        ctx(backend, make(mode, size, depth)) {
    // Serial-equivalence suite: pin the wire to fp32 (see DESIGN.md §10).
    ctx.set_comm_dtype(ca::tensor::Dtype::kF32);
  }
  static core::Config make(core::TpMode mode, int size, int depth) {
    core::Config cfg;
    cfg.tensor_parallel_size = size;
    cfg.tensor_mode = mode;
    cfg.tensor_depth = depth;
    return cfg;
  }
  tp::Env env(int g) { return tp::Env{&ctx, g}; }
  sim::Cluster cluster;
  col::Backend backend;
  core::ParallelContext ctx;
};

}  // namespace

TEST(GridLayerNorm, MatchesSerialLayerNorm) {
  const int p = 4, q = 2;
  World w(core::TpMode::k2d, p);
  const std::int64_t b = 4, s = 3, h = 8;

  nn::LayerNorm serial("ln", h);
  auto gamma = t::uniform(t::Shape{h}, 3, 0.5f, 1.5f);
  auto beta = t::randn(t::Shape{h}, 4);
  serial.parameters()[0]->value = gamma;
  serial.parameters()[1]->value = beta;

  auto x = t::randn(t::Shape{b, s, h}, 5);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{b, s, h}, 6);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p), dg(p);
  w.cluster.run([&](int g) {
    const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
    tp::GridLayerNorm ln(w.env(g), "ln", h);
    ln.parameters()[0]->value = t::chunk(gamma, 0, q, c);
    ln.parameters()[1]->value = t::chunk(beta, 0, q, c);
    y[g] = ln.forward(tp::shard_tokens(x, q, 1, 0, r, c));
    dx[g] = ln.backward(tp::shard_tokens(dy, q, 1, 0, r, c));
    dg[g] = ln.parameters()[0]->grad.clone();
  });
  for (int g = 0; g < p; ++g) {
    const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
    EXPECT_TRUE(t::allclose(y[g], tp::shard_tokens(y_ref, q, 1, 0, r, c), 1e-4f))
        << g;
    EXPECT_TRUE(t::allclose(dx[g], tp::shard_tokens(dx_ref, q, 1, 0, r, c), 1e-4f))
        << g;
    // gamma grads: chunk c of the serial gradient (summed over all tokens)
    EXPECT_TRUE(t::allclose(dg[g], t::chunk(serial.parameters()[0]->grad, 0, q, c),
                            1e-3f))
        << g;
  }
}

TEST(GridAttention, MatchesSerialAttention) {
  const int p = 4, q = 2;
  const std::int64_t b = 4, s = 3, h = 8, heads = 2;
  World w(core::TpMode::k2d, p);

  nn::MultiHeadAttention serial("a", h, heads, 11);
  auto x = t::randn(t::Shape{b, s, h}, 12);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{b, s, h}, 13);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int g) {
    const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
    tp::GridAttention attn(w.env(g), "a", h, heads, 11);
    y[g] = attn.forward(tp::shard_tokens(x, q, 1, 0, r, c));
    dx[g] = attn.backward(tp::shard_tokens(dy, q, 1, 0, r, c));
  });
  for (int g = 0; g < p; ++g) {
    const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
    EXPECT_TRUE(t::allclose(y[g], tp::shard_tokens(y_ref, q, 1, 0, r, c), 1e-4f))
        << "rank " << g;
    EXPECT_TRUE(
        t::allclose(dx[g], tp::shard_tokens(dx_ref, q, 1, 0, r, c), 1e-4f))
        << "rank " << g;
  }
}

TEST(GridBlock2D, MatchesSerialTransformerBlock) {
  const int p = 4, q = 2;
  const std::int64_t b = 4, s = 3, h = 8, heads = 2, f = 16;
  World w(core::TpMode::k2d, p);

  nn::TransformerBlock serial("t", h, heads, f, 21);
  auto x = t::randn(t::Shape{b, s, h}, 22);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{b, s, h}, 23);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int g) {
    const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
    tp::GridTransformerBlock blk(w.env(g), "t", h, heads, f, 21);
    y[g] = blk.forward(tp::shard_tokens(x, q, 1, 0, r, c));
    dx[g] = blk.backward(tp::shard_tokens(dy, q, 1, 0, r, c));
  });
  for (int g = 0; g < p; ++g) {
    const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
    EXPECT_TRUE(t::allclose(y[g], tp::shard_tokens(y_ref, q, 1, 0, r, c), 1e-3f))
        << "rank " << g;
    EXPECT_TRUE(
        t::allclose(dx[g], tp::shard_tokens(dx_ref, q, 1, 0, r, c), 1e-3f))
        << "rank " << g;
  }
}

TEST(GridBlock2p5D, MatchesSerialTransformerBlock) {
  const int p = 8, d = 2, q = 2;
  const std::int64_t b = 8, s = 3, h = 8, heads = 2, f = 16;
  World w(core::TpMode::k2p5d, p, d);

  nn::TransformerBlock serial("t", h, heads, f, 31);
  auto x = t::randn(t::Shape{b, s, h}, 32);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{b, s, h}, 33);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int g) {
    const int dd = w.ctx.depth_coord(g), r = w.ctx.row_coord(g),
              c = w.ctx.col_coord(g);
    tp::GridTransformerBlock blk(w.env(g), "t", h, heads, f, 31);
    y[g] = blk.forward(tp::shard_tokens(x, q, d, dd, r, c));
    dx[g] = blk.backward(tp::shard_tokens(dy, q, d, dd, r, c));
  });
  for (int g = 0; g < p; ++g) {
    const int dd = g / (q * q), r = (g % (q * q)) / q, c = g % q;
    EXPECT_TRUE(
        t::allclose(y[g], tp::shard_tokens(y_ref, q, d, dd, r, c), 1e-3f))
        << "rank " << g;
    EXPECT_TRUE(
        t::allclose(dx[g], tp::shard_tokens(dx_ref, q, d, dd, r, c), 1e-3f))
        << "rank " << g;
  }
}

// ---- vocabulary parallelism -----------------------------------------------------------

TEST(VocabParallel, EmbeddingMatchesSerial) {
  const int p = 4;
  World w(core::TpMode::k1d, p);
  const std::int64_t vocab = 16, h = 6;

  nn::Embedding serial("e", vocab, h, 41);
  std::vector<std::int64_t> ids{0, 5, 15, 5, 9};
  auto ref = serial.forward(ids);
  auto dy = t::randn(t::Shape{5, h}, 42);
  serial.backward(dy);

  std::vector<t::Tensor> out(p), grad(p);
  w.cluster.run([&](int g) {
    tp::VocabParallelEmbedding emb(w.env(g), "e", vocab, h, 41);
    out[g] = emb.forward(ids);
    emb.backward(dy);
    grad[g] = emb.table().grad.clone();
  });
  for (int g = 0; g < p; ++g) {
    EXPECT_TRUE(t::allclose(out[g], ref, 1e-5f)) << g;
    EXPECT_TRUE(
        t::allclose(grad[g], t::chunk(serial.table().grad, 0, p, g), 1e-5f))
        << g;
  }
}

TEST(VocabParallel, CrossEntropyMatchesDenseCe) {
  const int p = 4;
  World w(core::TpMode::k1d, p);
  const std::int64_t rows = 6, vocab = 16;

  auto logits = t::randn(t::Shape{rows, vocab}, 51);
  std::vector<std::int64_t> targets{3, 0, 15, 7, 8, 12};
  t::Tensor dref;
  const float ref = t::cross_entropy(logits, targets, dref);

  std::vector<float> loss(p);
  std::vector<t::Tensor> dlocal(p);
  w.cluster.run([&](int g) {
    tp::VocabParallelCrossEntropy ce(w.env(g));
    auto local = t::chunk(logits, 1, p, g);
    loss[static_cast<std::size_t>(g)] =
        ce.forward_backward(local, targets, dlocal[static_cast<std::size_t>(g)]);
  });
  for (int g = 0; g < p; ++g) {
    EXPECT_NEAR(loss[static_cast<std::size_t>(g)], ref, 1e-5f) << g;
    EXPECT_TRUE(t::allclose(dlocal[static_cast<std::size_t>(g)],
                            t::chunk(dref, 1, p, g), 1e-5f))
        << g;
  }
}

TEST(VocabParallel, CrossEntropyStableForLargeLogits) {
  const int p = 2;
  World w(core::TpMode::k1d, p);
  t::Tensor logits(t::Shape{1, 8}, 1000.0f);
  logits[3] = 1001.0f;
  std::vector<std::int64_t> targets{3};

  std::vector<float> loss(p);
  w.cluster.run([&](int g) {
    tp::VocabParallelCrossEntropy ce(w.env(g));
    t::Tensor d;
    auto local = t::chunk(logits, 1, p, g);
    loss[static_cast<std::size_t>(g)] = ce.forward_backward(local, targets, d);
    for (float v : d.data()) EXPECT_FALSE(std::isnan(v));
  });
  EXPECT_FALSE(std::isnan(loss[0]));
  // target holds the max logit: p = e / (e + 7), loss = -ln p ~ 1.274,
  // well below the uniform ln(8) ~ 2.08
  EXPECT_NEAR(loss[0], 1.274f, 1e-2f);
}

TEST(VocabParallel, EmbeddingShardBoundaries) {
  const int p = 4;
  World w(core::TpMode::k1d, p);
  w.cluster.run([&](int g) {
    tp::VocabParallelEmbedding emb(w.env(g), "e", 16, 4, 61);
    EXPECT_EQ(emb.vocab_begin(), g * 4);
    EXPECT_EQ(emb.vocab_end(), (g + 1) * 4);
    EXPECT_EQ(emb.table().value.dim(0), 4);
  });
}

// ---- 3D transformer block -----------------------------------------------------------

#include "tp/block3d.hpp"

TEST(GridBlock3D, AttentionMatchesSerial) {
  const int p = 8, l = 2;
  const std::int64_t b = 4, s = 3, h = 8, heads = 2;
  World w(core::TpMode::k3d, p);

  nn::MultiHeadAttention serial("a", h, heads, 41);
  auto x = t::randn(t::Shape{b, s, h}, 42);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{b, s, h}, 43);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int g) {
    const int i = w.ctx.cube_i(g), j = w.ctx.cube_j(g), k = w.ctx.cube_k(g);
    tp::Attention3D attn(w.env(g), "a", h, heads, 41);
    y[g] = attn.forward(tp::shard_tokens_3d(x, l, i, j, k));
    dx[g] = attn.backward(tp::shard_tokens_3d(dy, l, i, j, k));
  });
  for (int g = 0; g < p; ++g) {
    const int i = g / (l * l), j = (g / l) % l, k = g % l;
    EXPECT_TRUE(
        t::allclose(y[g], tp::shard_tokens_3d(y_ref, l, i, j, k), 1e-4f))
        << "rank " << g;
    EXPECT_TRUE(
        t::allclose(dx[g], tp::shard_tokens_3d(dx_ref, l, i, j, k), 1e-4f))
        << "rank " << g;
  }
}

TEST(GridBlock3D, LayerNormMatchesSerial) {
  const int p = 8, l = 2;
  const std::int64_t b = 4, s = 3, h = 8;
  World w(core::TpMode::k3d, p);

  nn::LayerNorm serial("ln", h);
  auto gamma = t::uniform(t::Shape{h}, 51, 0.5f, 1.5f);
  serial.parameters()[0]->value = gamma;
  auto x = t::randn(t::Shape{b, s, h}, 52);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{b, s, h}, 53);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p), dg(p);
  w.cluster.run([&](int g) {
    const int i = w.ctx.cube_i(g), j = w.ctx.cube_j(g), k = w.ctx.cube_k(g);
    tp::LayerNorm3D ln(w.env(g), "ln", h);
    ln.parameters()[0]->value = t::chunk(gamma, 0, l * l, k * l + j);
    y[g] = ln.forward(tp::shard_tokens_3d(x, l, i, j, k));
    dx[g] = ln.backward(tp::shard_tokens_3d(dy, l, i, j, k));
    dg[g] = ln.parameters()[0]->grad.clone();
  });
  for (int g = 0; g < p; ++g) {
    const int i = g / (l * l), j = (g / l) % l, k = g % l;
    EXPECT_TRUE(
        t::allclose(y[g], tp::shard_tokens_3d(y_ref, l, i, j, k), 1e-4f)) << g;
    EXPECT_TRUE(
        t::allclose(dx[g], tp::shard_tokens_3d(dx_ref, l, i, j, k), 1e-4f)) << g;
    EXPECT_TRUE(t::allclose(
        dg[g], t::chunk(serial.parameters()[0]->grad, 0, l * l, k * l + j),
        1e-3f))
        << g;
  }
}

TEST(GridBlock3D, FullBlockMatchesSerial) {
  const int p = 8, l = 2;
  const std::int64_t b = 4, s = 3, h = 8, heads = 2, f = 16;
  World w(core::TpMode::k3d, p);

  nn::TransformerBlock serial("t", h, heads, f, 61);
  auto x = t::randn(t::Shape{b, s, h}, 62);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{b, s, h}, 63);
  auto dx_ref = serial.backward(dy);

  std::vector<t::Tensor> y(p), dx(p);
  w.cluster.run([&](int g) {
    const int i = w.ctx.cube_i(g), j = w.ctx.cube_j(g), k = w.ctx.cube_k(g);
    tp::TransformerBlock3D blk(w.env(g), "t", h, heads, f, 61);
    y[g] = blk.forward(tp::shard_tokens_3d(x, l, i, j, k));
    dx[g] = blk.backward(tp::shard_tokens_3d(dy, l, i, j, k));
  });
  for (int g = 0; g < p; ++g) {
    const int i = g / (l * l), j = (g / l) % l, k = g % l;
    EXPECT_TRUE(
        t::allclose(y[g], tp::shard_tokens_3d(y_ref, l, i, j, k), 1e-3f))
        << "rank " << g;
    EXPECT_TRUE(
        t::allclose(dx[g], tp::shard_tokens_3d(dx_ref, l, i, j, k), 1e-3f))
        << "rank " << g;
  }
}
