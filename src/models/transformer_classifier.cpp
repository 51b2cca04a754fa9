#include "models/transformer_classifier.hpp"

#include "models/layout_utils.hpp"
#include "tp/block3d.hpp"
#include "tp/block_grid.hpp"
#include "tp/linear1d.hpp"

namespace ca::models {

namespace t = ca::tensor;

namespace {

/// Mean-pool (b, s, h_local) -> (b, h_local); dy broadcast back over s.
t::Tensor mean_pool(const t::Tensor& tokens, std::int64_t full_seq) {
  const std::int64_t b = tokens.dim(0), s = tokens.dim(1), h = tokens.dim(2);
  t::Tensor pooled(t::Shape{b, h}, 0.0f);
  auto pt = tokens.data();
  auto pp = pooled.data();
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t si = 0; si < s; ++si)
      for (std::int64_t c = 0; c < h; ++c)
        pp[static_cast<std::size_t>(bi * h + c)] +=
            pt[static_cast<std::size_t>((bi * s + si) * h + c)];
  t::scale_(pooled, 1.0f / static_cast<float>(full_seq));
  return pooled;
}

t::Tensor unpool(const t::Tensor& dpooled, std::int64_t s,
                 std::int64_t full_seq) {
  const std::int64_t b = dpooled.dim(0), h = dpooled.dim(1);
  t::Tensor dtokens(t::Shape{b, s, h});
  auto pd = dtokens.data();
  auto pp = dpooled.data();
  const float inv = 1.0f / static_cast<float>(full_seq);
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t si = 0; si < s; ++si)
      for (std::int64_t c = 0; c < h; ++c)
        pd[static_cast<std::size_t>((bi * s + si) * h + c)] =
            pp[static_cast<std::size_t>(bi * h + c)] * inv;
  return dtokens;
}

}  // namespace

struct TransformerClassifier::Impl {
  Config cfg;
  core::TpMode mode = core::TpMode::kNone;
  std::optional<tp::Env> env;

  // Patch embedding and classification head: nn::Linear (serial / 1D),
  // Linear2p5D (2D / 2.5D) or Linear3D (3D).
  std::unique_ptr<nn::Module> embed;
  std::vector<std::unique_ptr<nn::Module>> blocks;
  std::unique_ptr<nn::Module> head;

  std::int64_t saved_local_seq = 0;

  t::Tensor shard_input(const t::Tensor& full) const {
    if (detail::layout_replicated(env)) return full.clone();
    auto& ctx = *env->ctx;
    const int g = env->grank;
    if (mode == core::TpMode::k3d) {
      return tp::shard_tokens_3d(full, ctx.grid_side(), ctx.cube_i(g),
                                 ctx.cube_j(g), ctx.cube_k(g));
    }
    return tp::shard_tokens(full, ctx.grid_side(), ctx.depth(),
                            ctx.depth_coord(g), ctx.row_coord(g),
                            ctx.col_coord(g));
  }

  // ---- forward / backward ----------------------------------------------------

  t::Tensor forward(const t::Tensor& x_full) {
    auto x = shard_input(x_full);
    const std::int64_t b = x.dim(0), s = x.dim(1);
    saved_local_seq = s;
    t::Tensor h;
    if (mode == core::TpMode::k3d) {
      // Linear3D works on 2-d matrices and leaves its output in Y-layout.
      const int l = env->ctx->grid_side();
      auto y = embed->forward(x.reshape(t::Shape{b * s, x.dim(2)}));
      h = tp::convert_3d_y_to_x(*env, y).reshape(
          t::Shape{b, s, cfg.hidden / (l * l)});
    } else {
      h = embed->forward(x);
    }
    for (auto& blk : blocks) h = blk->forward(h);
    return head->forward(mean_pool(h, cfg.patches));
  }

  void backward(const t::Tensor& dlogits_local) {
    const std::int64_t s = saved_local_seq;
    auto g = unpool(head->backward(dlogits_local), s, cfg.patches);
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it)
      g = (*it)->backward(g);
    if (mode == core::TpMode::k3d) {
      const std::int64_t b = g.dim(0), hc = g.dim(2);
      g = tp::convert_3d_x_to_y(*env, g.reshape(t::Shape{b * s, hc}));
    }
    embed->backward(g);
  }

  std::vector<nn::Parameter*> parameters() {
    std::vector<nn::Parameter*> out;
    embed->collect_parameters(out);
    for (auto& b : blocks) b->collect_parameters(out);
    head->collect_parameters(out);
    return out;
  }
};

TransformerClassifier::TransformerClassifier(Config cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = cfg;
  impl_->embed =
      std::make_unique<nn::Linear>("embed", cfg.patch_dim, cfg.hidden, cfg.seed);
  for (std::int64_t b = 0; b < cfg.blocks; ++b) {
    impl_->blocks.push_back(std::make_unique<nn::TransformerBlock>(
        "block" + std::to_string(b), cfg.hidden, cfg.heads, cfg.ffn,
        cfg.seed + 1000 * (b + 1)));
  }
  impl_->head = std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                             cfg.seed + 999);
}

TransformerClassifier::TransformerClassifier(const tp::Env& env, Config cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = cfg;
  impl_->mode = env.ctx->config().tensor_mode;
  impl_->env = env;
  auto& I = *impl_;

  for (std::int64_t b = 0; b < cfg.blocks; ++b) {
    const std::string name = "block" + std::to_string(b);
    const std::uint64_t seed = cfg.seed + 1000 * (b + 1);
    switch (I.mode) {
      case core::TpMode::kNone:
        I.blocks.push_back(std::make_unique<nn::TransformerBlock>(
            name, cfg.hidden, cfg.heads, cfg.ffn, seed));
        break;
      case core::TpMode::k1d:
        I.blocks.push_back(std::make_unique<tp::TransformerBlock1D>(
            env, name, cfg.hidden, cfg.heads, cfg.ffn, seed));
        break;
      case core::TpMode::k2d:
      case core::TpMode::k2p5d:
        I.blocks.push_back(std::make_unique<tp::GridTransformerBlock>(
            env, name, cfg.hidden, cfg.heads, cfg.ffn, seed));
        break;
      case core::TpMode::k3d:
        I.blocks.push_back(std::make_unique<tp::TransformerBlock3D>(
            env, name, cfg.hidden, cfg.heads, cfg.ffn, seed));
        break;
    }
  }
  switch (I.mode) {
    case core::TpMode::kNone:
    case core::TpMode::k1d:
      I.embed = std::make_unique<nn::Linear>("embed", cfg.patch_dim,
                                             cfg.hidden, cfg.seed);
      I.head = std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                            cfg.seed + 999);
      break;
    case core::TpMode::k2d:
    case core::TpMode::k2p5d:
      I.embed = std::make_unique<tp::Linear2p5D>(env, "embed", cfg.patch_dim,
                                                 cfg.hidden, cfg.seed);
      I.head = std::make_unique<tp::Linear2p5D>(env, "head", cfg.hidden,
                                                cfg.classes, cfg.seed + 999);
      break;
    case core::TpMode::k3d:
      I.embed = std::make_unique<tp::Linear3D>(env, "embed", cfg.patch_dim,
                                               cfg.hidden, cfg.seed);
      I.head = std::make_unique<tp::Linear3D>(env, "head", cfg.hidden,
                                              cfg.classes, cfg.seed + 999);
      break;
  }
}

TransformerClassifier::~TransformerClassifier() = default;

t::Tensor TransformerClassifier::logits(const t::Tensor& x_full) {
  return detail::gather_logits(impl_->env, impl_->forward(x_full));
}

float TransformerClassifier::train_batch(const t::Tensor& x_full,
                                         std::span<const std::int64_t> labels) {
  auto full = logits(x_full);
  t::Tensor dl;
  const float loss = t::cross_entropy(full, labels, dl);
  impl_->backward(detail::shard_logits(impl_->env, dl));
  return loss;
}

float TransformerClassifier::eval_accuracy(
    const t::Tensor& x_full, std::span<const std::int64_t> labels) {
  auto pred = t::argmax_rows(logits(x_full));
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (pred[i] == labels[i]) ++hits;
  return static_cast<float>(hits) / static_cast<float>(labels.size());
}

std::vector<nn::Parameter*> TransformerClassifier::parameters() {
  return impl_->parameters();
}

}  // namespace ca::models
