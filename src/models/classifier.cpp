#include "models/classifier.hpp"

#include "models/layout_utils.hpp"
#include "tp/linear1d.hpp"

namespace ca::models {

namespace t = ca::tensor;

namespace {

/// Adapter inserted between chained 3D layers: Y-layout -> X-layout in
/// forward, the inverse redistribution for the gradient in backward.
class Convert3D : public nn::Module {
 public:
  explicit Convert3D(const tp::Env& env) : env_(env) {}
  t::Tensor forward(const t::Tensor& x) override {
    return tp::convert_3d_y_to_x(env_, x);
  }
  t::Tensor backward(const t::Tensor& dy) override {
    return tp::convert_3d_x_to_y(env_, dy);
  }

 private:
  tp::Env env_;
};

}  // namespace

Classifier::Classifier(Config cfg) : cfg_(cfg) {
  net_.add(std::make_unique<nn::Linear>("embed", cfg.features, cfg.hidden,
                                        cfg.seed));
  net_.add(std::make_unique<nn::Gelu>());
  for (std::int64_t b = 0; b < cfg.blocks; ++b) {
    net_.add(std::make_unique<nn::Mlp>("block" + std::to_string(b), cfg.hidden,
                                       2 * cfg.hidden, cfg.seed + 10 * (b + 1)));
  }
  net_.add(std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                        cfg.seed + 999));
}

Classifier::Classifier(const tp::Env& env, Config cfg)
    : cfg_(cfg), mode_(env.ctx->config().tensor_mode), env_(env) {
  switch (mode_) {
    case core::TpMode::kNone:
    case core::TpMode::k1d: {
      // replicated embed/head, 1D-parallel blocks
      net_.add(std::make_unique<nn::Linear>("embed", cfg.features, cfg.hidden,
                                            cfg.seed));
      net_.add(std::make_unique<nn::Gelu>());
      for (std::int64_t b = 0; b < cfg.blocks; ++b) {
        if (mode_ == core::TpMode::k1d) {
          net_.add(std::make_unique<tp::Mlp1D>(env, "block" + std::to_string(b),
                                               cfg.hidden, 2 * cfg.hidden,
                                               cfg.seed + 10 * (b + 1)));
        } else {
          net_.add(std::make_unique<nn::Mlp>("block" + std::to_string(b),
                                             cfg.hidden, 2 * cfg.hidden,
                                             cfg.seed + 10 * (b + 1)));
        }
      }
      net_.add(std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                            cfg.seed + 999));
      break;
    }
    case core::TpMode::k2d:
    case core::TpMode::k2p5d: {
      net_.add(std::make_unique<tp::Linear2p5D>(env, "embed", cfg.features,
                                                cfg.hidden, cfg.seed));
      net_.add(std::make_unique<nn::Gelu>());
      for (std::int64_t b = 0; b < cfg.blocks; ++b) {
        net_.add(std::make_unique<tp::Mlp2p5D>(env, "block" + std::to_string(b),
                                               cfg.hidden, 2 * cfg.hidden,
                                               cfg.seed + 10 * (b + 1)));
      }
      net_.add(std::make_unique<tp::Linear2p5D>(env, "head", cfg.hidden,
                                                cfg.classes, cfg.seed + 999));
      break;
    }
    case core::TpMode::k3d: {
      net_.add(std::make_unique<tp::Linear3D>(env, "embed", cfg.features,
                                              cfg.hidden, cfg.seed));
      net_.add(std::make_unique<nn::Gelu>());
      net_.add(std::make_unique<Convert3D>(env));
      for (std::int64_t b = 0; b < cfg.blocks; ++b) {
        net_.add(std::make_unique<tp::Mlp3D>(env, "block" + std::to_string(b),
                                             cfg.hidden, 2 * cfg.hidden,
                                             cfg.seed + 10 * (b + 1)));
        net_.add(std::make_unique<Convert3D>(env));
      }
      net_.add(std::make_unique<tp::Linear3D>(env, "head", cfg.hidden,
                                              cfg.classes, cfg.seed + 999));
      break;
    }
  }
}

Classifier::~Classifier() = default;

t::Tensor Classifier::shard_input(const t::Tensor& full) const {
  switch (mode_) {
    case core::TpMode::kNone:
    case core::TpMode::k1d:
      return full.clone();
    case core::TpMode::k2d:
    case core::TpMode::k2p5d: {
      auto& ctx = *env_->ctx;
      return tp::Linear2p5D::shard_activation(
          full, ctx.grid_side(), ctx.depth(), ctx.depth_coord(env_->grank),
          ctx.row_coord(env_->grank), ctx.col_coord(env_->grank));
    }
    case core::TpMode::k3d: {
      auto& ctx = *env_->ctx;
      return tp::Linear3D::shard_input(full, ctx.grid_side(),
                                       ctx.cube_i(env_->grank),
                                       ctx.cube_j(env_->grank),
                                       ctx.cube_k(env_->grank));
    }
  }
  return full.clone();
}

t::Tensor Classifier::logits(const t::Tensor& x_full) {
  return detail::gather_logits(env_, net_.forward(shard_input(x_full)));
}

float Classifier::train_batch(const t::Tensor& x_full,
                              std::span<const std::int64_t> labels) {
  auto full_logits = logits(x_full);
  t::Tensor dl;
  const float loss = t::cross_entropy(full_logits, labels, dl);
  net_.backward(detail::shard_logits(env_, dl));
  return loss;
}

float Classifier::eval_accuracy(const t::Tensor& x_full,
                                std::span<const std::int64_t> labels) {
  auto pred = t::argmax_rows(logits(x_full));
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (pred[i] == labels[i]) ++hits;
  return static_cast<float>(hits) / static_cast<float>(labels.size());
}

std::vector<nn::Parameter*> Classifier::parameters() {
  return net_.parameters();
}

std::vector<float> train_trajectory(Classifier& model,
                                    const data::SyntheticClassification& ds,
                                    std::int64_t batch, int steps, float lr) {
  std::vector<float> losses;
  losses.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    auto x = ds.batch_features(s * batch, batch);
    auto y = ds.batch_labels(s * batch, batch);
    for (nn::Parameter* p : model.parameters()) p->grad.fill(0.0f);
    losses.push_back(model.train_batch(x, y));
    for (nn::Parameter* p : model.parameters())
      ca::tensor::axpy_(p->value, -lr, p->grad);
  }
  return losses;
}

}  // namespace ca::models
