#pragma once

#include <optional>
#include <string>

#include "nn/layers.hpp"
#include "tp/comm_helpers.hpp"
#include "tp/env.hpp"

namespace ca::tp {

/// The grid tensor-parallel linear of both 2D and 2.5D. 2.5D (Wang et al.,
/// "2.5-dimensional distributed model training") stacks d SUMMA grids of
/// k*k devices; 2D (Xu et al., "An Efficient 2D Method for Training
/// Super-Large Deep Learning Models") is the same layer at depth 1. The
/// input batch is split into d slabs, one per depth layer, and each layer
/// runs SUMMA over its slab: forward broadcasts X blocks along rows and W
/// blocks along columns, and backward runs two more SUMMA passes (dX and
/// dW) built from broadcasts + reductions. That gives Table 1's
/// 3(k-1)(S_X/d + S_W), which at d = 1 is 2D's 3(j-1)(S_X + S_W).
///
/// Input, weight and output are all partitioned, which is the memory
/// advantage over 1D that the paper's Figure 8 measures. At depth > 1 each
/// depth layer holds a 1/d row-slab of its grid block, and the block is
/// all-gathered over the depth group on use, then released. This
/// gather-use-free pattern keeps weight *traffic* at S_W per SUMMA pass. At
/// depth 1 the slab is the whole block and no depth-group work runs.
///
/// Local layout for device (depth dd, row r, col c):
///   X slab:  (rows/(d*k), in/k)       — batch slab dd, SUMMA row r, col c
///   W slab:  (in/(k*d), out/k)        — row-slab dd of grid block (r, c)
///   Y slab:  (rows/(d*k), out/k)
class Linear2p5D : public nn::Module {
 public:
  Linear2p5D(const Env& env, std::string name, std::int64_t in,
             std::int64_t out, std::uint64_t seed, bool with_bias = true);
  /// Construct from an explicit full weight (every rank passes the same
  /// tensor and keeps its slab) — used by the fused-QKV attention layer
  /// whose column layout is not a plain chunk of a seeded weight.
  Linear2p5D(const Env& env, std::string name,
             const tensor::Tensor& full_weight, bool with_bias = true);
  ~Linear2p5D() override;

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;

  [[nodiscard]] nn::Parameter& weight() { return weight_; }
  [[nodiscard]] nn::Parameter* bias() { return with_bias_ ? &bias_ : nullptr; }

  /// Slice the (dd, r, c) activation block out of a full 2-d matrix.
  static tensor::Tensor shard_activation(const tensor::Tensor& full, int q,
                                         int depth, int dd, int r, int c);

 private:
  /// This rank's full (in/k, out/k) grid block for one SUMMA pass. At
  /// depth > 1 it is gathered over the depth group and `hold` charges it to
  /// device memory until the pass ends; at depth 1 it is the local weight.
  tensor::Tensor weight_block(std::optional<sim::ScopedAlloc>& hold);

  Env env_;
  std::int64_t in_, out_;
  bool with_bias_;
  int q_, d_, r_, c_, dd_;
  nn::Parameter weight_;  // (in/(k*d), out/k): depth slab of block (r, c)
  nn::Parameter bias_;    // (out/k), block c (replicated along rows and depth)
  tensor::Tensor saved_x_;
  ActivationTracker acts_;
  std::int64_t param_bytes_ = 0;
};

/// 2D / 2.5D-parallel MLP: Linear2p5D -> GELU -> Linear2p5D. GELU is local
/// because activations are fully partitioned.
class Mlp2p5D : public nn::Module {
 public:
  Mlp2p5D(const Env& env, std::string name, std::int64_t hidden,
          std::int64_t ffn_hidden, std::uint64_t seed);

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;

 private:
  Linear2p5D fc1_;
  nn::Gelu act_;
  Linear2p5D fc2_;
};

}  // namespace ca::tp
