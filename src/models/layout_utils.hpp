#pragma once

#include <functional>
#include <optional>

#include "tensor/ops.hpp"
#include "tp/env.hpp"
#include "tp/linear2p5d.hpp"
#include "tp/linear3d.hpp"

namespace ca::models::detail {

/// Reassemble equally-shaped rank blocks (given flattened, rank-major) into
/// a full matrix, with `place(rank) -> (row chunk, col chunk)`.
inline tensor::Tensor reassemble_blocks(
    const tensor::Tensor& flat_blocks, std::int64_t block_rows,
    std::int64_t block_cols, int n_row_chunks, int n_col_chunks,
    const std::function<std::pair<int, int>(int)>& place) {
  namespace t = ca::tensor;
  const int n = n_row_chunks * n_col_chunks;
  t::Tensor full(
      t::Shape{block_rows * n_row_chunks, block_cols * n_col_chunks});
  auto pf = full.data();
  auto pb = flat_blocks.data();
  const std::int64_t block = block_rows * block_cols;
  const std::int64_t full_cols = block_cols * n_col_chunks;
  for (int m = 0; m < n; ++m) {
    const auto [rc, cc] = place(m);
    const float* src = pb.data() + m * block;
    for (std::int64_t r = 0; r < block_rows; ++r) {
      float* dst =
          pf.data() + (rc * block_rows + r) * full_cols + cc * block_cols;
      std::copy(src + r * block_cols, src + (r + 1) * block_cols, dst);
    }
  }
  return full;
}

/// True when a classifier's input and logits are full on every rank: the
/// serial model (no env), no tensor parallelism, and 1D.
inline bool layout_replicated(const std::optional<tp::Env>& env) {
  if (!env) return true;
  const core::TpMode mode = env->ctx->config().tensor_mode;
  return mode == core::TpMode::kNone || mode == core::TpMode::k1d;
}

/// Gather every rank's 2-d logits block over the tensor group into the full
/// (batch, classes) matrix, replicated on every rank.
inline tensor::Tensor gather_logits(const std::optional<tp::Env>& env,
                                    const tensor::Tensor& local) {
  if (layout_replicated(env)) return local;
  auto& ctx = *env->ctx;
  auto& g = ctx.tensor_group(env->grank);
  tensor::Tensor flat(tensor::Shape{local.numel() * g.size()});
  g.all_gather(env->grank, local.data(), flat.data());
  const std::int64_t br = local.dim(0), bc = local.dim(1);
  const int q = ctx.grid_side();
  if (ctx.config().tensor_mode == core::TpMode::k3d) {
    return reassemble_blocks(flat, br, bc, q * q, q, [q](int m) {
      const int i = m / (q * q), j = (m / q) % q, k = m % q;
      return std::pair<int, int>{i * q + k, j};
    });
  }
  return reassemble_blocks(flat, br, bc, ctx.depth() * q, q, [q](int m) {
    const int dd = m / (q * q), r = (m / q) % q, c = m % q;
    return std::pair<int, int>{dd * q + r, c};
  });
}

/// This rank's block of the full dlogits, in the layout its head produced
/// (the inverse of gather_logits).
inline tensor::Tensor shard_logits(const std::optional<tp::Env>& env,
                                   const tensor::Tensor& full) {
  if (layout_replicated(env)) return full;
  auto& ctx = *env->ctx;
  const int g = env->grank;
  if (ctx.config().tensor_mode == core::TpMode::k3d) {
    return tp::Linear3D::shard_output(full, ctx.grid_side(), ctx.cube_i(g),
                                      ctx.cube_j(g), ctx.cube_k(g));
  }
  return tp::Linear2p5D::shard_activation(full, ctx.grid_side(), ctx.depth(),
                                          ctx.depth_coord(g), ctx.row_coord(g),
                                          ctx.col_coord(g));
}

}  // namespace ca::models::detail
