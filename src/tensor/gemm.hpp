#pragma once

#include <cstdint>

/// Cache-blocked single-precision GEMM microkernel (see DESIGN.md,
/// "Kernel & collective design"). The public entry point accumulates
///
///     C[i, j] += sum_p A(i, p) * B(p, j)
///
/// where A and B are read through arbitrary (row, col) element strides, so
/// one kernel serves the NN / NT / TN matmul variants: a transposed operand
/// is just a stride swap, and the packing step linearizes it either way.
/// C must be a contiguous row-major m x n buffer (typically zero-filled by
/// the caller).
namespace ca::tensor::detail {

/// Blocked, packed, SIMD GEMM. `a_rs`/`a_cs` are the element strides of A
/// such that A(i, p) = A[i * a_rs + p * a_cs]; likewise B(p, j) =
/// B[p * b_rs + j * b_cs]. The MC-row blocks of C are split across the
/// caller's thread budget through tensor::parallel_for. Called from inside a
/// parallel region (the batched matmul's batch loop), it runs serially on
/// that thread; each row block's arithmetic is the same either way, so the
/// result does not depend on the team.
void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t a_rs, std::int64_t a_cs,
                  const float* b, std::int64_t b_rs, std::int64_t b_cs,
                  float* c);

/// Problems smaller than this many multiply-adds skip the blocked path: the
/// packing overhead is not worth it, and the naive loops stay in L1 anyway.
constexpr std::int64_t kBlockedGemmCutoff = 1 << 18;

}  // namespace ca::tensor::detail
