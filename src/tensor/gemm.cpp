#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "tensor/parallel.hpp"

namespace ca::tensor::detail {

namespace {

// Register tile: MR rows of C by NR columns, accumulated in (compiler)
// registers across the full KC depth before touching C — cuts C traffic by
// a factor of MR versus the naive rank-1-update loop. 8 x 16 is sixteen
// 8-lane accumulators: enough independent FMA chains to cover the FMA
// latency on two ports, with room left in the register file for the B row
// and the A broadcast. A 4-row tile leaves the FMA units half idle.
constexpr std::int64_t kMr = 8;
constexpr std::int64_t kNr = 16;
// Cache blocks: an MC x KC packed A block (L2-resident) is multiplied by a
// KC x NC packed B panel (streamed NR columns at a time).
constexpr std::int64_t kMc = 128;
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kNc = 1024;

static_assert(kMc % kMr == 0 && kNc % kNr == 0);

std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}

/// Pack an mc x kc block of A into MR-row strips: strip s holds
/// dst[s][p * MR + r] = A(s*MR + r, p), rows past mc padded with zeros so the
/// microkernel never branches on the row edge.
void pack_a(const float* a, std::int64_t a_rs, std::int64_t a_cs,
            std::int64_t mc, std::int64_t kc, float* dst) {
  for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
    const std::int64_t mr = std::min(kMr, mc - i0);
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* col = a + i0 * a_rs + p * a_cs;
      for (std::int64_t r = 0; r < mr; ++r) dst[r] = col[r * a_rs];
      for (std::int64_t r = mr; r < kMr; ++r) dst[r] = 0.0f;
      dst += kMr;
    }
  }
}

/// Pack a kc x nc block of B into NR-column strips: strip s holds
/// dst[s][p * NR + c] = B(p, s*NR + c), columns past nc padded with zeros.
void pack_b(const float* b, std::int64_t b_rs, std::int64_t b_cs,
            std::int64_t kc, std::int64_t nc, float* dst) {
  for (std::int64_t j0 = 0; j0 < nc; j0 += kNr) {
    const std::int64_t nr = std::min(kNr, nc - j0);
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* row = b + p * b_rs + j0 * b_cs;
      for (std::int64_t c = 0; c < nr; ++c) dst[c] = row[c * b_cs];
      for (std::int64_t c = nr; c < kNr; ++c) dst[c] = 0.0f;
      dst += kNr;
    }
  }
}

/// acc[MR][NR] += apanel(kc x MR) x bpanel(kc x NR), both packed.
void micro_kernel(std::int64_t kc, const float* apanel, const float* bpanel,
                  float* acc) {
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* ap = apanel + p * kMr;
    const float* bp = bpanel + p * kNr;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float av = ap[r];
      float* arow = acc + r * kNr;
#pragma omp simd
      for (std::int64_t c = 0; c < kNr; ++c) arow[c] += av * bp[c];
    }
  }
}

/// Grow-only per-thread packing buffers, reused across calls so the
/// steady-state GEMM path performs no allocation beyond its output. The
/// calling thread packs B into its own buffer, which the team only reads
/// during the call; every team thread packs A blocks into its own.
std::vector<float>& apack_buffer() {
  static thread_local std::vector<float> buf;
  return buf;
}
std::vector<float>& bpack_buffer() {
  static thread_local std::vector<float> buf;
  return buf;
}

}  // namespace

void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t a_rs, std::int64_t a_cs,
                  const float* b, std::int64_t b_rs, std::int64_t b_cs,
                  float* c) {
  if (m <= 0 || n <= 0 || k <= 0) return;

  const std::int64_t row_blocks = (m + kMc - 1) / kMc;
  const std::int64_t nc_max = std::min(n, kNc);
  auto& bpack = bpack_buffer();
  bpack.resize(
      static_cast<std::size_t>(round_up(nc_max, kNr) * std::min(k, kKc)));

  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nc = std::min(kNc, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const std::int64_t kc = std::min(kKc, k - pc);
      pack_b(b + pc * b_rs + jc * b_cs, b_rs, b_cs, kc, nc, bpack.data());

      // Row blocks are independent; each is one thread's unit of work.
      parallel_for(row_blocks, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t blk = lo; blk < hi; ++blk) {
          const std::int64_t ic = blk * kMc;
          const std::int64_t mc = std::min(kMc, m - ic);
          auto& apack = apack_buffer();
          apack.resize(static_cast<std::size_t>(round_up(mc, kMr) * kc));
          pack_a(a + ic * a_rs + pc * a_cs, a_rs, a_cs, mc, kc, apack.data());

          for (std::int64_t j0 = 0; j0 < nc; j0 += kNr) {
            const std::int64_t nr = std::min(kNr, nc - j0);
            const float* bpanel = bpack.data() + (j0 / kNr) * kc * kNr;
            for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
              const std::int64_t mr = std::min(kMr, mc - i0);
              const float* apanel = apack.data() + (i0 / kMr) * kc * kMr;
              float acc[kMr * kNr] = {};
              micro_kernel(kc, apanel, bpanel, acc);
              for (std::int64_t r = 0; r < mr; ++r) {
                float* crow = c + (ic + i0 + r) * n + jc + j0;
                const float* arow = acc + r * kNr;
#pragma omp simd
                for (std::int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
              }
            }
          }
        }
      });
    }
  }
}

}  // namespace ca::tensor::detail
