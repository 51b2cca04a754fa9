// Validation of the cache-blocked SIMD GEMM (tensor/gemm.hpp) against the
// naive triple-loop references it replaced on the hot path. The shapes are
// chosen adversarially for the tiling: primes, 1-extents, and dimensions just
// above/below the MR/NR/MC/KC/NC block boundaries, so every edge-padding path
// in the packing code is exercised.

#include <gtest/gtest.h>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace t = ca::tensor;

namespace {

// Blocked accumulation reorders the k-sum into KC-sized partials, so results
// differ from the naive reference by float rounding only.
constexpr float kRtol = 1e-4f;
constexpr float kAtol = 1e-4f;

struct Mnk {
  std::int64_t m, n, k;
};

// k=1 / n=1 / m=1 degenerate GEMVs, primes, off-by-one tile edges
// (MR=8, NR=16, MC=128, KC=256, NC=1024: MR +-1 rows and NR +-1 columns, one
// and two tiles deep), and the m=32 transformer-block shapes.
const Mnk kShapes[] = {
    {1, 1, 1},       {1, 7, 1},       {7, 1, 13},     {1, 1, 300},
    {17, 19, 23},    {8, 16, 256},    {9, 17, 257},   {7, 15, 255},
    {16, 32, 64},    {17, 33, 65},    {15, 31, 63},   {4, 16, 256},
    {5, 17, 257},    {3, 15, 255},    {127, 31, 129}, {128, 16, 1},
    {129, 1031, 257}, {64, 64, 64},   {251, 67, 509}, {32, 128, 192},
    {32, 256, 128},
};

t::Tensor rand_mat(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  return t::randn(t::Shape{r, c}, seed);
}

void expect_close(const t::Tensor& got, const t::Tensor& want, const Mnk& s,
                  const char* variant) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(t::allclose(got, want, kRtol, kAtol))
      << variant << " m=" << s.m << " n=" << s.n << " k=" << s.k
      << " max_diff=" << t::max_diff(got, want);
}

// Drive the blocked kernel directly (below-cutoff shapes would otherwise be
// routed to the naive path by the matmul wrappers).
t::Tensor blocked_nn(const t::Tensor& a, const t::Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  t::Tensor out(t::Shape{m, n}, 0.0f);
  t::detail::gemm_blocked(m, n, k, a.data().data(), k, 1, b.data().data(), n, 1,
                          out.data().data());
  return out;
}

t::Tensor blocked_tn(const t::Tensor& a, const t::Tensor& b) {
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  t::Tensor out(t::Shape{m, n}, 0.0f);
  t::detail::gemm_blocked(m, n, k, a.data().data(), 1, m, b.data().data(), n, 1,
                          out.data().data());
  return out;
}

t::Tensor blocked_nt(const t::Tensor& a, const t::Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  t::Tensor out(t::Shape{m, n}, 0.0f);
  t::detail::gemm_blocked(m, n, k, a.data().data(), k, 1, b.data().data(), 1, k,
                          out.data().data());
  return out;
}

}  // namespace

TEST(Gemm, BlockedMatchesNaiveNN) {
  for (const auto& s : kShapes) {
    auto a = rand_mat(s.m, s.k, 1000 + s.m);
    auto b = rand_mat(s.k, s.n, 2000 + s.n);
    expect_close(blocked_nn(a, b), t::naive_matmul(a, b), s, "NN");
  }
}

TEST(Gemm, BlockedMatchesNaiveTN) {
  for (const auto& s : kShapes) {
    auto a = rand_mat(s.k, s.m, 3000 + s.m);
    auto b = rand_mat(s.k, s.n, 4000 + s.n);
    expect_close(blocked_tn(a, b), t::naive_matmul_tn(a, b), s, "TN");
  }
}

TEST(Gemm, BlockedMatchesNaiveNT) {
  for (const auto& s : kShapes) {
    auto a = rand_mat(s.m, s.k, 5000 + s.m);
    auto b = rand_mat(s.n, s.k, 6000 + s.n);
    expect_close(blocked_nt(a, b), t::naive_matmul_nt(a, b), s, "NT");
  }
}

TEST(Gemm, PublicMatmulRoutesLargeShapesCorrectly) {
  // Above the cutoff the public entry points use the blocked kernel; check
  // them end to end against the references, including a 3-d batched lhs.
  auto a = rand_mat(130, 260, 11);
  auto b = rand_mat(260, 70, 12);
  Mnk s{130, 70, 260};
  expect_close(t::matmul(a, b), t::naive_matmul(a, b), s, "public NN");
  expect_close(t::matmul_nt(a, t::transpose2d(b)),
               t::naive_matmul(a, b), s, "public NT");
  expect_close(t::matmul_tn(t::transpose2d(a), b),
               t::naive_matmul(a, b), s, "public TN");

  auto a3 = t::randn(t::Shape{3, 65, 140}, 13);
  auto b3 = t::randn(t::Shape{3, 140, 129}, 14);
  auto got = t::bmm(a3, b3);
  for (std::int64_t bt = 0; bt < 3; ++bt) {
    auto ga = t::chunk(a3, 0, 3, bt).reshape(t::Shape{65, 140});
    auto gb = t::chunk(b3, 0, 3, bt).reshape(t::Shape{140, 129});
    auto want = t::naive_matmul(ga, gb);
    auto slice = t::chunk(got, 0, 3, bt).reshape(t::Shape{65, 129});
    EXPECT_TRUE(t::allclose(slice, want, kRtol, kAtol))
        << "bmm batch " << bt << " max_diff=" << t::max_diff(slice, want);
  }
}

TEST(Gemm, AccumulatesIntoExistingC) {
  // The kernel contract is C += A*B; verify it does not clobber prior C.
  auto a = rand_mat(9, 33, 21);
  auto b = rand_mat(33, 18, 22);
  t::Tensor c = t::full(t::Shape{9, 18}, 2.0f);
  t::detail::gemm_blocked(9, 18, 33, a.data().data(), 33, 1, b.data().data(),
                          18, 1, c.data().data());
  auto want = t::add_scalar(t::naive_matmul(a, b), 2.0f);
  EXPECT_TRUE(t::allclose(c, want, kRtol, kAtol));
}
