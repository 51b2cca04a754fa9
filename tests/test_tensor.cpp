// Unit tests for the tensor substrate: shapes, storage semantics, kernels,
// fp16 conversion, and shape ops. Gradient kernels are checked against
// central finite differences, and every parallel kernel against itself
// under other OpenMP team sizes (ParallelFor.*).

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>

#include "collective/backend.hpp"
#include "nn/module.hpp"
#include "optim/optimizer.hpp"
#include "sim/cluster.hpp"
#include "tensor/convert.hpp"
#include "tensor/half.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/tensor.hpp"

namespace t = ca::tensor;

TEST(Shape, BasicProperties) {
  t::Shape s{2, 3, 4};
  EXPECT_EQ(s.ndim(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.strides(), (std::vector<std::int64_t>{12, 4, 1}));
  EXPECT_EQ(s.with_dim(-1, 7), (t::Shape{2, 3, 7}));
  EXPECT_EQ(s.str(), "[2, 3, 4]");
}

TEST(Shape, ScalarShape) {
  t::Shape s{};
  EXPECT_EQ(s.ndim(), 0u);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Tensor, SharedStorageOnCopy) {
  t::Tensor a(t::Shape{4}, 1.0f);
  t::Tensor b = a;  // shallow
  b[0] = 42.0f;
  EXPECT_EQ(a[0], 42.0f);
  EXPECT_TRUE(a.shares_storage_with(b));

  t::Tensor c = a.clone();
  c[0] = 7.0f;
  EXPECT_EQ(a[0], 42.0f);
  EXPECT_FALSE(a.shares_storage_with(c));
}

TEST(Tensor, ReshapeSharesStorage) {
  t::Tensor a(t::Shape{2, 6}, 3.0f);
  t::Tensor b = a.reshape(t::Shape{3, 4});
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(b.shape(), (t::Shape{3, 4}));
}

TEST(Tensor, At2d) {
  t::Tensor a = t::arange(6).reshape(t::Shape{2, 3});
  EXPECT_EQ(a.at(1, 2), 5.0f);
  a.at(0, 1) = -1.0f;
  EXPECT_EQ(a[1], -1.0f);
}

TEST(Creation, RandnDeterministic) {
  auto a = t::randn(t::Shape{128}, 1234);
  auto b = t::randn(t::Shape{128}, 1234);
  auto c = t::randn(t::Shape{128}, 999);
  EXPECT_EQ(t::max_diff(a, b), 0.0f);
  EXPECT_GT(t::max_diff(a, c), 0.0f);
}

TEST(Creation, RandnMoments) {
  auto a = t::randn(t::Shape{20000}, 7, 2.0f, 0.5f);
  EXPECT_NEAR(t::mean(a), 2.0f, 0.02f);
  double var = 0.0;
  for (float v : a.data()) var += (v - 2.0) * (v - 2.0);
  var /= static_cast<double>(a.numel());
  EXPECT_NEAR(var, 0.25, 0.01);
}

TEST(Creation, UniformRange) {
  auto a = t::uniform(t::Shape{1000}, 3, -2.0f, 5.0f);
  for (float v : a.data()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Elementwise, AddSubMul) {
  auto a = t::arange(4);
  auto b = t::full(t::Shape{4}, 2.0f);
  EXPECT_EQ(t::add(a, b)[3], 5.0f);
  EXPECT_EQ(t::sub(a, b)[0], -2.0f);
  EXPECT_EQ(t::mul(a, b)[2], 4.0f);
  EXPECT_EQ(t::add_scalar(a, 10.0f)[1], 11.0f);
  EXPECT_EQ(t::mul_scalar(a, -1.0f)[3], -3.0f);
}

TEST(Elementwise, InPlace) {
  auto a = t::ones(t::Shape{3});
  auto b = t::arange(3);
  t::add_(a, b);
  EXPECT_EQ(a[2], 3.0f);
  t::axpy_(a, 2.0f, b);
  EXPECT_EQ(a[2], 7.0f);
  t::scale_(a, 0.5f);
  EXPECT_EQ(a[2], 3.5f);
}

TEST(Elementwise, AddBiasBroadcast) {
  auto a = t::zeros(t::Shape{2, 2, 3});
  auto bias = t::arange(3);
  auto y = t::add_bias(a, bias);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(y[r * 3 + 0], 0.0f);
    EXPECT_EQ(y[r * 3 + 1], 1.0f);
    EXPECT_EQ(y[r * 3 + 2], 2.0f);
  }
}

TEST(Matmul, Known2x2) {
  t::Tensor a(t::Shape{2, 2}, {1, 2, 3, 4});
  t::Tensor b(t::Shape{2, 2}, {5, 6, 7, 8});
  auto c = t::matmul(a, b);
  EXPECT_EQ(c[0], 19.0f);
  EXPECT_EQ(c[1], 22.0f);
  EXPECT_EQ(c[2], 43.0f);
  EXPECT_EQ(c[3], 50.0f);
}

TEST(Matmul, LeadingDimsCollapse) {
  auto a = t::randn(t::Shape{2, 3, 4}, 1);
  auto b = t::randn(t::Shape{4, 5}, 2);
  auto c = t::matmul(a, b);
  EXPECT_EQ(c.shape(), (t::Shape{2, 3, 5}));
  // equals flattening the leading dims
  auto c2 = t::matmul(a.reshape(t::Shape{6, 4}), b);
  EXPECT_EQ(t::max_diff(c.reshape(t::Shape{6, 5}), c2), 0.0f);
}

TEST(Matmul, TransposedVariantsAgree) {
  auto a = t::randn(t::Shape{3, 4}, 10);
  auto b = t::randn(t::Shape{4, 5}, 11);
  auto ref = t::matmul(a, b);
  // matmul_tn(a^T, b) == a b
  auto viaTN = t::matmul_tn(t::transpose2d(a), b);
  EXPECT_LT(t::max_diff(ref, viaTN), 1e-5f);
  // matmul_nt(a, b^T) == a b
  auto viaNT = t::matmul_nt(a, t::transpose2d(b));
  EXPECT_LT(t::max_diff(ref, viaNT), 1e-5f);
}

TEST(Matmul, BmmAgainstLoop) {
  auto a = t::randn(t::Shape{3, 2, 4}, 20);
  auto b = t::randn(t::Shape{3, 4, 5}, 21);
  auto c = t::bmm(a, b);
  for (int i = 0; i < 3; ++i) {
    auto ai = t::chunk(a, 0, 3, i).reshape(t::Shape{2, 4});
    auto bi = t::chunk(b, 0, 3, i).reshape(t::Shape{4, 5});
    auto ci = t::chunk(c, 0, 3, i).reshape(t::Shape{2, 5});
    EXPECT_LT(t::max_diff(ci, t::matmul(ai, bi)), 1e-5f);
  }
}

TEST(Matmul, BmmTransposedVariants) {
  auto a = t::randn(t::Shape{2, 3, 4}, 30);
  auto b = t::randn(t::Shape{2, 4, 5}, 31);
  auto ref = t::bmm(a, b);

  // bmm_nt(a, b^T-batched)
  t::Tensor bt(t::Shape{2, 5, 4});
  for (int bt_i = 0; bt_i < 2; ++bt_i) {
    auto bi = t::chunk(b, 0, 2, bt_i).reshape(t::Shape{4, 5});
    auto bit = t::transpose2d(bi);
    std::copy(bit.data().begin(), bit.data().end(),
              bt.data().begin() + bt_i * 20);
  }
  EXPECT_LT(t::max_diff(ref, t::bmm_nt(a, bt)), 1e-5f);

  // bmm_tn(a^T-batched, b)
  t::Tensor at(t::Shape{2, 4, 3});
  for (int i = 0; i < 2; ++i) {
    auto ai = t::chunk(a, 0, 2, i).reshape(t::Shape{3, 4});
    auto ait = t::transpose2d(ai);
    std::copy(ait.data().begin(), ait.data().end(),
              at.data().begin() + i * 12);
  }
  EXPECT_LT(t::max_diff(ref, t::bmm_tn(at, b)), 1e-5f);
}

TEST(Matmul, BmmNtBitIdenticalToBmmOfTransposedB) {
  // The attention-score shape (batch*heads, s, s) from (s, head_dim) rows:
  // under the blocked cutoff, bmm_nt transposes each B and runs bmm's loop,
  // so every output sums over k in the same order, bit for bit.
  const std::int64_t batch = 8, m = 16, n = 16, k = 32;
  auto a = t::randn(t::Shape{batch, m, k}, 32);
  auto b = t::randn(t::Shape{batch, n, k}, 33);
  t::Tensor bt(t::Shape{batch, k, n});
  for (std::int64_t i = 0; i < batch; ++i) {
    auto bit = t::transpose2d(
        t::chunk(b, 0, batch, i).reshape(t::Shape{n, k}));
    std::copy(bit.data().begin(), bit.data().end(),
              bt.data().begin() + i * k * n);
  }
  const auto got = t::bmm_nt(a, b);
  const auto want = t::bmm(a, bt);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        got.data().size() * sizeof(float)),
            0);
}

TEST(Reduction, SumMeanMaxAbs) {
  t::Tensor a(t::Shape{4}, {1, -2, 3, -4});
  EXPECT_EQ(t::sum(a), -2.0f);
  EXPECT_EQ(t::mean(a), -0.5f);
  EXPECT_EQ(t::max_abs(a), 4.0f);
}

TEST(Reduction, SumToLastdim) {
  auto a = t::ones(t::Shape{2, 3, 4});
  auto s = t::sum_to_lastdim(a);
  EXPECT_EQ(s.shape(), (t::Shape{4}));
  EXPECT_EQ(s[0], 6.0f);
}

TEST(Reduction, ArgmaxRows) {
  t::Tensor a(t::Shape{2, 3}, {0, 5, 1, 9, 2, 3});
  auto idx = t::argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Softmax, RowsSumToOne) {
  auto a = t::randn(t::Shape{7, 13}, 42);
  auto y = t::softmax_lastdim(a);
  for (int r = 0; r < 7; ++r) {
    float s = 0.0f;
    for (int c = 0; c < 13; ++c) s += y[r * 13 + c];
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Softmax, StableForLargeLogits) {
  t::Tensor a(t::Shape{1, 3}, {1000.0f, 1000.0f, 999.0f});
  auto y = t::softmax_lastdim(a);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_GT(y[0], y[2]);
}

namespace {

/// Central-difference gradient check for a scalar-valued loss built from a
/// unary op: loss = sum(op(x) * w) with fixed random w.
template <class Fwd, class Bwd>
void check_unary_grad(Fwd fwd, Bwd bwd, float tol = 2e-2f) {
  auto x = t::randn(t::Shape{32}, 5, 0.0f, 1.0f);
  auto w = t::randn(t::Shape{32}, 6, 0.0f, 1.0f);
  auto dy = w;  // dL/dy for L = sum(y * w)
  auto analytic = bwd(x, dy);
  const float eps = 1e-3f;
  for (int i = 0; i < 32; i += 5) {
    auto xp = x.clone();
    auto xm = x.clone();
    xp[i] += eps;
    xm[i] -= eps;
    const float lp = t::sum(t::mul(fwd(xp), w));
    const float lm = t::sum(t::mul(fwd(xm), w));
    const float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric, tol) << "at index " << i;
  }
}

}  // namespace

TEST(Grad, GeluMatchesFiniteDifference) {
  check_unary_grad([](const t::Tensor& x) { return t::gelu(x); },
                   [](const t::Tensor& x, const t::Tensor& dy) {
                     return t::gelu_backward(x, dy);
                   });
}

namespace {

/// The tanh-form GELU and its derivative in double precision.
double gelu_ref(double v) {
  const double u = 0.7978845608028654 * (v + 0.044715 * v * v * v);
  return 0.5 * v * (1.0 + std::tanh(u));
}
double gelu_grad_ref(double v) {
  const double u = 0.7978845608028654 * (v + 0.044715 * v * v * v);
  const double th = std::tanh(u);
  const double du = 0.7978845608028654 * (1.0 + 3.0 * 0.044715 * v * v);
  return 0.5 * (1.0 + th) + 0.5 * v * (1.0 - th * th) * du;
}

}  // namespace

TEST(Gelu, WithinBoundOfDoubleTanhReference) {
  // A dense grid over [-20, 20]: both tails, where the clamped exp and the
  // tail selects take over, and the curved middle. A max-abs bound, since
  // the output passes through zero.
  const std::int64_t n = 400001;
  t::Tensor x(t::Shape{n});
  for (std::int64_t i = 0; i < n; ++i)
    x[i] = -20.0f + 40.0f * static_cast<float>(i) / static_cast<float>(n - 1);
  const auto y = t::gelu(x);
  const auto g = t::gelu_backward(x, t::ones(t::Shape{n}));
  double fwd_err = 0.0, bwd_err = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double v = x[i];
    fwd_err = std::max(fwd_err, std::fabs(y[i] - gelu_ref(v)));
    bwd_err = std::max(bwd_err, std::fabs(g[i] - gelu_grad_ref(v)));
  }
  EXPECT_LT(fwd_err, 1e-6);
  EXPECT_LT(bwd_err, 1e-6);
}

TEST(Gelu, SpecialValues) {
  // Each value at every position mod 7 of a 49-element tensor, so it meets
  // the vector body and the remainder of the simd loop alike.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float in[7] = {0.0f, 100.0f, -100.0f, inf, -inf, nan, 1.0f};
  t::Tensor x(t::Shape{49});
  for (std::int64_t i = 0; i < 49; ++i) x[i] = in[(i + i / 7) % 7];
  const auto y = t::gelu(x);
  const auto g = t::gelu_backward(x, t::full(t::Shape{49}, 2.0f));
  for (std::int64_t i = 0; i < 49; ++i) {
    const float v = x[i];
    SCOPED_TRACE("v = " + std::to_string(v));
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(y[i]));
      EXPECT_TRUE(std::isnan(g[i]));
    } else if (v == 1.0f) {
      EXPECT_NEAR(y[i], gelu_ref(1.0), 1e-6);
      EXPECT_NEAR(g[i], 2.0 * gelu_grad_ref(1.0), 2e-6);
    } else if (v > 0.0f) {  // 100 and +inf: the identity, slope 1
      EXPECT_EQ(y[i], v);
      EXPECT_EQ(g[i], 2.0f);
    } else if (v < 0.0f) {  // -100 and -inf: the limit -0, slope 0
      EXPECT_EQ(y[i], 0.0f);
      EXPECT_TRUE(std::signbit(y[i]));
      EXPECT_EQ(g[i], 0.0f);
    } else {  // 0: GELU(0) = 0 with slope 1/2
      EXPECT_EQ(y[i], 0.0f);
      EXPECT_EQ(g[i], 1.0f);
    }
  }
}

TEST(Grad, ReluMatchesFiniteDifference) {
  check_unary_grad([](const t::Tensor& x) { return t::relu(x); },
                   [](const t::Tensor& x, const t::Tensor& dy) {
                     return t::relu_backward(x, dy);
                   });
}

TEST(Grad, SoftmaxMatchesFiniteDifference) {
  auto x = t::randn(t::Shape{4, 8}, 15);
  auto w = t::randn(t::Shape{4, 8}, 16);
  auto y = t::softmax_lastdim(x);
  auto dx = t::softmax_backward(y, w);
  const float eps = 1e-3f;
  for (int i = 0; i < 32; i += 7) {
    auto xp = x.clone();
    auto xm = x.clone();
    xp[i] += eps;
    xm[i] -= eps;
    const float lp = t::sum(t::mul(t::softmax_lastdim(xp), w));
    const float lm = t::sum(t::mul(t::softmax_lastdim(xm), w));
    EXPECT_NEAR(dx[i], (lp - lm) / (2.0f * eps), 1e-2f);
  }
}

TEST(LayerNorm, NormalizesRows) {
  auto x = t::randn(t::Shape{5, 64}, 77, 3.0f, 2.0f);
  auto gamma = t::ones(t::Shape{64});
  auto beta = t::zeros(t::Shape{64});
  t::Tensor mu, rstd;
  auto y = t::layernorm_forward(x, gamma, beta, 1e-5f, mu, rstd);
  for (int r = 0; r < 5; ++r) {
    float m = 0.0f, v = 0.0f;
    for (int c = 0; c < 64; ++c) m += y[r * 64 + c];
    m /= 64.0f;
    for (int c = 0; c < 64; ++c) v += (y[r * 64 + c] - m) * (y[r * 64 + c] - m);
    v /= 64.0f;
    EXPECT_NEAR(m, 0.0f, 1e-4f);
    EXPECT_NEAR(v, 1.0f, 1e-2f);
  }
}

TEST(LayerNorm, BackwardMatchesFiniteDifference) {
  const int rows = 3, h = 16;
  auto x = t::randn(t::Shape{rows, h}, 8);
  auto gamma = t::uniform(t::Shape{h}, 9, 0.5f, 1.5f);
  auto beta = t::randn(t::Shape{h}, 10);
  auto w = t::randn(t::Shape{rows, h}, 11);

  t::Tensor mu, rstd;
  auto y = t::layernorm_forward(x, gamma, beta, 1e-5f, mu, rstd);
  auto dgamma = t::zeros(t::Shape{h});
  auto dbeta = t::zeros(t::Shape{h});
  auto dx = t::layernorm_backward(x, w, gamma, mu, rstd, dgamma, dbeta);

  const float eps = 1e-2f;
  auto loss = [&](const t::Tensor& xx) {
    t::Tensor m2, r2;
    return t::sum(t::mul(t::layernorm_forward(xx, gamma, beta, 1e-5f, m2, r2), w));
  };
  for (int i = 0; i < rows * h; i += 11) {
    auto xp = x.clone();
    auto xm = x.clone();
    xp[i] += eps;
    xm[i] -= eps;
    EXPECT_NEAR(dx[i], (loss(xp) - loss(xm)) / (2.0f * eps), 5e-2f);
  }
  // dbeta is just the sum of dy over rows
  auto expected_dbeta = t::sum_to_lastdim(w);
  EXPECT_LT(t::max_diff(dbeta, expected_dbeta), 1e-4f);
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  const int n = 4, c = 8;
  auto logits = t::zeros(t::Shape{n, c});
  std::vector<std::int64_t> labels{0, 1, 2, 3};
  t::Tensor dl;
  const float loss = t::cross_entropy(logits, labels, dl);
  EXPECT_NEAR(loss, std::log(static_cast<float>(c)), 1e-5f);
  // gradient sums to zero per row
  for (int r = 0; r < n; ++r) {
    float s = 0.0f;
    for (int j = 0; j < c; ++j) s += dl[r * c + j];
    EXPECT_NEAR(s, 0.0f, 1e-6f);
  }
}

TEST(CrossEntropy, GradMatchesFiniteDifference) {
  const int n = 3, c = 5;
  auto logits = t::randn(t::Shape{n, c}, 33);
  std::vector<std::int64_t> labels{4, 0, 2};
  t::Tensor dl;
  t::cross_entropy(logits, labels, dl);
  const float eps = 1e-3f;
  for (int i = 0; i < n * c; ++i) {
    auto lp = logits.clone();
    auto lm = logits.clone();
    lp[i] += eps;
    lm[i] -= eps;
    t::Tensor tmp;
    const float fp = t::cross_entropy(lp, labels, tmp);
    const float fm = t::cross_entropy(lm, labels, tmp);
    EXPECT_NEAR(dl[i], (fp - fm) / (2.0f * eps), 1e-3f);
  }
}

TEST(ShapeOps, NarrowMiddleDim) {
  auto a = t::arange(24).reshape(t::Shape{2, 3, 4});
  auto b = t::narrow(a, 1, 1, 2);
  EXPECT_EQ(b.shape(), (t::Shape{2, 2, 4}));
  EXPECT_EQ(b[0], 4.0f);   // a[0,1,0]
  EXPECT_EQ(b[8], 16.0f);  // a[1,1,0]
}

TEST(ShapeOps, ChunkAndCatRoundTrip) {
  auto a = t::randn(t::Shape{4, 6}, 50);
  for (std::int64_t dim = 0; dim < 2; ++dim) {
    std::vector<t::Tensor> parts;
    for (int i = 0; i < 2; ++i) parts.push_back(t::chunk(a, dim, 2, i));
    auto back = t::cat(parts, dim);
    EXPECT_EQ(t::max_diff(a, back), 0.0f) << "dim=" << dim;
  }
}

TEST(ShapeOps, CatUnevenParts) {
  auto a = t::narrow(t::arange(10).reshape(t::Shape{10, 1}), 0, 0, 3);
  auto b = t::narrow(t::arange(10).reshape(t::Shape{10, 1}), 0, 3, 7);
  auto c = t::cat(std::vector<t::Tensor>{a, b}, 0);
  EXPECT_EQ(c.shape(), (t::Shape{10, 1}));
  EXPECT_EQ(c[9], 9.0f);
}

TEST(Compare, Allclose) {
  auto a = t::ones(t::Shape{4});
  auto b = t::add_scalar(a, 1e-7f);
  EXPECT_TRUE(t::allclose(a, b));
  auto c = t::add_scalar(a, 1e-2f);
  EXPECT_FALSE(t::allclose(a, c));
  EXPECT_FALSE(t::allclose(a, t::ones(t::Shape{2, 2})));  // shape mismatch
}

// ---- fp16 -------------------------------------------------------------------

TEST(Half, ExactSmallValues) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f, 1024.0f}) {
    EXPECT_EQ(t::fp16_round_trip(v), v);
  }
}

TEST(Half, RoundsToNearest) {
  // 1 + 2^-11 is exactly between fp16 neighbours 1.0 and 1+2^-10; ties to even.
  const float v = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(t::fp16_round_trip(v), 1.0f);
  const float w = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  EXPECT_EQ(t::fp16_round_trip(w), 1.0f + std::ldexp(1.0f, -9));
}

TEST(Half, OverflowToInf) {
  EXPECT_TRUE(std::isinf(t::fp16_round_trip(70000.0f)));
  EXPECT_TRUE(std::isinf(t::fp16_round_trip(-70000.0f)));
  EXPECT_LT(t::fp16_round_trip(-70000.0f), 0.0f);
}

TEST(Half, SubnormalsRepresentable) {
  const float tiny = std::ldexp(1.0f, -24);  // smallest fp16 subnormal
  EXPECT_EQ(t::fp16_round_trip(tiny), tiny);
  const float denorm = 3.0f * std::ldexp(1.0f, -24);
  EXPECT_EQ(t::fp16_round_trip(denorm), denorm);
}

TEST(Half, UnderflowToZero) {
  EXPECT_EQ(t::fp16_round_trip(std::ldexp(1.0f, -30)), 0.0f);
}

TEST(Half, NanPropagates) {
  EXPECT_TRUE(std::isnan(t::fp16_round_trip(std::nanf(""))));
}

TEST(Half, RelativeErrorBounded) {
  // normal range: relative error <= 2^-11
  auto xs = t::uniform(t::Shape{1000}, 60, -1000.0f, 1000.0f);
  for (float v : xs.data()) {
    if (std::fabs(v) < 1e-3f) continue;
    const float r = t::fp16_round_trip(v);
    EXPECT_LE(std::fabs(r - v) / std::fabs(v), 1.0f / 2048.0f + 1e-7f);
  }
}

// ---- ParallelFor: one entry point, results independent of the team ---------

TEST(ParallelFor, CoversTheRangeOnceInDisjointChunks) {
  const std::int64_t n = 10 * t::kElemGrain + 3;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  std::atomic<int> chunks{0};
  t::parallel_for(n, t::kElemGrain, [&](std::int64_t lo, std::int64_t hi) {
    ++chunks;
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_LE(chunks.load(), std::min(t::thread_budget(), 11));

  // At or below one grain the body runs once, on the calling thread.
  chunks = 0;
  t::parallel_for(t::kElemGrain, t::kElemGrain,
                  [&](std::int64_t lo, std::int64_t hi) {
    ++chunks;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, t::kElemGrain);
    EXPECT_EQ(omp_in_parallel(), 0);
  });
  EXPECT_EQ(chunks.load(), 1);
  t::parallel_for(0, 1, [&](std::int64_t, std::int64_t) { ADD_FAILURE(); });
}

namespace {

/// Team sizes the bit-identity checks sweep: one thread, two uneven splits,
/// and one thread per processor.
std::vector<int> teams() { return {1, 2, 3, omp_get_num_procs()}; }

/// Run `kernel` once per team size (the calling thread's OpenMP budget times
/// `cap_per_team`) and require every output to match the one-thread run
/// byte for byte.
void expect_team_invariant(
    const std::function<std::vector<t::Tensor>()>& kernel,
    int cap_per_team = 1) {
  const int saved = omp_get_max_threads();
  std::vector<t::Tensor> ref;
  for (const int team : teams()) {
    omp_set_num_threads(team * cap_per_team);
    std::vector<t::Tensor> out = kernel();
    if (ref.empty()) {
      ref = std::move(out);
      continue;
    }
    ASSERT_EQ(out.size(), ref.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].shape(), ref[i].shape());
      EXPECT_EQ(std::memcmp(out[i].data().data(), ref[i].data().data(),
                            out[i].data().size_bytes()),
                0)
          << "output " << i << " differs at team " << team << " (max diff "
          << t::max_diff(out[i], ref[i]) << ")";
    }
  }
  omp_set_num_threads(saved);
}

t::Tensor scalar(float v) { return t::full(t::Shape{1}, v); }

}  // namespace

TEST(ParallelFor, ElementwiseBitIdenticalAcrossTeams) {
  const std::int64_t n = 5 * t::kElemGrain + 11;
  const auto a = t::randn(t::Shape{n}, 1);
  const auto b = t::randn(t::Shape{n}, 2);
  const auto rows = t::randn(t::Shape{3001, 97}, 3);
  const auto bias = t::randn(t::Shape{97}, 4);
  expect_team_invariant([&] {
    auto acc = a.clone();
    t::add_(acc, b);
    t::axpy_(acc, 0.37f, b);
    t::scale_(acc, 1.7f);
    return std::vector<t::Tensor>{t::add(a, b), t::sub(a, b), t::mul(a, b),
                                  t::add_scalar(a, 0.3f), acc,
                                  t::add_bias(rows, bias)};
  });
}

TEST(ParallelFor, ActivationsBitIdenticalAcrossTeams) {
  const auto x = t::randn(t::Shape{301, 401}, 5);
  const auto dy = t::randn(t::Shape{301, 401}, 6);
  expect_team_invariant([&] {
    auto y = t::softmax_lastdim_scaled(x, 0.125f);
    return std::vector<t::Tensor>{t::gelu(x), t::gelu_backward(x, dy), y,
                                  t::softmax_backward_scaled(y, dy, 0.125f)};
  });
}

TEST(ParallelFor, LayerNormBitIdenticalAcrossTeams) {
  const auto x = t::randn(t::Shape{2003, 67}, 7, 0.5f, 2.0f);
  const auto dy = t::randn(t::Shape{2003, 67}, 8);
  const auto gamma = t::randn(t::Shape{67}, 9);
  const auto beta = t::randn(t::Shape{67}, 10);
  expect_team_invariant([&] {
    t::Tensor mean, rstd;
    auto y = t::layernorm_forward(x, gamma, beta, 1e-5f, mean, rstd);
    auto dgamma = t::full(t::Shape{67}, 0.5f);
    auto dbeta = t::full(t::Shape{67}, -0.5f);
    auto dx = t::layernorm_backward(x, dy, gamma, mean, rstd, dgamma, dbeta);
    return std::vector<t::Tensor>{y, mean, rstd, dx, dgamma, dbeta};
  });
}

TEST(ParallelFor, CrossEntropyBitIdenticalAcrossTeams) {
  const std::int64_t n = 4099, c = 37;
  const auto logits = t::randn(t::Shape{n, c}, 11, 0.0f, 3.0f);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    labels[static_cast<std::size_t>(r)] = (r * 7) % c;
  }
  expect_team_invariant([&] {
    t::Tensor dl;
    const float loss = t::cross_entropy(logits, labels, dl);
    return std::vector<t::Tensor>{scalar(loss), dl};
  });

  // A loss whose double sum lands exactly on a float rounding tie unless the
  // last two rows are summed together: row losses 2^60 and 2^36 first, two
  // of 128 last (each alone rounds away against 2^60 + 2^36), zeros between.
  // Summing per-thread partials makes the float loss depend on the team.
  const std::int64_t m = 1024;
  auto tie = t::zeros(t::Shape{m, 2});
  std::vector<std::int64_t> tie_labels(static_cast<std::size_t>(m), 0);
  // Logits {0, -1000} with label 0: the rival's exp underflows, loss is 0.
  for (std::int64_t r = 0; r < m; ++r) tie.at(r, 1) = -1000.0f;
  // Logits {v, 0} with label 1: loss is exactly v.
  const auto set_loss = [&](std::int64_t r, float v) {
    tie.at(r, 0) = v;
    tie.at(r, 1) = 0.0f;
    tie_labels[static_cast<std::size_t>(r)] = 1;
  };
  set_loss(0, std::ldexp(1.0f, 60));
  set_loss(1, std::ldexp(1.0f, 36));
  set_loss(m - 2, 128.0f);
  set_loss(m - 1, 128.0f);
  expect_team_invariant([&] {
    t::Tensor dl;
    const float loss = t::cross_entropy(tie, tie_labels, dl);
    return std::vector<t::Tensor>{scalar(loss), dl};
  });
}

TEST(ParallelFor, MatmulBitIdenticalAcrossTeams) {
  // Blocked: 400 rows is four MC row blocks. Naive: each row's n*k work is
  // over one grain, so every row is its own unit.
  const auto a = t::randn(t::Shape{400, 96}, 12);
  const auto at = t::randn(t::Shape{96, 400}, 13);
  const auto b = t::randn(t::Shape{96, 80}, 14);
  const auto bt = t::randn(t::Shape{80, 96}, 15);
  const auto na = t::randn(t::Shape{67, 200}, 16);
  const auto nat = t::randn(t::Shape{200, 67}, 17);
  const auto nb = t::randn(t::Shape{200, 190}, 18);
  const auto nbt = t::randn(t::Shape{190, 200}, 19);
  expect_team_invariant([&] {
    return std::vector<t::Tensor>{
        t::matmul(a, b),           t::matmul_tn(at, b),
        t::matmul_nt(a, bt),       t::naive_matmul(na, nb),
        t::naive_matmul_tn(nat, nb), t::naive_matmul_nt(na, nbt)};
  });
}

TEST(ParallelFor, BmmBitIdenticalAcrossTeams) {
  // Five blocked batches (64^3 is the blocked cutoff) and forty small ones
  // on the naive path.
  const auto a = t::randn(t::Shape{5, 64, 64}, 20);
  const auto b = t::randn(t::Shape{5, 64, 64}, 21);
  const auto sa = t::randn(t::Shape{40, 16, 16}, 22);
  const auto sb = t::randn(t::Shape{40, 16, 16}, 23);
  expect_team_invariant([&] {
    return std::vector<t::Tensor>{t::bmm(a, b),     t::bmm_nt(a, b),
                                  t::bmm_tn(a, b),  t::bmm(sa, sb),
                                  t::bmm_nt(sa, sb), t::bmm_tn(sa, sb)};
  });
}

TEST(ParallelFor, HalfRoundTripBitIdenticalAcrossTeams) {
  const std::int64_t n = 4 * t::kElemGrain + 5;
  const auto x = t::randn(t::Shape{n}, 24, 0.0f, 1000.0f);
  expect_team_invariant([&] {
    t::Tensor f16(x.shape()), bf16(x.shape());
    t::round_trip_f16(x.data().data(), f16.data().data(), n);
    t::round_trip_bf16(x.data().data(), bf16.data().data(), n);
    return std::vector<t::Tensor>{f16, bf16};
  });
}

TEST(ParallelFor, OptimizersBitIdenticalAcrossTeams) {
  const std::int64_t n = 6 * t::kElemGrain + 1;
  const auto w0 = t::randn(t::Shape{n}, 25);
  const auto g = t::randn(t::Shape{n}, 26);
  expect_team_invariant([&] {
    ca::nn::Parameter ps("sgd", w0.clone()), pa("adam", w0.clone());
    ca::optim::Sgd sgd({&ps}, 0.1f, 0.9f);
    ca::optim::Adam adam(
        {&pa}, ca::optim::Adam::Hyper{.lr = 1e-2f, .weight_decay = 0.01f});
    for (int step = 0; step < 3; ++step) {
      ps.grad = g.clone();
      pa.grad = g.clone();
      sgd.step();
      adam.step();
    }
    return std::vector<t::Tensor>{ps.value, pa.value};
  });
}

TEST(ParallelFor, AllReduceBitIdenticalAcrossTeams) {
  // Each rank gets cap / 4 threads, so the host cap is team x 4; 2^20
  // elements give every reduce_members call many blocks to split.
  const int world = 4;
  const std::int64_t n = 1 << 20;
  std::vector<t::Tensor> in;
  for (int r = 0; r < world; ++r) in.push_back(t::randn(t::Shape{n}, 30 + r));
  expect_team_invariant(
      [&] {
        ca::sim::Cluster cluster(ca::sim::Topology::uniform(world, 100e9));
        ca::collective::Backend backend(cluster);
        std::vector<t::Tensor> out;
        for (const auto& x : in) out.push_back(x.clone());
        cluster.run([&](int r) {
          backend.world().all_reduce(r, out[static_cast<std::size_t>(r)].data(),
                                     0.25f);
        });
        return out;
      },
      world);
}
