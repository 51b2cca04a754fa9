#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>

#include "tensor/gemm.hpp"
#include "tensor/parallel.hpp"

namespace ca::tensor {

namespace {

/// Product of dims [0, dim) — the "outer" loop extent for axis ops.
std::int64_t outer_size(const Shape& s, std::int64_t dim) {
  std::int64_t o = 1;
  for (std::int64_t i = 0; i < dim; ++i) o *= s.dim(i);
  return o;
}

/// Product of dims (dim, ndim) — the "inner" contiguous block size.
std::int64_t inner_size(const Shape& s, std::int64_t dim) {
  std::int64_t in = 1;
  for (std::int64_t i = dim + 1; i < static_cast<std::int64_t>(s.ndim()); ++i)
    in *= s.dim(i);
  return in;
}

std::int64_t normalize_dim(const Shape& s, std::int64_t dim) {
  if (dim < 0) dim += static_cast<std::int64_t>(s.ndim());
  assert(dim >= 0 && dim < static_cast<std::int64_t>(s.ndim()));
  return dim;
}

}  // namespace

// ---- creation ---------------------------------------------------------------

Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }

Tensor arange(std::int64_t n) {
  Tensor t(Shape{n});
  auto d = t.data();
  for (std::int64_t i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = static_cast<float>(i);
  return t;
}

Tensor randn(Shape shape, std::uint64_t seed, float mean, float stddev) {
  Tensor t(std::move(shape));
  std::mt19937_64 gen(seed);
  std::normal_distribution<float> dist(mean, stddev);
  for (auto& v : t.data()) v = dist(gen);
  return t;
}

Tensor uniform(Shape shape, std::uint64_t seed, float lo, float hi) {
  Tensor t(std::move(shape));
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  for (auto& v : t.data()) v = dist(gen);
  return t;
}

// ---- elementwise --------------------------------------------------------------

namespace {
template <class F>
Tensor binary_op(const Tensor& a, const Tensor& b, F f) {
  assert(a.shape() == b.shape());
  Tensor out(a.shape());
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  parallel_for(a.numel(), kElemGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
  });
  return out;
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x * y; });
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  float* po = out.data().data();
  parallel_for(out.numel(), kElemGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] += s;
  });
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  scale_(out, s);
  return out;
}

void add_(Tensor& a, const Tensor& b) {
  assert(a.shape().numel() == b.shape().numel());
  float* pa = a.data().data();
  const float* pb = b.data().data();
  parallel_for(a.numel(), kElemGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
  });
}

void axpy_(Tensor& a, float alpha, const Tensor& x) {
  assert(a.numel() == x.numel());
  float* pa = a.data().data();
  const float* px = x.data().data();
  parallel_for(a.numel(), kElemGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) pa[i] += alpha * px[i];
  });
}

void scale_(Tensor& a, float s) {
  float* pa = a.data().data();
  parallel_for(a.numel(), kElemGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) pa[i] *= s;
  });
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  Tensor out = a.clone();
  add_bias_(out, bias);
  return out;
}

void add_bias_(Tensor& a, const Tensor& bias) {
  const std::int64_t n = a.dim(-1);
  assert(bias.numel() == n);
  float* pa = a.data().data();
  const float* pb = bias.data().data();
  const std::int64_t rows = a.numel() / n;
  parallel_for(rows, grain_for(n), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      float* row = pa + r * n;
      for (std::int64_t c = 0; c < n; ++c) row[c] += pb[c];
    }
  });
}

// ---- matmul --------------------------------------------------------------------

// The three layout variants all funnel into detail::gemm_blocked; a transposed
// operand is expressed as a (row, col) stride swap and handled by the packing
// step. The naive_* triple loops below are kept as the bit-for-bit reference
// the blocked kernel is tested against, and still serve problems too small to
// amortize packing.

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  assert(b.ndim() == 2);
  const std::int64_t k = a.dim(-1);
  assert(k == b.dim(0));
  const std::int64_t n = b.dim(1);
  const std::int64_t m = a.numel() / k;

  auto out_shape = a.shape().with_dim(-1, n);
  Tensor out(out_shape, 0.0f);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  parallel_for(m, grain_for(n * k), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      float* orow = po + i * n;
      const float* arow = pa + i * k;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float* brow = pb + kk * n;
        for (std::int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  });
  return out;
}

Tensor naive_matmul_tn(const Tensor& a, const Tensor& b) {
  // a: (k, m) possibly with leading dims collapsed into k; b: (k, n)
  const std::int64_t m = a.dim(-1);
  const std::int64_t k = a.numel() / m;
  assert(b.numel() / b.dim(-1) == k);
  const std::int64_t n = b.dim(-1);
  Tensor out(Shape{m, n}, 0.0f);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  parallel_for(m, grain_for(n * k), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      float* orow = po + i * n;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = pa[kk * m + i];
        const float* brow = pb + kk * n;
        for (std::int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  });
  return out;
}

Tensor naive_matmul_nt(const Tensor& a, const Tensor& b) {
  assert(b.ndim() == 2);
  const std::int64_t k = a.dim(-1);
  assert(k == b.dim(1));
  const std::int64_t n = b.dim(0);
  const std::int64_t m = a.numel() / k;
  auto out_shape = a.shape().with_dim(-1, n);
  Tensor out(out_shape, 0.0f);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  parallel_for(m, grain_for(n * k), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* arow = pa + i * k;
      float* orow = po + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = pb + j * k;
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        orow[j] = acc;
      }
    }
  });
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(b.ndim() == 2);
  const std::int64_t k = a.dim(-1);
  assert(k == b.dim(0));
  const std::int64_t n = b.dim(1);
  const std::int64_t m = a.numel() / k;
  if (m * n * k < detail::kBlockedGemmCutoff) return naive_matmul(a, b);

  Tensor out(a.shape().with_dim(-1, n), 0.0f);
  detail::gemm_blocked(m, n, k, a.data().data(), k, 1, b.data().data(), n, 1,
                       out.data().data());
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(-1);
  const std::int64_t k = a.numel() / m;
  assert(b.numel() / b.dim(-1) == k);
  const std::int64_t n = b.dim(-1);
  if (m * n * k < detail::kBlockedGemmCutoff) return naive_matmul_tn(a, b);

  Tensor out(Shape{m, n}, 0.0f);
  detail::gemm_blocked(m, n, k, a.data().data(), 1, m, b.data().data(), n, 1,
                       out.data().data());
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  assert(b.ndim() == 2);
  const std::int64_t k = a.dim(-1);
  assert(k == b.dim(1));
  const std::int64_t n = b.dim(0);
  const std::int64_t m = a.numel() / k;
  if (m * n * k < detail::kBlockedGemmCutoff) return naive_matmul_nt(a, b);

  Tensor out(a.shape().with_dim(-1, n), 0.0f);
  detail::gemm_blocked(m, n, k, a.data().data(), k, 1, b.data().data(), 1, k,
                       out.data().data());
  return out;
}

namespace {
enum class BmmMode { NN, NT, TN };

/// The (rows, cols) row-major matrix `b` transposed into this thread's
/// grow-only scratch buffer, valid until the thread's next call.
const float* transposed(const float* b, std::int64_t rows, std::int64_t cols) {
  static thread_local std::vector<float> buf;
  buf.resize(static_cast<std::size_t>(rows * cols));
  float* dst = buf.data();
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = b[r * cols + c];
  return dst;
}

Tensor bmm_impl(const Tensor& a, const Tensor& b, BmmMode mode) {
  assert(a.ndim() == 3 && b.ndim() == 3);
  const std::int64_t batch = a.dim(0);
  assert(batch == b.dim(0));
  std::int64_t m = 0, n = 0, k = 0;
  switch (mode) {
    case BmmMode::NN:
      m = a.dim(1), k = a.dim(2), n = b.dim(2);
      assert(b.dim(1) == k);
      break;
    case BmmMode::NT:
      m = a.dim(1), k = a.dim(2), n = b.dim(1);
      assert(b.dim(2) == k);
      break;
    case BmmMode::TN:
      m = a.dim(2), k = a.dim(1), n = b.dim(2);
      assert(b.dim(1) == k);
      break;
  }
  Tensor out(Shape{batch, m, n}, 0.0f);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  const std::int64_t a_sz = a.dim(1) * a.dim(2);
  const std::int64_t b_sz = b.dim(1) * b.dim(2);

  if (m * n * k >= detail::kBlockedGemmCutoff) {
    // Per-batch strides for the blocked kernel: a transposed operand is a
    // stride swap, exactly as in the 2-d matmul variants.
    std::int64_t a_rs = k, a_cs = 1, b_rs = n, b_cs = 1;
    if (mode == BmmMode::TN) a_rs = 1, a_cs = m;
    if (mode == BmmMode::NT) b_rs = 1, b_cs = k;
    // Each batch GEMM is at least the blocked cutoff, so one is worth a
    // thread; inside the team the kernel's own row-block loop runs serial.
    parallel_for(batch, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t bt = lo; bt < hi; ++bt) {
        detail::gemm_blocked(m, n, k, pa + bt * a_sz, a_rs, a_cs,
                             pb + bt * b_sz, b_rs, b_cs, po + bt * m * n);
      }
    });
    return out;
  }

  parallel_for(batch, grain_for(m * n * k),
               [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t bt = lo; bt < hi; ++bt) {
      const float* A = pa + bt * a_sz;
      const float* B = pb + bt * b_sz;
      // NT's B is (n, k); B^T's rows make the j loop contiguous, and each
      // output still sums over kk in the same order.
      if (mode == BmmMode::NT) B = transposed(B, n, k);
      float* O = po + bt * m * n;
      for (std::int64_t i = 0; i < m; ++i) {
        float* orow = O + i * n;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av = mode == BmmMode::TN ? A[kk * m + i] : A[i * k + kk];
          const float* brow = B + kk * n;
          for (std::int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
        }
      }
    }
  });
  return out;
}
}  // namespace

Tensor bmm(const Tensor& a, const Tensor& b) { return bmm_impl(a, b, BmmMode::NN); }
Tensor bmm_nt(const Tensor& a, const Tensor& b) { return bmm_impl(a, b, BmmMode::NT); }
Tensor bmm_tn(const Tensor& a, const Tensor& b) { return bmm_impl(a, b, BmmMode::TN); }

Tensor transpose2d(const Tensor& a) {
  assert(a.ndim() == 2);
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out(Shape{n, m});
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      po[static_cast<std::size_t>(j * m + i)] = pa[static_cast<std::size_t>(i * n + j)];
  return out;
}

// ---- reductions -----------------------------------------------------------------

float sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  return sum(a) / static_cast<float>(a.numel());
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  for (float v : a.data()) m = std::max(m, std::fabs(v));
  return m;
}

Tensor sum_to_lastdim(const Tensor& a) {
  const std::int64_t n = a.dim(-1);
  const std::int64_t rows = a.numel() / n;
  Tensor out(Shape{n}, 0.0f);
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = pa.data() + r * n;
    for (std::int64_t c = 0; c < n; ++c) po[static_cast<std::size_t>(c)] += row[c];
  }
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  assert(a.ndim() == 2);
  const std::int64_t rows = a.dim(0), cols = a.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  auto pa = a.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = pa.data() + r * cols;
    out[static_cast<std::size_t>(r)] =
        std::max_element(row, row + cols) - row;
  }
  return out;
}

// ---- nn kernels -------------------------------------------------------------------

Tensor softmax_lastdim_scaled(const Tensor& a, float scale) {
  const std::int64_t n = a.dim(-1);
  const std::int64_t rows = a.numel() / n;
  Tensor out(a.shape());
  auto pa = a.data();
  auto po = out.data();
  parallel_for(rows, grain_for(n), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      const float* x = pa.data() + r * n;
      float* y = po.data() + r * n;
      // Online max+sum (Milakov & Gimelshein): one read sweep maintains the
      // running max and the exp-sum rescaled to it, replacing the separate
      // max / exp+sum sweeps; the attention score scale is fused into the
      // loads so callers skip their own scale_ pass over the row.
      float mx = x[0] * scale;
      float sum = 1.0f;
      for (std::int64_t i = 1; i < n; ++i) {
        const float v = x[i] * scale;
        if (v > mx) {
          sum = sum * std::exp(mx - v) + 1.0f;
          mx = v;
        } else {
          sum += std::exp(v - mx);
        }
      }
      const float inv = 1.0f / sum;
#pragma omp simd
      for (std::int64_t i = 0; i < n; ++i)
        y[i] = std::exp(x[i] * scale - mx) * inv;
    }
  });
  return out;
}

Tensor softmax_lastdim(const Tensor& a) {
  return softmax_lastdim_scaled(a, 1.0f);
}

Tensor softmax_backward_scaled(const Tensor& y, const Tensor& dy, float scale) {
  assert(y.shape() == dy.shape());
  const std::int64_t n = y.dim(-1);
  const std::int64_t rows = y.numel() / n;
  Tensor dx(y.shape());
  auto py = y.data();
  auto pdy = dy.data();
  auto pdx = dx.data();
  parallel_for(rows, grain_for(n), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      const float* yr = py.data() + r * n;
      const float* dyr = pdy.data() + r * n;
      float* dxr = pdx.data() + r * n;
      float dot = 0.0f;
#pragma omp simd reduction(+ : dot)
      for (std::int64_t i = 0; i < n; ++i) dot += yr[i] * dyr[i];
#pragma omp simd
      for (std::int64_t i = 0; i < n; ++i)
        dxr[i] = yr[i] * (dyr[i] - dot) * scale;
    }
  });
  return dx;
}

Tensor softmax_backward(const Tensor& y, const Tensor& dy) {
  return softmax_backward_scaled(y, dy, 1.0f);
}

Tensor naive_softmax_lastdim(const Tensor& a) {
  const std::int64_t n = a.dim(-1);
  const std::int64_t rows = a.numel() / n;
  Tensor out(a.shape());
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = pa.data() + r * n;
    float* y = po.data() + r * n;
    float mx = x[0];
    for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
    float denom = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = std::exp(x[i] - mx);
      denom += y[i];
    }
    const float inv = 1.0f / denom;
    for (std::int64_t i = 0; i < n; ++i) y[i] *= inv;
  }
  return out;
}

Tensor naive_softmax_backward(const Tensor& y, const Tensor& dy) {
  assert(y.shape() == dy.shape());
  const std::int64_t n = y.dim(-1);
  const std::int64_t rows = y.numel() / n;
  Tensor dx(y.shape());
  auto py = y.data();
  auto pdy = dy.data();
  auto pdx = dx.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* yr = py.data() + r * n;
    const float* dyr = pdy.data() + r * n;
    float* dxr = pdx.data() + r * n;
    float dot = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) dot += yr[i] * dyr[i];
    for (std::int64_t i = 0; i < n; ++i) dxr[i] = yr[i] * (dyr[i] - dot);
  }
  return dx;
}

namespace {

/// e^x for x clamped to [-87, 87], where e^x and 1 / (1 + e^x) are both
/// normal floats. Branch-free, so the `omp simd` loops below vectorize it
/// where a libm call per element would not. x = n ln2 + r with
/// |r| <= ln2 / 2; e^r is Cephes' degree-6 polynomial and 2^n goes straight
/// into the exponent bits. Relative error is a few ulp; NaN stays NaN.
inline float exp_clamped(float x) {
  constexpr float kRound = 12582912.0f;  // 1.5 * 2^23: adding it rounds to int
  constexpr std::uint32_t kRoundBits = 0x4B400000u;
  x = std::min(std::max(x, -87.0f), 87.0f);
  const float t = x * 1.44269504088896341f + kRound;  // low bits hold n
  const float n = t - kRound;
  // ln2 in two parts; the first has 10 significant bits, so n * it is exact.
  const float r = (x - n * 0.693359375f) + n * 2.12194440e-4f;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * r * r + r + 1.0f;
  const std::uint32_t scale =
      (std::bit_cast<std::uint32_t>(t) - kRoundBits + 127u) << 23;
  return p * std::bit_cast<float>(scale);
}

// tanh-form GELU: gelu(v) = 0.5 v (1 + tanh(u)), u = kGeluC (v + 0.044715 v^3).
// With 0.5 (1 + tanh(u)) = s = 1 / (1 + e) and e = e^(-2u) it is v * s, and
// its derivative 0.5 (1 + t) + 0.5 v (1 - t^2) u' is s + 2 v u' s (e s), since
// 1 - t^2 = 4 s (1 - s) and 1 - s = e s (no cancellation as s -> 1).
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
// Past |v| = kGeluTail, e^(-2|u|) < 1e-28: GELU is v or -0 and its slope 1
// or 0 to float precision. The selects pin that exactly, so +-inf give the
// limits (gelu(-inf) = -0, not -inf * 0) and no output ever depends on where
// exp_clamped saturates.
constexpr float kGeluTail = 9.0f;
// One element costs about as much as this many simple elementwise ops (the
// parallel grain): ~1.0 ns forward and ~1.3 ns backward against ~0.25 ns for
// `add`, on one AVX-512 core with 32 K elements per call.
constexpr std::int64_t kGeluWork = 4;

/// e = e^(-2u) at v.
inline float gelu_e(float v) {
  return exp_clamped(-2.0f * kGeluC * (v + 0.044715f * v * v * v));
}

}  // namespace

Tensor gelu(const Tensor& x) {
  Tensor out(x.shape());
  const float* px = x.data().data();
  float* po = out.data().data();
  parallel_for(x.numel(), grain_for(kGeluWork),
               [&](std::int64_t lo, std::int64_t hi) {
#pragma omp simd
    for (std::int64_t i = lo; i < hi; ++i) {
      const float v = px[i];
      const float s = 1.0f / (1.0f + gelu_e(v));
      po[i] = v < -kGeluTail ? -0.0f : v * s;
    }
  });
  return out;
}

Tensor gelu_backward(const Tensor& x, const Tensor& dy) {
  assert(x.shape() == dy.shape());
  Tensor dx(x.shape());
  const float* px = x.data().data();
  const float* pdy = dy.data().data();
  float* pdx = dx.data().data();
  parallel_for(x.numel(), grain_for(kGeluWork),
               [&](std::int64_t lo, std::int64_t hi) {
#pragma omp simd
    for (std::int64_t i = lo; i < hi; ++i) {
      const float v = px[i];
      const float e = gelu_e(v);
      const float s = 1.0f / (1.0f + e);
      const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
      const float grad = v < -kGeluTail  ? 0.0f
                         : v > kGeluTail ? 1.0f
                                         : s + 2.0f * v * du * s * (e * s);
      pdx[i] = pdy[i] * grad;
    }
  });
  return dx;
}

Tensor relu(const Tensor& x) {
  Tensor out(x.shape());
  auto px = x.data();
  auto po = out.data();
  for (std::size_t i = 0; i < px.size(); ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
  return out;
}

Tensor relu_backward(const Tensor& x, const Tensor& dy) {
  assert(x.shape() == dy.shape());
  Tensor dx(x.shape());
  auto px = x.data();
  auto pdy = dy.data();
  auto pdx = dx.data();
  for (std::size_t i = 0; i < px.size(); ++i) pdx[i] = px[i] > 0.0f ? pdy[i] : 0.0f;
  return dx;
}

Tensor layernorm_forward(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, float eps, Tensor& mean,
                         Tensor& rstd) {
  const std::int64_t h = x.dim(-1);
  assert(gamma.numel() == h && beta.numel() == h);
  const std::int64_t rows = x.numel() / h;
  mean = Tensor(Shape{rows});
  rstd = Tensor(Shape{rows});
  Tensor y(x.shape());
  auto px = x.data();
  auto pg = gamma.data();
  auto pb = beta.data();
  auto pm = mean.data();
  auto pr = rstd.data();
  auto py = y.data();
  parallel_for(rows, grain_for(h), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      const float* xr = px.data() + r * h;
      float* yr = py.data() + r * h;
      // Fused single read sweep: sum and sum-of-squares together (double
      // accumulators keep var = E[x^2] - mu^2 cancellation-safe for fp32
      // inputs), halving the reduction traffic of the two-pass version.
      double sum = 0.0, sumsq = 0.0;
#pragma omp simd reduction(+ : sum, sumsq)
      for (std::int64_t i = 0; i < h; ++i) {
        const double v = xr[i];
        sum += v;
        sumsq += v * v;
      }
      const double mu = sum / static_cast<double>(h);
      const double var =
          std::max(0.0, sumsq / static_cast<double>(h) - mu * mu);
      const float rs = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      const float muf = static_cast<float>(mu);
      pm[static_cast<std::size_t>(r)] = muf;
      pr[static_cast<std::size_t>(r)] = rs;
#pragma omp simd
      for (std::int64_t i = 0; i < h; ++i)
        yr[i] = (xr[i] - muf) * rs * pg[static_cast<std::size_t>(i)] +
                pb[static_cast<std::size_t>(i)];
    }
  });
  return y;
}

Tensor naive_layernorm_forward(const Tensor& x, const Tensor& gamma,
                               const Tensor& beta, float eps, Tensor& mean,
                               Tensor& rstd) {
  const std::int64_t h = x.dim(-1);
  assert(gamma.numel() == h && beta.numel() == h);
  const std::int64_t rows = x.numel() / h;
  mean = Tensor(Shape{rows});
  rstd = Tensor(Shape{rows});
  Tensor y(x.shape());
  auto px = x.data();
  auto pg = gamma.data();
  auto pb = beta.data();
  auto pm = mean.data();
  auto pr = rstd.data();
  auto py = y.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = px.data() + r * h;
    float* yr = py.data() + r * h;
    double mu = 0.0;
    for (std::int64_t i = 0; i < h; ++i) mu += xr[i];
    mu /= static_cast<double>(h);
    double var = 0.0;
    for (std::int64_t i = 0; i < h; ++i) {
      const double d = xr[i] - mu;
      var += d * d;
    }
    var /= static_cast<double>(h);
    const float rs = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    pm[static_cast<std::size_t>(r)] = static_cast<float>(mu);
    pr[static_cast<std::size_t>(r)] = rs;
    for (std::int64_t i = 0; i < h; ++i)
      yr[i] = (xr[i] - static_cast<float>(mu)) * rs * pg[static_cast<std::size_t>(i)] +
              pb[static_cast<std::size_t>(i)];
  }
  return y;
}

Tensor layernorm_backward(const Tensor& x, const Tensor& dy,
                          const Tensor& gamma, const Tensor& mean,
                          const Tensor& rstd, Tensor& dgamma, Tensor& dbeta) {
  const std::int64_t h = x.dim(-1);
  const std::int64_t rows = x.numel() / h;
  assert(dgamma.numel() == h && dbeta.numel() == h);
  Tensor dx(x.shape());
  auto px = x.data();
  auto pdy = dy.data();
  auto pg = gamma.data();
  auto pm = mean.data();
  auto pr = rstd.data();
  auto pdx = dx.data();
  auto pdg = dgamma.data();
  auto pdb = dbeta.data();
  // dx rows are independent — parallelize over rows.
  parallel_for(rows, grain_for(h), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      const float* xr = px.data() + r * h;
      const float* dyr = pdy.data() + r * h;
      float* dxr = pdx.data() + r * h;
      const float mu = pm[static_cast<std::size_t>(r)];
      const float rs = pr[static_cast<std::size_t>(r)];
      // xhat = (x - mu) * rs ; dy_hat = dy * gamma
      float sum_dyhat = 0.0f, sum_dyhat_xhat = 0.0f;
#pragma omp simd reduction(+ : sum_dyhat, sum_dyhat_xhat)
      for (std::int64_t i = 0; i < h; ++i) {
        const float xhat = (xr[i] - mu) * rs;
        const float dyhat = dyr[i] * pg[static_cast<std::size_t>(i)];
        sum_dyhat += dyhat;
        sum_dyhat_xhat += dyhat * xhat;
      }
      const float inv_h = 1.0f / static_cast<float>(h);
#pragma omp simd
      for (std::int64_t i = 0; i < h; ++i) {
        const float xhat = (xr[i] - mu) * rs;
        const float dyhat = dyr[i] * pg[static_cast<std::size_t>(i)];
        dxr[i] =
            rs * (dyhat - inv_h * sum_dyhat - xhat * inv_h * sum_dyhat_xhat);
      }
    }
  });
  // dgamma/dbeta are per-column sums over rows — parallelize over columns
  // (race-free: each thread owns a disjoint set of columns). Per-column
  // double partials accumulate in ascending-row order, then one float add
  // preserves the grad-accumulation contract (+= into caller buffers).
  parallel_for(h, grain_for(rows), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      double dg = 0.0, db = 0.0;
      for (std::int64_t r = 0; r < rows; ++r) {
        const float xv = px[static_cast<std::size_t>(r * h + i)];
        const float dyv = pdy[static_cast<std::size_t>(r * h + i)];
        const float xhat = (xv - pm[static_cast<std::size_t>(r)]) *
                           pr[static_cast<std::size_t>(r)];
        dg += static_cast<double>(dyv) * xhat;
        db += dyv;
      }
      pdg[static_cast<std::size_t>(i)] += static_cast<float>(dg);
      pdb[static_cast<std::size_t>(i)] += static_cast<float>(db);
    }
  });
  return dx;
}

Tensor naive_layernorm_backward(const Tensor& x, const Tensor& dy,
                                const Tensor& gamma, const Tensor& mean,
                                const Tensor& rstd, Tensor& dgamma,
                                Tensor& dbeta) {
  const std::int64_t h = x.dim(-1);
  const std::int64_t rows = x.numel() / h;
  assert(dgamma.numel() == h && dbeta.numel() == h);
  Tensor dx(x.shape());
  auto px = x.data();
  auto pdy = dy.data();
  auto pg = gamma.data();
  auto pm = mean.data();
  auto pr = rstd.data();
  auto pdx = dx.data();
  auto pdg = dgamma.data();
  auto pdb = dbeta.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = px.data() + r * h;
    const float* dyr = pdy.data() + r * h;
    float* dxr = pdx.data() + r * h;
    const float mu = pm[static_cast<std::size_t>(r)];
    const float rs = pr[static_cast<std::size_t>(r)];
    float sum_dyhat = 0.0f, sum_dyhat_xhat = 0.0f;
    for (std::int64_t i = 0; i < h; ++i) {
      const float xhat = (xr[i] - mu) * rs;
      const float dyhat = dyr[i] * pg[static_cast<std::size_t>(i)];
      sum_dyhat += dyhat;
      sum_dyhat_xhat += dyhat * xhat;
      pdg[static_cast<std::size_t>(i)] += dyr[i] * xhat;
      pdb[static_cast<std::size_t>(i)] += dyr[i];
    }
    const float inv_h = 1.0f / static_cast<float>(h);
    for (std::int64_t i = 0; i < h; ++i) {
      const float xhat = (xr[i] - mu) * rs;
      const float dyhat = dyr[i] * pg[static_cast<std::size_t>(i)];
      dxr[i] = rs * (dyhat - inv_h * sum_dyhat - xhat * inv_h * sum_dyhat_xhat);
    }
  }
  return dx;
}

namespace {
/// Rows per cross_entropy loss partial: fixed, so the fold order is too.
constexpr std::int64_t kLossBlockRows = 16;
}  // namespace

float cross_entropy(const Tensor& logits, std::span<const std::int64_t> labels,
                    Tensor& dlogits) {
  assert(logits.ndim() == 2);
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  assert(static_cast<std::int64_t>(labels.size()) == n);
  if (dlogits.shape() != logits.shape()) dlogits = Tensor(logits.shape());
  auto pd = dlogits.data();
  auto pl = logits.data();
  const float inv_n = 1.0f / static_cast<float>(n);
  // The loss is summed per fixed block of kLossBlockRows rows, and the block
  // partials are folded in ascending order below, so the result does not
  // depend on how many threads shared the blocks.
  const std::int64_t nblocks = (n + kLossBlockRows - 1) / kLossBlockRows;
  std::vector<double> partial(static_cast<std::size_t>(nblocks), 0.0);
  // Single pass per row: the exponentials written into dlogits and their
  // max/denominator serve both the loss (log-softmax of the true class) and
  // the gradient, with the softmax normalization and the 1/n batch scaling
  // fused into one sweep.
  parallel_for(nblocks, grain_for(kLossBlockRows * c),
               [&](std::int64_t blo, std::int64_t bhi) {
    for (std::int64_t b = blo; b < bhi; ++b) {
      double loss = 0.0;
      for (std::int64_t r = b * kLossBlockRows;
           r < std::min(n, (b + 1) * kLossBlockRows); ++r) {
        const std::int64_t y = labels[static_cast<std::size_t>(r)];
        assert(y >= 0 && y < c);
        const float* row = pl.data() + r * c;
        float* g = pd.data() + r * c;
        float mx = row[0];
        for (std::int64_t i = 1; i < c; ++i) mx = std::max(mx, row[i]);
        double denom = 0.0;
        for (std::int64_t i = 0; i < c; ++i) {
          g[i] = std::exp(row[i] - mx);
          denom += static_cast<double>(g[i]);
        }
        loss -= static_cast<double>(row[y] - mx) - std::log(denom);
        const float inv = inv_n / static_cast<float>(denom);
        for (std::int64_t i = 0; i < c; ++i) g[i] *= inv;
        g[y] -= inv_n;
      }
      partial[static_cast<std::size_t>(b)] = loss;
    }
  });
  double loss = 0.0;
  for (const double v : partial) loss += v;
  return static_cast<float>(loss / static_cast<double>(n));
}

// ---- shape ops ------------------------------------------------------------------

Tensor narrow(const Tensor& a, std::int64_t dim, std::int64_t start,
              std::int64_t len) {
  dim = normalize_dim(a.shape(), dim);
  const std::int64_t extent = a.dim(dim);
  assert(start >= 0 && len > 0 && start + len <= extent);
  const std::int64_t outer = outer_size(a.shape(), dim);
  const std::int64_t inner = inner_size(a.shape(), dim);
  Tensor out(a.shape().with_dim(dim, len));
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t o = 0; o < outer; ++o) {
    const float* src = pa.data() + (o * extent + start) * inner;
    float* dst = po.data() + o * len * inner;
    std::copy(src, src + len * inner, dst);
  }
  return out;
}

Tensor chunk(const Tensor& a, std::int64_t dim, std::int64_t nchunks,
             std::int64_t idx) {
  dim = normalize_dim(a.shape(), dim);
  const std::int64_t extent = a.dim(dim);
  assert(extent % nchunks == 0);
  const std::int64_t len = extent / nchunks;
  return narrow(a, dim, idx * len, len);
}

Tensor cat(std::span<const Tensor> parts, std::int64_t dim) {
  assert(!parts.empty());
  dim = normalize_dim(parts[0].shape(), dim);
  std::int64_t total = 0;
  for (const auto& p : parts) total += p.dim(dim);
  Tensor out(parts[0].shape().with_dim(dim, total));
  const std::int64_t outer = outer_size(out.shape(), dim);
  const std::int64_t inner = inner_size(out.shape(), dim);
  auto po = out.data();
  std::int64_t offset = 0;
  for (const auto& p : parts) {
    assert(p.shape().with_dim(dim, 0) == out.shape().with_dim(dim, 0));
    const std::int64_t len = p.dim(dim);
    auto pp = p.data();
    for (std::int64_t o = 0; o < outer; ++o) {
      const float* src = pp.data() + o * len * inner;
      float* dst = po.data() + (o * total + offset) * inner;
      std::copy(src, src + len * inner, dst);
    }
    offset += len;
  }
  return out;
}

// ---- comparison -----------------------------------------------------------------

float max_diff(const Tensor& a, const Tensor& b) {
  assert(a.numel() == b.numel());
  auto pa = a.data();
  auto pb = b.data();
  float m = 0.0f;
  for (std::size_t i = 0; i < pa.size(); ++i)
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  auto pa = a.data();
  auto pb = b.data();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const float tol = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

}  // namespace ca::tensor
