#include "optim/amp.hpp"

#include <atomic>
#include <cmath>
#include <cstdint>

#include "tensor/convert.hpp"
#include "tensor/half.hpp"
#include "tensor/parallel.hpp"

namespace ca::optim {

namespace t = ca::tensor;

bool LossScaler::has_overflow(const std::vector<nn::Parameter*>& params) {
  for (const nn::Parameter* p : params) {
    const float* g = p->grad.data().data();
    // Branch-free OR-reduction over the finiteness predicate vectorizes and
    // parallelizes (no early exit, but the scan is memory-bound anyway). OR
    // is order-free, so the chunks may publish in any order.
    std::atomic<bool> bad{false};
    t::parallel_for(p->grad.numel(), t::kElemGrain,
                    [&](std::int64_t lo, std::int64_t hi) {
      int chunk_bad = 0;
#pragma omp simd reduction(| : chunk_bad)
      for (std::int64_t e = lo; e < hi; ++e) chunk_bad |= !std::isfinite(g[e]);
      if (chunk_bad != 0) bad.store(true, std::memory_order_relaxed);
    });
    if (bad.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

void MixedPrecision::round_live_to_fp16() {
  for (std::size_t i = 0; i < live_.size(); ++i) {
    auto src = masters_[i]->value.data();
    auto dst = live_[i]->value.data();
    // SIMD convert kernel (master fp32 -> live fp16 storage round-trip).
    t::round_trip_f16(src.data(), dst.data(),
                      static_cast<std::int64_t>(src.size()));
  }
}

bool MixedPrecision::step() {
  const bool overflow = LossScaler::has_overflow(live_);
  const float inv = 1.0f / scaler_.scale();
  if (scaler_.update(overflow)) {
    // unscale into the master grads and step
    for (std::size_t i = 0; i < live_.size(); ++i) {
      const float* src = live_[i]->grad.data().data();
      float* dst = masters_[i]->grad.data().data();
      t::parallel_for(live_[i]->grad.numel(), t::kElemGrain,
                      [&](std::int64_t lo, std::int64_t hi) {
#pragma omp simd
        for (std::int64_t e = lo; e < hi; ++e) dst[e] = src[e] * inv;
      });
    }
    inner_->step();
    round_live_to_fp16();
    return true;
  }
  return false;
}

}  // namespace ca::optim
