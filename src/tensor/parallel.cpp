#include "tensor/parallel.hpp"

#include <omp.h>

#include <algorithm>

namespace ca::tensor {

int thread_budget() { return omp_get_max_threads(); }

void set_thread_budget(int threads) {
  omp_set_num_threads(std::max(1, threads));
}

namespace detail {

void parallel_for_impl(std::int64_t n, std::int64_t grain, RangeFn fn,
                       void* body) {
  const std::int64_t g = std::max<std::int64_t>(grain, 1);
  const std::int64_t chunks = (n + g - 1) / g;
  const int team = omp_in_parallel() != 0
                       ? 1
                       : static_cast<int>(std::min<std::int64_t>(
                             omp_get_max_threads(), chunks));
  if (team <= 1) {
    fn(body, 0, n);
    return;
  }
#pragma omp parallel num_threads(team)
  {
    // The runtime may grant fewer threads than asked; split by what it gave.
    const std::int64_t t = omp_get_thread_num();
    const std::int64_t nt = omp_get_num_threads();
    fn(body, n * t / nt, n * (t + 1) / nt);
  }
}

}  // namespace detail
}  // namespace ca::tensor
