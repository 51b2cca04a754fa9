#pragma once

#include <cstdint>
#include <type_traits>

/// The one CPU-parallel entry point of the kernels (DESIGN.md, "CPU
/// parallelism"). Every data-parallel loop in the library goes through
/// parallel_for; nothing else opens an OpenMP region. The thread budget is
/// the calling OS thread's OpenMP team size: a plain host thread keeps the
/// full OMP_NUM_THREADS cap, and sim::Cluster::run gives each rank its share.
namespace ca::tensor {

/// Simple elementwise work (a few flops per element) one thread should have
/// before a second thread is worth forking. Loops over heavier items scale
/// it down with grain_for.
inline constexpr std::int64_t kElemGrain = std::int64_t{1} << 15;

/// Grain, in items, for a loop whose items each cost about `work` elements
/// of simple elementwise work (a row of `work` columns, say).
constexpr std::int64_t grain_for(std::int64_t work) {
  return work >= kElemGrain ? 1 : kElemGrain / (work < 1 ? 1 : work);
}

/// This thread's budget: the team a parallel_for started here may use.
int thread_budget();
/// Set this OS thread's budget (at least 1). Other threads keep theirs.
void set_thread_budget(int threads);

namespace detail {
using RangeFn = void (*)(void* body, std::int64_t begin, std::int64_t end);
void parallel_for_impl(std::int64_t n, std::int64_t grain, RangeFn fn,
                       void* body);
}  // namespace detail

/// Run `body(begin, end)` over disjoint contiguous ranges covering [0, n).
/// The team is min(thread_budget(), ceil(n / grain)); with a team of one, or
/// when already inside a parallel region (a batch loop around a GEMM, say),
/// body(0, n) runs on the calling thread. Chunk boundaries depend on the
/// team, so a body must give the same bits however [0, n) is split:
/// elementwise work, or fixed-size blocks whose partials are folded in order
/// after the call.
template <class F>
void parallel_for(std::int64_t n, std::int64_t grain, F&& body) {
  if (n <= 0) return;
  if (n <= grain) {
    body(std::int64_t{0}, n);
    return;
  }
  using Body = std::remove_reference_t<F>;
  detail::parallel_for_impl(
      n, grain,
      [](void* b, std::int64_t begin, std::int64_t end) {
        (*static_cast<Body*>(b))(begin, end);
      },
      const_cast<void*>(static_cast<const void*>(&body)));
}

}  // namespace ca::tensor
