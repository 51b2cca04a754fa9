// google-benchmark microbenchmarks of the substrate kernels: the matmul and
// activation kernels that dominate functional-mode time, and the collective
// primitives under concurrent SPMD execution.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "bench_common.hpp"
#include "collective/backend.hpp"
#include "nn/layers.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"

namespace t = ca::tensor;

namespace {

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto a = t::randn(t::Shape{n, n}, 1);
  auto b = t::randn(t::Shape{n, n}, 2);
  for (auto _ : state) {
    auto c = t::matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MatmulTransposed(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto a = t::randn(t::Shape{n, n}, 1);
  auto b = t::randn(t::Shape{n, n}, 2);
  for (auto _ : state) {
    auto c = t::matmul_nt(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulTransposed)->Arg(128)->Arg(512);

void BM_NaiveMatmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto a = t::randn(t::Shape{n, n}, 1);
  auto b = t::randn(t::Shape{n, n}, 2);
  for (auto _ : state) {
    auto c = t::naive_matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_NaiveMatmul)->Arg(512);

void BM_Softmax(benchmark::State& state) {
  auto x = t::randn(t::Shape{256, state.range(0)}, 3);
  for (auto _ : state) {
    auto y = t::softmax_lastdim(x);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

void BM_LayerNorm(benchmark::State& state) {
  auto x = t::randn(t::Shape{256, state.range(0)}, 4);
  auto gamma = t::ones(t::Shape{state.range(0)});
  auto beta = t::zeros(t::Shape{state.range(0)});
  t::Tensor mean, rstd;
  for (auto _ : state) {
    auto y = t::layernorm_forward(x, gamma, beta, 1e-5f, mean, rstd);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_LayerNorm)->Arg(768);

void BM_Gelu(benchmark::State& state) {
  auto x = t::randn(t::Shape{1 << 16}, 5);
  for (auto _ : state) {
    auto y = t::gelu(x);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Gelu);

void BM_GeluBackward(benchmark::State& state) {
  auto x = t::randn(t::Shape{1 << 16}, 5);
  auto dy = t::randn(t::Shape{1 << 16}, 6);
  for (auto _ : state) {
    auto dx = t::gelu_backward(x, dy);
    benchmark::DoNotOptimize(dx.data().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_GeluBackward);

void BM_AttentionForward(benchmark::State& state) {
  ca::nn::MultiHeadAttention attn("a", 256, 8, 7);
  auto x = t::randn(t::Shape{4, 64, 256}, 8);
  for (auto _ : state) {
    auto y = attn.forward(x);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_AttentionForward);

void BM_AllReduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  ca::sim::Cluster cluster(ca::sim::Topology::uniform(p, 100e9));
  ca::collective::Backend backend(cluster);
  std::vector<std::vector<float>> bufs(
      static_cast<std::size_t>(p), std::vector<float>(1 << 14, 1.0f));
  for (auto _ : state) {
    cluster.run([&](int r) {
      backend.world().all_reduce(r, bufs[static_cast<std::size_t>(r)]);
    });
  }
  state.SetItemsProcessed(state.iterations() * p * (1 << 14));
}
BENCHMARK(BM_AllReduce)->Arg(2)->Arg(4)->Arg(8);

// Machine-readable snapshot of the kernels that gate functional-mode
// throughput, written as BENCH_kernels.json (tracked across PRs).
void write_json_report() {
  bench::JsonReport report("BENCH_kernels.json");

  const auto gemm_row = [&](const char* op, std::int64_t n, auto&& fn) {
    auto a = t::randn(t::Shape{n, n}, 1);
    auto b = t::randn(t::Shape{n, n}, 2);
    const double ns = bench::time_ns([&] {
      auto c = fn(a, b);
      benchmark::DoNotOptimize(c.data().data());
    });
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    report.add(op, std::to_string(n) + "x" + std::to_string(n) + "x" +
                       std::to_string(n),
               ns, flops / ns);
  };
  for (std::int64_t n : {256, 512}) {
    gemm_row("matmul", n, [](auto& a, auto& b) { return t::matmul(a, b); });
    gemm_row("matmul_nt", n,
             [](auto& a, auto& b) { return t::matmul_nt(a, b); });
    gemm_row("matmul_tn", n,
             [](auto& a, auto& b) { return t::matmul_tn(a, b); });
  }
  gemm_row("naive_matmul", 512,
           [](auto& a, auto& b) { return t::naive_matmul(a, b); });

  // The m=32 GEMMs of a pipeline x 1D-TP transformer block (2 x 16 token
  // rows, hidden 128, TP 2): QKV, attention out, MLP up and MLP down. Each
  // (m, k, n) runs as NN, NT and TN, with the same operand read transposed.
  for (const auto& [k, n] : {std::pair<std::int64_t, std::int64_t>{128, 192},
                            {64, 128},
                            {128, 256},
                            {256, 128}}) {
    const std::int64_t m = 32;
    const std::string shape = "m=32 k=" + std::to_string(k) +
                              " n=" + std::to_string(n);
    const double flops = 2.0 * static_cast<double>(m) * n * k;
    const auto row = [&](const char* op, const t::Tensor& a,
                         const t::Tensor& b, auto&& fn) {
      const double ns = bench::time_ns([&] {
        auto c = fn(a, b);
        benchmark::DoNotOptimize(c.data().data());
      });
      report.add(op, shape, ns, flops / ns);
    };
    row("matmul", t::randn(t::Shape{m, k}, 1), t::randn(t::Shape{k, n}, 2),
        [](auto& a, auto& b) { return t::matmul(a, b); });
    row("matmul_nt", t::randn(t::Shape{m, k}, 1), t::randn(t::Shape{n, k}, 2),
        [](auto& a, auto& b) { return t::matmul_nt(a, b); });
    row("matmul_tn", t::randn(t::Shape{k, m}, 1), t::randn(t::Shape{k, n}, 2),
        [](auto& a, auto& b) { return t::matmul_tn(a, b); });
  }

  {
    // Attention scores: (batch*heads, s, head_dim) x (batch*heads, s,
    // head_dim)^T, under the blocked-GEMM cutoff.
    const std::int64_t batch = 8, m = 16, n = 16, k = 32;
    auto a = t::randn(t::Shape{batch, m, k}, 3);
    auto b = t::randn(t::Shape{batch, n, k}, 4);
    const double ns = bench::time_ns([&] {
      auto c = t::bmm_nt(a, b);
      benchmark::DoNotOptimize(c.data().data());
    });
    const double flops = 2.0 * static_cast<double>(batch) * m * n * k;
    report.add("bmm_nt", "8x16x16x32", ns, flops / ns);
  }

  // Elementwise activations: ns per 65536-element call (no flop count).
  {
    auto x = t::randn(t::Shape{1 << 16}, 5);
    auto dy = t::randn(t::Shape{1 << 16}, 6);
    report.add("gelu", "65536", bench::time_ns([&] {
                 auto y = t::gelu(x);
                 benchmark::DoNotOptimize(y.data().data());
               }),
               0.0);
    report.add("gelu_backward", "65536", bench::time_ns([&] {
                 auto dx = t::gelu_backward(x, dy);
                 benchmark::DoNotOptimize(dx.data().data());
               }),
               0.0);
  }

  {
    const std::int64_t batch = 8, n = 256;
    auto a = t::randn(t::Shape{batch, n, n}, 3);
    auto b = t::randn(t::Shape{batch, n, n}, 4);
    const double ns = bench::time_ns([&] {
      auto c = t::bmm(a, b);
      benchmark::DoNotOptimize(c.data().data());
    });
    const double flops = 2.0 * static_cast<double>(batch) * n * n * n;
    report.add("bmm", "8x256x256x256", ns, flops / ns);
  }

  // GEMM under the CPU thread budget: every rank of a threads-backend
  // Cluster::run multiplies its own 512^3 pair at once, so each gets
  // max(1, OMP cap / ranks) threads. GFLOP/s is the aggregate over ranks.
  for (int ranks : {1, 8, 64}) {
    const std::int64_t n = 512;
    auto a = t::randn(t::Shape{n, n}, 1);
    auto b = t::randn(t::Shape{n, n}, 2);
    ca::sim::Cluster cluster(ca::sim::Topology::uniform(ranks, 100e9));
    cluster.set_backend(ca::sim::SimBackend::kThreads);
    const double ns = bench::time_ns([&] {
      cluster.run([&](int) {
        auto c = t::matmul(a, b);
        benchmark::DoNotOptimize(c.data().data());
      });
    });
    const double flops = 2.0 * ranks * static_cast<double>(n) * n * n;
    report.add("wall_matmul_ranks",
               "512x512x512 ranks=" + std::to_string(ranks), ns, flops / ns);
  }

  for (int p : {4, 8}) {
    const std::int64_t elems = 1 << 20;
    ca::sim::Cluster cluster(ca::sim::Topology::uniform(p, 100e9));
    ca::collective::Backend backend(cluster);
    std::vector<std::vector<float>> bufs(
        static_cast<std::size_t>(p),
        std::vector<float>(static_cast<std::size_t>(elems), 1.0f));
    const double ns = bench::time_ns([&] {
      cluster.run([&](int r) {
        backend.world().all_reduce(r, bufs[static_cast<std::size_t>(r)]);
      });
    });
    report.add("all_reduce", "p=" + std::to_string(p) + " n=1048576", ns, 0.0);
  }

  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_json_report();
  return 0;
}
