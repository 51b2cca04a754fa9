// Table 1 + Figure 5: communication volume of tensor-parallel matmul
// Y = W X with X:(b,s,h), W:(h,h) — analytic formulas straight from the
// paper, plus measured interconnect bytes from the functional layers at a
// small scale as validation of the trend.

#include <vector>

#include "bench_common.hpp"
#include "tensor/ops.hpp"
#include "tp/comm_volume.hpp"
#include "tp/linear1d.hpp"
#include "tp/linear2p5d.hpp"
#include "tp/linear3d.hpp"

using namespace ca;

namespace {

void figure5_series() {
  bench::header("Figure 5: comm volume vs #GPUs (h=1024, s=512, b=32)");
  tp::MatmulShape m;  // paper defaults
  std::printf("%-8s %-16s %-16s %-16s %-16s\n", "p", "1D", "2D", "2.5D(d=4)",
              "3D");
  for (int p : {4, 16, 64, 256}) {
    auto fmt = [](std::int64_t v) {
      return v == 0 ? std::string("-") : std::to_string(v / 1000000) + "M";
    };
    const auto v1 = tp::comm_volume_1d(m, p);
    const auto v2 =
        core::Config::exact_sqrt(p) != 0 ? tp::comm_volume_2d(m, p) : 0;
    const auto v25 = (p % 4 == 0 && core::Config::exact_sqrt(p / 4) != 0)
                         ? tp::comm_volume_2p5d(m, p, 4)
                         : 0;
    const auto v3 =
        core::Config::exact_cbrt(p) != 0 ? tp::comm_volume_3d(m, p) : 0;
    std::printf("%-8d %-16s %-16s %-16s %-16s\n", p, fmt(v1).c_str(),
                fmt(v2).c_str(), fmt(v25).c_str(), fmt(v3).c_str());
  }
  std::printf("(elements transferred, forward+backward; advanced modes "
              "involve only sub-groups per collective)\n");
}

/// Measured per-linear fwd+bwd traffic from the functional layers.
std::int64_t measured(core::TpMode mode, int p, std::int64_t rows,
                      std::int64_t h) {
  bench::World w(sim::Topology::uniform(p, 100e9), bench::tp_config(mode, p));
  auto x = tensor::randn(tensor::Shape{rows, h}, 1);
  auto dy = tensor::randn(tensor::Shape{rows, h}, 2);
  w.cluster.run([&](int g) {
    switch (mode) {
      case core::TpMode::k1d: {
        tp::Linear1DCol c1(w.env(g), "c", h, h, 3, false);
        tp::Linear1DRow r1(w.env(g), "r", h, h, 4);
        auto y = r1.forward(c1.forward(x));
        (void)y;
        c1.backward(r1.backward(dy));
        break;
      }
      case core::TpMode::k2d: {
        const int q = w.ctx.grid_side();
        const int r = w.ctx.row_coord(g), c = w.ctx.col_coord(g);
        tp::Linear2p5D lin(w.env(g), "l", h, h, 3);
        lin.forward(tp::Linear2p5D::shard_activation(x, q, 1, 0, r, c));
        lin.backward(tp::Linear2p5D::shard_activation(dy, q, 1, 0, r, c));
        break;
      }
      case core::TpMode::k3d: {
        const int l = w.ctx.grid_side();
        tp::Linear3D lin(w.env(g), "l", h, h, 3);
        lin.forward(tp::Linear3D::shard_input(x, l, w.ctx.cube_i(g),
                                              w.ctx.cube_j(g), w.ctx.cube_k(g)));
        lin.backward(tp::Linear3D::shard_output(dy, l, w.ctx.cube_i(g),
                                                w.ctx.cube_j(g),
                                                w.ctx.cube_k(g)));
        break;
      }
      default:
        break;
    }
  });
  return w.cluster.total_bytes_sent() / 4;  // bytes -> elements
}

void measured_validation() {
  bench::header("Table 1 validation: measured elements vs analytic trend "
                "(rows=64, h=32)");
  std::printf("%-12s %-8s %-14s %-14s\n", "mode", "p", "measured", "analytic");
  tp::MatmulShape m;
  m.b = 1;
  m.s = 64;
  m.h = 32;
  struct Row {
    core::TpMode mode;
    int p;
  };
  for (const auto& r : {Row{core::TpMode::k1d, 4}, Row{core::TpMode::k2d, 4},
                        Row{core::TpMode::k1d, 8}, Row{core::TpMode::k3d, 8}}) {
    const auto meas = measured(r.mode, r.p, m.b * m.s, m.h);
    const auto ana = tp::comm_volume(r.mode, m, r.p);
    std::printf("%-12s %-8d %-14lld %-14lld\n",
                core::to_string(r.mode).c_str(), r.p,
                static_cast<long long>(meas), static_cast<long long>(ana));
  }
  std::printf("(conventions differ by a small constant — see EXPERIMENTS.md; "
              "the ordering and growth match)\n");
}

}  // namespace

int main() {
  figure5_series();
  measured_validation();
  return 0;
}
