#pragma once

#include <cmath>
#include <string>

#include "knobs/knobs.hpp"

namespace ca::core {

/// Tensor-parallel sharding mode, as in the paper's `mode='1d'|'2d'|'2.5d'|'3d'`
/// configuration field (Listing 1).
enum class TpMode { kNone, k1d, k2d, k2p5d, k3d };

[[nodiscard]] inline std::string to_string(TpMode m) {
  switch (m) {
    case TpMode::kNone: return "none";
    case TpMode::k1d: return "1d";
    case TpMode::k2d: return "2d";
    case TpMode::k2p5d: return "2.5d";
    case TpMode::k3d: return "3d";
  }
  return "?";
}

/// The training-parallelism configuration a user writes — the C++ analogue
/// of the dict passed to colossalai.launch (Listing 1). World size must equal
/// data * pipeline * tensor * sequence. Each field is one row of the knob
/// table (knobs/knobs.hpp), which owns its keys, accepted values, default
/// and the env > config > default precedence.
struct Config {
  int data_parallel_size = 1;
  int pipeline_parallel_size = 1;
  int tensor_parallel_size = 1;
  TpMode tensor_mode = TpMode::kNone;
  int tensor_depth = 1;  ///< the 'd' of 2.5D parallelism; ignored otherwise
  int sequence_parallel_size = 1;

  std::string collective_algo = "auto";  ///< "auto": picked per call
  std::string comm_dtype = "f32";        ///< wire dtype of product comm
  std::string pp_schedule = "1f1b";      ///< Pipelines without a schedule
  double fault_watchdog = 1.0;           ///< sim seconds to CommTimeoutError
  std::string sim_backend = "threads";   ///< or "tasks" (fibers)
  int sim_workers = 0;                   ///< 0 = one per hardware thread
  std::string metrics = "off";           ///< "on" attaches metric sinks
  int metrics_hist_buckets = 0;          ///< 0 keeps the built-in default
  int checkpoint_interval = 0;           ///< steps between saves; 0 = off
  std::string checkpoint_dir = ".";      ///< where CheckpointHook writes
  std::string elastic = "off";           ///< "on" survives fail-stops
  int elastic_min_world = 1;             ///< fewest survivors to go on with

  [[nodiscard]] int world_size() const {
    return data_parallel_size * pipeline_parallel_size * tensor_parallel_size *
           sequence_parallel_size;
  }

  /// Integer side length if n is a perfect square, else 0.
  static int exact_sqrt(int n) {
    const int r = static_cast<int>(std::lround(std::sqrt(static_cast<double>(n))));
    return r * r == n ? r : 0;
  }
  /// Integer side length if n is a perfect cube, else 0.
  static int exact_cbrt(int n) {
    const int r = static_cast<int>(std::lround(std::cbrt(static_cast<double>(n))));
    return r * r * r == n ? r : 0;
  }

  /// Throws knobs::KnobError for a field the knob table rejects, and
  /// std::invalid_argument when sizes are inconsistent with the mode's
  /// topology requirement (2D: j^2 GPUs, 2.5D: d*k^2, 3D: l^3 — Section 2.2).
  void validate() const;
};

/// The knobs `config` sets, as the configuration tier of knobs::resolve:
/// every field that differs from a default-constructed Config, as text.
[[nodiscard]] knobs::Layer knob_layer(const Config& config);

}  // namespace ca::core
