#include "core/config_parser.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <variant>

namespace ca::core {

namespace {

using knobs::Knob;

/// Where a configuration knob lives in Config.
using Field = std::variant<int Config::*, double Config::*,
                           std::string Config::*, TpMode Config::*>;

/// One entry per knob-table row that has a config key.
const std::pair<Knob, Field> kFields[] = {
    {Knob::kData, &Config::data_parallel_size},
    {Knob::kPipeline, &Config::pipeline_parallel_size},
    {Knob::kTensorSize, &Config::tensor_parallel_size},
    {Knob::kTensorMode, &Config::tensor_mode},
    {Knob::kTensorDepth, &Config::tensor_depth},
    {Knob::kSequence, &Config::sequence_parallel_size},
    {Knob::kCollectiveAlgo, &Config::collective_algo},
    {Knob::kCommDtype, &Config::comm_dtype},
    {Knob::kPpSchedule, &Config::pp_schedule},
    {Knob::kSimBackend, &Config::sim_backend},
    {Knob::kSimWorkers, &Config::sim_workers},
    {Knob::kMetrics, &Config::metrics},
    {Knob::kMetricsHistBuckets, &Config::metrics_hist_buckets},
    {Knob::kCheckpointInterval, &Config::checkpoint_interval},
    {Knob::kCheckpointDir, &Config::checkpoint_dir},
    {Knob::kElastic, &Config::elastic},
    {Knob::kElasticMinWorld, &Config::elastic_min_world},
    {Knob::kFaultWatchdog, &Config::fault_watchdog},
};

// Field value <-> checked knob text.
std::string text(int v) { return std::to_string(v); }
std::string text(double v) {
  char buf[32];  // shortest round-trip form
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}
std::string text(const std::string& v) { return v; }
std::string text(TpMode v) { return to_string(v); }
void set(int& v, const std::string& t) {
  v = static_cast<int>(knobs::to_int(t).value());
}
void set(double& v, const std::string& t) { v = knobs::to_real(t).value(); }
void set(std::string& v, const std::string& t) { v = t; }
void set(TpMode& v, const std::string& t) {
  v = t == "2p5d" ? TpMode::k2p5d : TpMode::kNone;  // the one alias
  for (TpMode m : {TpMode::k1d, TpMode::k2d, TpMode::k2p5d, TpMode::k3d}) {
    if (to_string(m) == t) v = m;
  }
}

}  // namespace

knobs::Layer knob_layer(const Config& config) {
  static const Config defaults;
  knobs::Layer layer;
  for (const auto& [knob, field] : kFields) {
    std::visit([&, knob = knob](auto m) {
      if (config.*m != defaults.*m) layer[knob] = text(config.*m);
    }, field);
  }
  return layer;
}

void Config::validate() const {
  // Per-field checks are the knob table's; a default field is unset.
  for (const auto& [knob, text] : knob_layer(*this)) {
    knobs::check(knob, knobs::row(knob).keys.at(0), text);
  }
  // Cross-field: the mode's topology requirement (2D: j^2 GPUs, 2.5D: d*k^2,
  // 3D: l^3 — Section 2.2).
  const int t = tensor_parallel_size;
  const std::pair<bool, const char*> rules[] = {
      {t == 1 || sequence_parallel_size == 1,
       "tensor and sequence parallelism cannot be combined"},
      {tensor_mode != TpMode::kNone || t == 1,
       "tensor_parallel_size > 1 requires a tensor mode"},
      {tensor_mode != TpMode::k2d || exact_sqrt(t) != 0,
       "2D tensor parallelism requires a square number of GPUs"},
      {tensor_mode != TpMode::k2p5d ||
           (t % tensor_depth == 0 && exact_sqrt(t / tensor_depth) != 0),
       "2.5D tensor parallelism requires d * k^2 GPUs"},
      {tensor_mode != TpMode::k3d || exact_cbrt(t) != 0,
       "3D tensor parallelism requires a cubic number of GPUs"},
  };
  for (const auto& [ok, msg] : rules) {
    if (!ok) throw std::invalid_argument(msg);
  }
}

Config parse_config(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string token;
  bool mode_given = false;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("expected key=value, got '" + token + "'");
    }
    std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    // The paper's full schema path may be spelled out.
    if (key.starts_with("parallel.")) key.erase(0, 9);
    const knobs::Row* row = knobs::find_key(key);
    if (row == nullptr) {
      throw std::invalid_argument("unknown configuration key '" + key + "'");
    }
    if (value.empty()) continue;  // an empty value is unset, as in the env
    knobs::check(row->knob, key, value);
    for (const auto& [knob, field] : kFields) {
      if (knob == row->knob) {
        std::visit([&](auto m) { set(cfg.*m, value); }, field);
      }
    }
    mode_given = mode_given || row->knob == Knob::kTensorMode;
  }
  // convenience: a tensor size without a mode defaults to 1D, as Megatron
  // users expect
  if (!mode_given && cfg.tensor_parallel_size > 1) {
    cfg.tensor_mode = TpMode::k1d;
  }
  cfg.validate();
  return cfg;
}

}  // namespace ca::core
