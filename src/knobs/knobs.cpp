#include "knobs/knobs.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace ca::knobs {

const std::vector<Row>& table() {
  using enum Knob;
  using enum Kind;
  constexpr std::int64_t kMax = INT_MAX;
  // clang-format off
  static const std::vector<Row> t = {
    {kData, "", {"data", "data.size"}, kInt, "1", "integer >= 1",
     "data-parallel size", {}, 1, kMax},
    {kPipeline, "", {"pipeline", "pipeline.size"}, kInt, "1", "integer >= 1",
     "pipeline-parallel size", {}, 1, kMax},
    {kTensorSize, "", {"tensor.size"}, kInt, "1", "integer >= 1",
     "tensor-parallel size (no mode given: 1d)", {}, 1, kMax},
    {kTensorMode, "", {"tensor.mode"}, kWord, "none", "none|1d|2d|2.5d|3d",
     "tensor-parallel mode", {"none", "1d", "2d", "2.5d", "2p5d", "3d"}},
    {kTensorDepth, "", {"tensor.depth"}, kInt, "1", "integer >= 1",
     "the d of 2.5D tensor parallelism", {}, 1, kMax},
    {kSequence, "", {"sequence", "sequence.size"}, kInt, "1", "integer >= 1",
     "sequence-parallel size", {}, 1, kMax},
    {kCollectiveAlgo, "CA_COLLECTIVE_ALGO",
     {"collective_algo", "collective.algo"}, kWord, "auto",
     "auto|chunked|ring|hierarchical|single_root", "algorithm of every group",
     {"auto", "chunked", "ring", "hierarchical", "single_root"}},
    {kCommDtype, "CA_COMM_DTYPE", {"comm_dtype", "comm.dtype"}, kWord, "f32",
     "f32|f16|bf16", "wire dtype of context-resolved collectives",
     {"f32", "fp32", "float32", "f16", "fp16", "half", "bf16", "bfloat16"}},
    {kPpSchedule, "CA_PP_SCHEDULE", {"pp.schedule", "pipeline.schedule"},
     kWord, "1f1b", "fill_drain|1f1b|interleaved|zero_bubble",
     "schedule of pipelines built without one",
     {"fill_drain", "gpipe", "1f1b", "interleaved", "zero_bubble", "zb"}},
    {kSimBackend, "CA_SIM_BACKEND", {"sim.backend"}, kWord, "threads",
     "threads|tasks", "rank execution backend", {"threads", "tasks"}},
    {kSimWorkers, "CA_SIM_WORKERS", {"sim.workers"}, kInt, "0",
     "integer >= 0", "tasks-backend workers; 0 = one per core", {}, 0, kMax},
    {kSimStackKb, "CA_SIM_STACK_KB", {}, kInt, "0", "integer >= 0",
     "fiber stack KiB; 0 = scheduler default", {}, 0, kMax >> 10},
    {kMetrics, "CA_METRICS", {"metrics", "metrics.enabled"}, kWord, "off",
     "on|off", "attach the per-rank metric sinks", {"on", "off"}},
    {kFaultCkptCorrupt, "CA_FAULT_CKPT_CORRUPT", {}, kSpec, "",
     "<step> or <step>:<offset>", "flip a byte of that step's checkpoint"},
    {kCheckpointInterval, "", {"checkpoint.interval"}, kInt, "0",
     "integer >= 0", "checkpoint every n steps; 0 = off", {}, 0, kMax},
    {kCheckpointDir, "", {"checkpoint.dir"}, kText, ".", "path",
     "where CheckpointHook writes"},
    {kElastic, "CA_ELASTIC", {"elastic", "elastic.enabled"}, kWord, "off",
     "on|off", "survive fail-stops on the survivors", {"on", "off"}},
    {kElasticMinWorld, "CA_ELASTIC_MIN_WORLD", {"elastic.min_world"}, kInt,
     "1", "integer >= 1", "fewest survivors to continue with", {}, 1, kMax},
    {kFaultWatchdog, "CA_FAULT_WATCHDOG", {"fault.watchdog"}, kReal, "1",
     "seconds > 0", "sim time a blocked collective waits, then times out"},
    {kFaultSeed, "CA_FAULT_SEED", {}, kInt, "0", "integer >= 0",
     "seed of all fault randomness", {}, 0, INT64_MAX},
    {kFaultRetryBase, "CA_FAULT_RETRY_BASE", {}, kReal, "0.25", "seconds > 0",
     "backoff base of transient-fault retries"},
    {kFaultRetries, "CA_FAULT_RETRIES", {}, kInt, "5", "integer in 0..62",
     "retry cap for transient faults", {}, 0, 62},
    {kFaultFailstop, "CA_FAULT_FAILSTOP", {}, kSpec, "",
     "<rank>@<step> or <rank>@t<seconds>", "rank dies at that step / time"},
    {kFaultStraggler, "CA_FAULT_STRAGGLER", {}, kSpec, "",
     "<rank>@<from>:<duration>:<factor>", "rank's compute slowed in a window"},
    {kFaultLink, "CA_FAULT_LINK", {}, kSpec, "", "<from>:<duration>:<factor>",
     "all transfers slowed in a window"},
    {kFaultNan, "CA_FAULT_NAN", {}, kSpec, "", "<rank>@<step>",
     "one gradient poisoned with NaN before that step's sync"},
    {kFaultTransient, "CA_FAULT_TRANSIENT", {}, kSpec, "", "<from>:<duration>",
     "collectives in a window fail, then retry"},
  };
  // clang-format on
  return t;
}

const Row& row(Knob k) { return table()[static_cast<std::size_t>(k)]; }

const Row* find_key(std::string_view key) {
  for (const Row& r : table()) {
    if (std::find(r.keys.begin(), r.keys.end(), key) != r.keys.end()) return &r;
  }
  return nullptr;
}

KnobError::KnobError(std::string_view n, std::string_view v,
                     std::string_view f)
    : std::invalid_argument(std::string(n) + ": bad value '" + std::string(v) +
                            "' (want " + std::string(f) + ")"),
      name(n), value(v), form(f) {}

namespace {
template <class T>
std::optional<T> parse_whole(std::string_view s) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  const bool whole =
      !s.empty() && ec == std::errc() && end == s.data() + s.size();
  return whole ? std::optional<T>(v) : std::nullopt;
}
}  // namespace

std::optional<std::int64_t> to_int(std::string_view s) {
  return parse_whole<std::int64_t>(s);
}

std::optional<double> to_real(std::string_view s) {
  const auto v = parse_whole<double>(s);
  return v && std::isfinite(*v) ? v : std::nullopt;
}

void check(Knob k, std::string_view name, std::string_view text) {
  const Row& r = row(k);
  bool ok = true;
  if (r.kind == Kind::kInt) {
    const auto v = to_int(text);
    ok = v && *v >= r.lo && *v <= r.hi;
  } else if (r.kind == Kind::kReal) {
    const auto v = to_real(text);
    ok = v && *v > 0.0;
  } else if (r.kind == Kind::kWord) {
    ok = std::find(r.words.begin(), r.words.end(), text) != r.words.end();
  }
  if (!ok) throw KnobError(name, text, r.form);
}

void reject(Knob k, std::string_view value) {
  throw KnobError(row(k).env, value, row(k).form);
}

std::optional<std::string> env(Knob k) {
  const Row& r = row(k);
  // Row env names are literals, so the view is NUL-terminated.
  const char* v = r.env.empty() ? nullptr : std::getenv(r.env.data());
  if (v == nullptr || *v == '\0') return std::nullopt;
  check(k, r.env, v);
  return std::string(v);
}

std::string resolve(Knob k, const Layer& config) {
  if (auto e = env(k)) return *e;
  if (auto it = config.find(k); it != config.end() && !it->second.empty()) {
    check(k, row(k).keys.at(0), it->second);
    return it->second;
  }
  return std::string(row(k).def);
}

std::int64_t resolve_int(Knob k, const Layer& config) {
  return to_int(resolve(k, config)).value();
}

double resolve_real(Knob k, const Layer& config) {
  return to_real(resolve(k, config)).value();
}

}  // namespace ca::knobs
