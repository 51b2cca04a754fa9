#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ca::knobs {

/// Every runtime knob: each CA_* environment variable and each key of the
/// Listing-1 configuration text has exactly one row in table(), in this
/// order.
enum class Knob {
  kData, kPipeline, kTensorSize, kTensorMode, kTensorDepth, kSequence,
  kCollectiveAlgo, kCommDtype, kPpSchedule, kSimBackend, kSimWorkers,
  kSimStackKb, kMetrics, kMetricsHistBuckets, kCheckpointInterval,
  kCheckpointDir, kElastic, kElasticMinWorld, kFaultWatchdog, kFaultSeed,
  kFaultRetryBase, kFaultRetries, kFaultFailstop, kFaultStraggler,
  kFaultLink, kFaultNan, kFaultTransient, kFaultCkptCorrupt,
};

/// How a row's text is checked: whole-string integer in [lo, hi], finite
/// number > 0, one of `words`, any text, or a grammar its consumer parses
/// (the CA_FAULT_* specs, FaultPlan::from_env).
enum class Kind { kInt, kReal, kWord, kText, kSpec };

/// One knob: where it is read from, what it accepts, and its default.
struct Row {
  Knob knob;
  std::string_view env;                      ///< env variable; "" = none
  std::vector<std::string_view> keys;        ///< config key, then aliases
  Kind kind;
  std::string_view def;                      ///< default, as text
  std::string_view form;                     ///< accepted form, for errors
  std::string_view doc;                      ///< one-line meaning
  std::vector<std::string_view> words = {};  ///< kWord spellings + aliases
  std::int64_t lo = 0, hi = 0;               ///< kInt bounds, inclusive
};

[[nodiscard]] const std::vector<Row>& table();
[[nodiscard]] const Row& row(Knob k);
/// The row owning config key `key` (canonical or alias); nullptr if none.
[[nodiscard]] const Row* find_key(std::string_view key);

/// A knob value that does not parse: the variable or config key that held
/// it, the value, and the accepted form — alike for env and config.
struct KnobError : std::invalid_argument {
  KnobError(std::string_view name, std::string_view value,
            std::string_view form);
  std::string name, value, form;
};

/// Throw KnobError(name, text, form) unless `text` is a valid value of `k`.
/// kText accepts anything; a kSpec grammar is checked by its consumer.
void check(Knob k, std::string_view name, std::string_view text);
/// Throw the KnobError of `value` in `k`'s environment variable.
[[noreturn]] void reject(Knob k, std::string_view value);

/// Whole-string number parsers (no whitespace, no '+', no trailing text).
[[nodiscard]] std::optional<std::int64_t> to_int(std::string_view s);
[[nodiscard]] std::optional<double> to_real(std::string_view s);

/// The configuration tier: the knobs a configuration set, as text
/// (core::knob_layer builds it from a Config).
using Layer = std::map<Knob, std::string>;

/// The checked value of `k`'s environment variable, read on every call;
/// nullopt when unset or empty (an empty value counts as unset).
[[nodiscard]] std::optional<std::string> env(Knob k);

/// One knob's value: env > `config` > default; garbage throws KnobError.
/// An explicit C++ argument (a setter or constructor parameter) beats all
/// three: its owner applies it and consults the table only without one.
[[nodiscard]] std::string resolve(Knob k, const Layer& config = {});
[[nodiscard]] std::int64_t resolve_int(Knob k, const Layer& config = {});
[[nodiscard]] double resolve_real(Knob k, const Layer& config = {});

}  // namespace ca::knobs
