// Knob table tests: every row of knobs::table() is checked for the same
// structured error from the environment and the configuration, the
// empty-value rule, and env > config > default; the set of env vars, config
// keys and defaults is pinned; README's knob table must list the same names;
// and the consumers keep their precedence (explicit set_forced_algo beats
// CA_COLLECTIVE_ALGO, CA_FAULT_* numbers reject trailing garbage).

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "env_guard.hpp"
#include "collective/backend.hpp"
#include "core/config_parser.hpp"
#include "knobs/knobs.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"

namespace col = ca::collective;
namespace core = ca::core;
namespace knobs = ca::knobs;
namespace sim = ca::sim;
using knobs::Kind;
using knobs::Knob;
using knobs::KnobError;

namespace {

/// Unsets every CA_* knob for the test body, restoring them afterwards, so
/// the suite means the same under the CI env sweeps.
class CleanEnv {
 public:
  CleanEnv() {
    for (const knobs::Row& r : knobs::table()) {
      if (!r.env.empty()) {
        guards_.push_back(std::make_unique<EnvGuard>(r.env.data(), nullptr));
      }
    }
  }

 private:
  std::vector<std::unique_ptr<EnvGuard>> guards_;
};

/// Reads knob `k` from the environment the way its consumer does.
void consume_env(Knob k) {
  if (knobs::row(k).kind == Kind::kSpec) {
    (void)sim::FaultPlan::from_env();
  } else {
    (void)knobs::resolve(k);
  }
}

/// Runs `fn` and returns the KnobError it throws (fails the test otherwise).
template <class Fn>
KnobError knob_error(Fn&& fn) {
  try {
    fn();
  } catch (const KnobError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a KnobError";
  return KnobError("", "", "");
}

/// Valid {env, config} values of a row: the config value differs from the
/// default, the env value from the config value.
std::pair<std::string, std::string> env_and_config_values(
    const knobs::Row& r) {
  switch (r.kind) {
    case Kind::kInt:
      return {std::to_string(r.lo + 2), std::to_string(r.lo + 1)};
    case Kind::kReal:
      return {"0.5", "2.5"};
    case Kind::kWord: {
      const auto other = [&](std::string_view than) {
        for (std::string_view w : r.words) {
          if (w != than) return std::string(w);
        }
        return std::string();
      };
      const std::string config = other(r.def);
      return {other(config), config};
    }
    case Kind::kText:
    case Kind::kSpec:
      break;
  }
  return {"a", "b"};
}

class Knobs : public ::testing::TestWithParam<Knob> {
 protected:
  const knobs::Row& row() const { return knobs::row(GetParam()); }
  CleanEnv clean_;
};

std::string row_name(const ::testing::TestParamInfo<Knob>& info) {
  const knobs::Row& r = knobs::row(info.param);
  std::string name(r.env.empty() ? r.keys.at(0) : r.env);
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

/// "env|key alias...|default" — how the pinned list and README name a row.
std::string signature(std::string_view env, std::string_view keys,
                      std::string_view def) {
  return std::string(env) + "|" + std::string(keys) + "|" + std::string(def);
}

std::string signature(const knobs::Row& r) {
  std::string keys;
  for (std::string_view k : r.keys) {
    keys += (keys.empty() ? "" : " ") + std::string(k);
  }
  return signature(r.env, keys, r.def);
}

std::vector<Knob> all_knobs() {
  std::vector<Knob> out;
  for (const knobs::Row& r : knobs::table()) out.push_back(r.knob);
  return out;
}

}  // namespace

TEST_P(Knobs, GarbageGivesSameErrorFromEnvAndConfig) {
  const knobs::Row& r = row();
  if (r.kind == Kind::kText) {
    // Free text has no garbage: any value is accepted.
    const auto cfg = core::parse_config(std::string(r.keys.at(0)) + "=3x");
    EXPECT_EQ(core::knob_layer(cfg).at(r.knob), "3x");
    return;
  }
  const std::string garbage = "3x";
  if (!r.env.empty()) {
    EnvGuard g(r.env.data(), garbage.c_str());
    const KnobError e = knob_error([&] { consume_env(r.knob); });
    EXPECT_EQ(e.name, r.env);
    EXPECT_EQ(e.value, garbage);
    EXPECT_EQ(e.form, r.form);
    EXPECT_EQ(std::string(e.what()),
              std::string(r.env) + ": bad value '3x' (want " +
                  std::string(r.form) + ")");
  }
  for (std::string_view key : r.keys) {
    const KnobError e = knob_error(
        [&] { (void)core::parse_config(std::string(key) + "=" + garbage); });
    EXPECT_EQ(e.name, key);
    EXPECT_EQ(e.value, garbage);
    EXPECT_EQ(e.form, r.form);
  }
}

TEST_P(Knobs, EmptyValueCountsAsUnset) {
  const knobs::Row& r = row();
  if (!r.env.empty()) {
    EnvGuard g(r.env.data(), "");
    EXPECT_FALSE(knobs::env(r.knob).has_value());
    EXPECT_EQ(knobs::resolve(r.knob), r.def);
    EXPECT_FALSE(sim::FaultPlan::from_env().has_value());
  }
  for (std::string_view key : r.keys) {
    const core::Config cfg = core::parse_config(std::string(key) + "=");
    EXPECT_TRUE(core::knob_layer(cfg).empty()) << key;
    EXPECT_EQ(knobs::resolve(r.knob, knobs::Layer{{r.knob, ""}}), r.def);
  }
}

TEST_P(Knobs, EnvBeatsConfigBeatsDefault) {
  const knobs::Row& r = row();
  EXPECT_EQ(knobs::resolve(r.knob), r.def);
  // Spec grammars have no default and no config tier; their env values are
  // covered by FaultMatrix.FromEnvParsesFullPlan.
  if (r.kind == Kind::kSpec) return;
  const auto [env_value, config_value] = env_and_config_values(r);
  ASSERT_NE(config_value, r.def);
  ASSERT_NE(env_value, config_value);
  knobs::Layer layer;
  for (std::string_view key : r.keys) {
    layer = core::knob_layer(
        core::parse_config(std::string(key) + "=" + config_value));
    EXPECT_EQ(knobs::resolve(r.knob, layer), config_value) << key;
  }
  if (!r.env.empty()) {
    EnvGuard g(r.env.data(), env_value.c_str());
    EXPECT_EQ(knobs::resolve(r.knob, layer), env_value);
  }
}

INSTANTIATE_TEST_SUITE_P(Table, Knobs, ::testing::ValuesIn(all_knobs()),
                         row_name);

// ---- the table itself -------------------------------------------------------

TEST(KnobsTable, RowsAreInEnumOrderAndIntFormsMatchBounds) {
  for (std::size_t i = 0; i < knobs::table().size(); ++i) {
    const knobs::Row& r = knobs::table()[i];
    EXPECT_EQ(static_cast<std::size_t>(r.knob), i);
    EXPECT_FALSE(r.env.empty() && r.keys.empty()) << "row " << i;
    if (r.kind == Kind::kInt) {
      EXPECT_NO_THROW(knobs::check(r.knob, "x", std::to_string(r.lo)));
      EXPECT_NO_THROW(knobs::check(r.knob, "x", std::to_string(r.hi)));
      EXPECT_THROW(knobs::check(r.knob, "x", std::to_string(r.lo - 1)),
                   KnobError);
      EXPECT_THROW(knobs::check(r.knob, "x", std::to_string(r.hi) + "0"),
                   KnobError);
    }
  }
}

// The env vars, config keys (aliases included) and defaults as they stood
// before the table existed: no knob may be added, lost, or re-defaulted.
TEST(KnobsTable, NamesKeysAndDefaultsArePinned) {
  struct Pinned {
    std::string env, keys, def;
  };
  const std::vector<Pinned> pinned = {
      {"", "data data.size", "1"},
      {"", "pipeline pipeline.size", "1"},
      {"", "tensor.size", "1"},
      {"", "tensor.mode", "none"},
      {"", "tensor.depth", "1"},
      {"", "sequence sequence.size", "1"},
      {"CA_COLLECTIVE_ALGO", "collective_algo collective.algo", "auto"},
      {"CA_COMM_DTYPE", "comm_dtype comm.dtype", "f32"},
      {"CA_PP_SCHEDULE", "pp.schedule pipeline.schedule", "1f1b"},
      {"CA_SIM_BACKEND", "sim.backend", "threads"},
      {"CA_SIM_WORKERS", "sim.workers", "0"},
      {"CA_SIM_STACK_KB", "", "0"},
      {"CA_METRICS", "metrics metrics.enabled", "off"},
      {"CA_METRICS_HIST_BUCKETS", "metrics.hist_buckets", "64"},
      {"", "checkpoint.interval", "0"},
      {"", "checkpoint.dir", "."},
      {"CA_ELASTIC", "elastic elastic.enabled", "off"},
      {"CA_ELASTIC_MIN_WORLD", "elastic.min_world", "1"},
      {"CA_FAULT_WATCHDOG", "fault.watchdog", "1"},
      {"CA_FAULT_SEED", "", "0"},
      {"CA_FAULT_RETRY_BASE", "", "0.25"},
      {"CA_FAULT_RETRIES", "", "5"},
      {"CA_FAULT_FAILSTOP", "", ""},
      {"CA_FAULT_STRAGGLER", "", ""},
      {"CA_FAULT_LINK", "", ""},
      {"CA_FAULT_NAN", "", ""},
      {"CA_FAULT_TRANSIENT", "", ""},
      {"CA_FAULT_CKPT_CORRUPT", "", ""},
  };
  std::set<std::string> want, got;
  for (const Pinned& p : pinned) want.insert(signature(p.env, p.keys, p.def));
  for (const knobs::Row& r : knobs::table()) got.insert(signature(r));
  EXPECT_EQ(got, want);
}

// The table defaults are the ones the consumers had built in.
TEST(KnobsTable, DefaultsMatchTheConsumers) {
  CleanEnv clean;
  // Every Config field default is "unset" (the table default applies),
  // and equals the table default where the field is not a sentinel.
  EXPECT_TRUE(core::knob_layer(core::Config{}).empty());
  for (const knobs::Row& r : knobs::table()) {
    if (r.keys.empty() || r.knob == Knob::kMetricsHistBuckets) continue;
    const core::Config cfg = core::parse_config(std::string(r.keys.at(0)) +
                                                "=" + std::string(r.def));
    EXPECT_TRUE(core::knob_layer(cfg).empty()) << r.keys.at(0);
  }
  // metrics.hist_buckets keeps 0 as "built-in default" in Config.
  EXPECT_EQ(core::Config{}.metrics_hist_buckets, 0);
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  EXPECT_EQ(cluster.backend(), sim::SimBackend::kThreads);
  EXPECT_EQ(cluster.workers(), 0);
  EXPECT_EQ(cluster.stack_bytes(), 0u);
  EXPECT_EQ(cluster.metrics_hist_buckets(), ca::obs::kDefaultHistBuckets);
  EXPECT_EQ(cluster.metrics(), nullptr);
  const sim::FaultPlan plan;
  EXPECT_EQ(plan.seed, 0u);
  EXPECT_EQ(plan.watchdog, knobs::resolve_real(Knob::kFaultWatchdog));
  EXPECT_EQ(plan.retry_base, knobs::resolve_real(Knob::kFaultRetryBase));
  EXPECT_EQ(plan.max_retries, knobs::resolve_int(Knob::kFaultRetries));
}

// README's knob table lists exactly the code table's env vars, config keys
// and defaults, row for row.
TEST(KnobsTable, ReadmeTableListsTheSameKnobs) {
  std::ifstream in(CA_README_PATH);
  ASSERT_TRUE(in) << CA_README_PATH;
  std::set<std::string> readme;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.starts_with("## ")) in_section = line == "## Configuration knobs";
    if (!in_section || !line.starts_with("| ")) continue;
    // Cells: env var | config keys | accepts | default | meaning. Escaped
    // pipes only occur inside the accepts column.
    std::vector<std::string> cells;
    std::string cell;
    for (std::size_t i = 1; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size() && line[i + 1] == '|') {
        cell += '|';
        ++i;
      } else if (line[i] == '|') {
        cells.push_back(cell);
        cell.clear();
      } else {
        cell += line[i];
      }
    }
    if (cells.size() < 4 || (cells[0].find('`') == std::string::npos &&
                              cells[1].find('`') == std::string::npos)) {
      continue;  // header row
    }
    const auto ticked = [](const std::string& c) {
      std::string out;
      for (std::size_t a = c.find('`'); a != std::string::npos;) {
        const std::size_t b = c.find('`', a + 1);
        out += (out.empty() ? "" : " ") + c.substr(a + 1, b - a - 1);
        a = c.find('`', b + 1);
      }
      return out;
    };
    readme.insert(
        signature(ticked(cells[0]), ticked(cells[1]), ticked(cells[3])));
  }
  std::set<std::string> code;
  for (const knobs::Row& r : knobs::table()) code.insert(signature(r));
  EXPECT_EQ(readme, code);
}

// ---- consumers --------------------------------------------------------------

TEST(KnobsAlgo, ExplicitForcedAlgoBeatsEnvAndGarbageThrows) {
  CleanEnv clean;
  sim::Cluster cluster(sim::Topology::system_iii(2));
  {
    EnvGuard g("CA_COLLECTIVE_ALGO", "ring");
    col::Backend backend(cluster);  // env lands on the new backend's policy
    EXPECT_EQ(backend.world().algo_for(col::Op::kAllReduce, 16 << 20),
              col::Algo::kRing);
    backend.set_forced_algo(col::Algo::kChunked);  // explicit beats env
    EXPECT_EQ(backend.world().algo_for(col::Op::kAllReduce, 16 << 20),
              col::Algo::kChunked);
    backend.set_forced_algo(std::nullopt);  // explicit auto, env ignored
    EXPECT_EQ(backend.world().algo_for(col::Op::kAllReduce, 16 << 20),
              col::Algo::kHierarchical);
  }
  {
    EnvGuard g("CA_COLLECTIVE_ALGO", "rnig");
    EXPECT_THROW(col::Backend backend(cluster), KnobError);
  }
}

TEST(KnobsFault, NumbersRejectTrailingGarbage) {
  CleanEnv clean;
  for (const auto& [name, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"CA_FAULT_RETRIES", "3x"},
           {"CA_FAULT_FAILSTOP", "1@3x"},
           {"CA_FAULT_FAILSTOP", "1x@3"},
           {"CA_FAULT_FAILSTOP", "1@t2.5s"},
           {"CA_FAULT_SEED", "abc"},
           {"CA_FAULT_STRAGGLER", "1@0.5:2.0:3.0x"},
           {"CA_FAULT_LINK", "1.0:0.5"},
           {"CA_FAULT_CKPT_CORRUPT", "3:4:5"},
           {"CA_FAULT_WATCHDOG", "0"},
       }) {
    EnvGuard g(name, value);
    const KnobError e = knob_error([] { (void)sim::FaultPlan::from_env(); });
    EXPECT_EQ(e.name, name);
    EXPECT_EQ(e.value, value);
  }
  EnvGuard g("CA_FAULT_CKPT_CORRUPT", "3:4");
  const auto plan = sim::FaultPlan::from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->specs.at(0).step, 3);
  EXPECT_EQ(plan->specs.at(0).at, 4.0);
}
