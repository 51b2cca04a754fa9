// perfbench: closed-loop host-cost benchmark of the simulator.
//
//   perfbench --workload hybrid_tp_pp --seed 1 --seconds 10 --trace 0
//             --out raw.json [--trace-file trace.json]
//
// Builds the workload several times (set-up samples), then issues one
// training step at a time and waits for it, for at least --seconds and at
// least 100 calm steps, checking every step's outputs. With --trace 1 it
// instead builds once, times an untraced phase, then a traced phase with host
// spans and the program's sim-clock tracer on, then the serial twin (if any),
// and writes the spans as a Chrome trace. Raw samples go to --out as JSON;
// run.py turns them into metrics.
//
// On a virtual machine the hypervisor may hand its CPUs to other guests
// ("steal" in /proc/stat), which stretches wall times by far more than
// the stolen share when ranks wait on each other. Steps are therefore grouped
// into windows of at least kWindowS and each step is written out with its
// window's stolen share (each set-up with its own). A step is calm when that
// share is at most kMaxStealFrac; a phase runs on, up to kMaxStretch times
// its length, until it has enough calm steps.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

extern char** environ;

namespace {

using namespace perfbench;

constexpr int kSetups = 5;         // calm set-up samples in an untraced run
constexpr int kWarmupSteps = 2;    // steps inside each set-up
constexpr long kMinSteps = 100;    // so p90 has >= 10 samples beyond it
constexpr long kMinTracedSteps = 20;
constexpr long kMaxTracedSteps = 200;  // bounds the trace file
constexpr long kNoMax = 1L << 40;
constexpr int kSerialSteps = 10;
constexpr double kWindowS = 0.5;
constexpr double kMaxStealFrac = 0.02;
constexpr double kMaxStretch = 3.0;
constexpr double kHardLimitS = 140.0;  // stop timing whatever the counts

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out FILE [--trace-file FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--out") {
        a.out = v;
      } else if (k == "--trace-file") {
        a.trace_file = v;
      } else {
        usage(("unknown option " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.out.empty()) {
    usage("--workload, --seed, --seconds and --out are required");
  }
  if (a.trace && a.trace_file.empty()) usage("--trace 1 needs --trace-file");
  return a;
}

/// Per-step samples of one timed phase; step i has id first_id + i.
struct Phase {
  std::vector<double> step_ms;
  std::vector<double> cpu_ms;
  std::vector<double> ctx_switches;
  std::vector<double> steal;  // stolen share of the step's window
  long first_id = 0;
  double steal_frac = 0.0;    // over the whole phase
};

struct Counts {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> reasons;  // first few failures, for the log

  void record(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    if (reasons.size() < 5) reasons.push_back(why);
  }
};

/// Run one step and its output check; "" when both succeed.
std::string run_step(Workload& w, long id) {
  try {
    w.step(id);
  } catch (const std::exception& e) {
    return std::string("step threw: ") + e.what();
  }
  return w.check();
}

/// Closed loop: issue a step, wait, check, repeat until both `seconds` and
/// `min_calm` calm steps are reached, or `max_steps` steps, or the phase
/// has stretched kMaxStretch times `seconds` with `min_calm` steps of any
/// kind.
Phase timed_phase(Workload& w, SpanRecorder& rec, long& next_id,
                  double seconds, long min_calm, long max_steps,
                  double start_ns, Counts& counts) {
  Phase p;
  p.first_id = next_id;
  const double t_begin = now_ns();
  const HostTicks phase_ticks = host_ticks();
  HostTicks win_ticks = phase_ticks;
  double win_begin = t_begin;
  long calm = 0;
  const auto close_window = [&] {
    const HostTicks now = host_ticks();
    const double stolen = steal_frac(win_ticks, now);
    while (p.steal.size() < p.step_ms.size()) {
      p.steal.push_back(stolen);
      calm += stolen <= kMaxStealFrac ? 1 : 0;
    }
    win_ticks = now;
    win_begin = now_ns();
  };
  while (true) {
    const double elapsed = (now_ns() - t_begin) / 1e9;
    const auto n = static_cast<long>(p.step_ms.size());
    if ((elapsed >= seconds && calm >= min_calm) || n >= max_steps ||
        (elapsed >= kMaxStretch * seconds && n >= min_calm) ||
        (now_ns() - start_ns) / 1e9 > kHardLimitS) {
      break;
    }
    const long id = next_id++;
    const Usage u0 = usage_now();
    const double t0 = now_ns();
    std::string why;
    {
      ScopedSpan step(&rec, "step", -1, id, 0);
      rec.set_host_parent(step.id());
      try {
        w.step(id);
      } catch (const std::exception& e) {
        why = std::string("step threw: ") + e.what();
      }
    }
    const double t1 = now_ns();
    const Usage u1 = usage_now();
    p.step_ms.push_back((t1 - t0) / 1e6);
    p.cpu_ms.push_back(u1.cpu_ms - u0.cpu_ms);
    p.ctx_switches.push_back(static_cast<double>(u1.ctx_switches - u0.ctx_switches));
    if (why.empty()) why = w.check();
    counts.record(why);
    if ((now_ns() - win_begin) / 1e9 >= kWindowS) close_window();
  }
  close_window();
  p.steal_frac = steal_frac(phase_ticks, host_ticks());
  rec.set_host_parent(0);
  return p;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + json_num(v[i]);
  }
  return out + "]";
}

std::string json_phase(const Phase& p) {
  return "{\"step_ms\": " + json_list(p.step_ms) +
         ", \"cpu_ms\": " + json_list(p.cpu_ms) +
         ", \"ctx_switches\": " + json_list(p.ctx_switches) +
         ", \"steal\": " + json_list(p.steal) +
         ", \"first_id\": " + std::to_string(p.first_id) +
         ", \"steal_frac\": " + json_num(p.steal_frac) + "}";
}

std::string json_model(const ModelStats& m) {
  return "{\"step_s\": " + json_num(m.step_s) +
         ", \"samples\": " + json_num(m.samples) +
         ", \"bytes\": " + json_num(m.bytes) +
         ", \"peak_device_bytes\": " + json_num(m.peak_device_bytes) +
         ", \"bubble_frac\": " + json_num(m.bubble_frac) +
         ", \"comm_overlap_frac\": " + json_num(m.comm_overlap_frac) + "}";
}

/// CA_* and OMP_* variables present in the environment.
std::string json_knobs() {
  std::string out = "{";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("CA_", 0) != 0 && kv.rfind("OMP_", 0) != 0) continue;
    const auto eq = kv.find('=');
    out += (first ? "" : ", ") + json_str(kv.substr(0, eq)) + ": " +
           json_str(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  return out + "}";
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed,
                               SpanRecorder* rec) {
  if (name == "hybrid_tp_pp") return make_hybrid_tp_pp(seed, rec);
  if (name == "dp_small_64r") return make_dp_small_64r(seed, rec);
  if (name == "table3_sim_64r") return make_table3_sim_64r(seed, rec);
  usage(("unknown workload " + name).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const double start_ns = now_ns();

  // Largest world any workload uses; slots are cheap.
  SpanRecorder rec(64);
  auto w = make(args.workload, args.seed, &rec);
  Counts counts;
  long next_id = 0;

  // Set-up: construction, model init and warm-up steps, timed as a whole.
  // The traced run records the construction spans of its single set-up.
  // The traced run also reads the simulated results off its first warm-up
  // step, which starts from fresh clocks and so does not depend on how many
  // steps the host managed to time.
  // Only the untraced run retries a set-up that lost CPU to steal; the
  // traced run keeps its single set-up's construction spans.
  std::vector<double> setup_s, setup_steal;
  ModelStats model;
  const int want = args.trace ? 1 : kSetups;
  const int most = args.trace ? 1 : 2 * kSetups;
  int calm_setups = 0;
  for (int k = 0; k < most && calm_setups < want; ++k) {
    const HostTicks ticks = host_ticks();
    const double t0 = now_ns();
    rec.set_enabled(args.trace);
    w->setup();
    rec.set_enabled(false);
    for (int i = 0; i < kWarmupSteps; ++i) {
      const bool model_step = args.trace && i == 0;
      if (model_step) w->set_sim_tracing(true);
      counts.record(run_step(*w, -1 - i));
      if (model_step) {
        model = w->model_stats();
        w->set_sim_tracing(false);
      }
    }
    setup_s.push_back((now_ns() - t0) / 1e9);
    setup_steal.push_back(steal_frac(ticks, host_ticks()));
    calm_setups += setup_steal.back() <= kMaxStealFrac ? 1 : 0;
  }
  const RuntimeInfo rt = w->runtime();

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const long untraced_min = args.trace ? kMinTracedSteps : kMinSteps;
  const Phase untraced = timed_phase(*w, rec, next_id, untraced_s,
                                     untraced_min, kNoMax, start_ns, counts);

  Phase traced;
  std::vector<double> serial_ms;
  if (args.trace) {
    w->set_sim_tracing(true);
    rec.set_enabled(true);
    traced = timed_phase(*w, rec, next_id, args.seconds / 2, kMinTracedSteps,
                         kMaxTracedSteps, start_ns, counts);
    rec.set_enabled(false);
    w->set_sim_tracing(false);
    serial_ms = w->serial_step_ms(kSerialSteps);
  }
  const Usage end = usage_now();

  const std::string manifest =
      "{\"omp_team\": " + std::to_string(rt.omp_team) +
      ", \"sim_backend\": " + json_str(rt.backend) +
      ", \"sim_workers\": " + std::to_string(rt.workers) +
      ", \"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"env\": " + json_knobs() + "}";

  if (args.trace) {
    const std::string meta = "{\"workload\": " + json_str(args.workload) +
                             ", \"seed\": " + std::to_string(args.seed) +
                             ", \"clock\": \"host steady_clock\"" +
                             ", \"manifest\": " + manifest + "}";
    if (!rec.write_chrome_trace(args.trace_file, meta)) return 3;
  }

  std::string reasons = "[";
  for (std::size_t i = 0; i < counts.reasons.size(); ++i) {
    reasons += (i ? ", " : "") + json_str(counts.reasons[i]);
  }
  reasons += "]";

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 3;
  }
  std::fprintf(
      f,
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %s, "
      "\"rank_steps_per_step\": %d, \"sync_span\": %s, "
      "\"flops_per_step\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"failures\": %s, \"max_steal_frac\": %s, \"setup_s\": %s, "
      "\"setup_steal\": %s, "
      "\"untraced\": %s, \"traced\": %s, "
      "\"serial_step_ms\": %s, \"model\": %s, \"peak_rss_kib\": %ld, "
      "\"manifest\": %s}\n",
      json_str(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? "true" : "false",
      w->rank_steps_per_step(), json_str(w->sync_span()).c_str(),
      json_num(w->flops_per_step()).c_str(), counts.attempted, counts.failed,
      reasons.c_str(), json_num(kMaxStealFrac).c_str(),
      json_list(setup_s).c_str(), json_list(setup_steal).c_str(),
      json_phase(untraced).c_str(), json_phase(traced).c_str(),
      json_list(serial_ms).c_str(), json_model(model).c_str(),
      end.max_rss_kib, manifest.c_str());
  if (std::fclose(f) != 0) return 3;
  return 0;
}
