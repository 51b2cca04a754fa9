#include "harness.hpp"

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/report.hpp"

namespace perfbench {

double now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- spans -----------------------------------------------------------------

namespace {
// Ids carry their slot in the high bits so every writer mints its own
// without coordination; 0 stays free to mean "no parent".
constexpr int kSlotShift = 40;
}  // namespace

SpanRecorder::SpanRecorder(int world)
    : slots_(static_cast<std::size_t>(world) + 1),
      counters_(static_cast<std::size_t>(world) + 1, 0) {}

std::size_t SpanRecorder::slot(int rank) const {
  return static_cast<std::size_t>(rank + 1);
}

std::uint64_t SpanRecorder::next_id(int rank) {
  const std::size_t s = slot(rank);
  return (static_cast<std::uint64_t>(s) << kSlotShift) | ++counters_.at(s);
}

void SpanRecorder::close(Span s) { slots_.at(slot(s.rank)).push_back(s); }

bool SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::string& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"metadata\": %s,\n",
               meta.c_str());
  std::fprintf(f, "\"traceEvents\": [\n");
  bool first = true;
  for (const auto& v : slots_) {
    for (const Span& s : v) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"rank\": %d, \"step\": %ld, \"id\": %llu, "
                   "\"parent\": %llu}}",
                   first ? "" : ",\n", s.name, s.rank + 1, s.t0_ns / 1e3,
                   (s.t1_ns - s.t0_ns) / 1e3, s.rank, s.step,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name, int rank,
                       long step, std::uint64_t parent) {
  if (rec == nullptr || !rec->enabled()) return;
  rec_ = rec;
  span_.name = name;
  span_.rank = rank;
  span_.step = step;
  span_.parent = parent;
  span_.id = rec->next_id(rank);
  span_.t0_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (rec_ == nullptr) return;
  span_.t1_ns = now_ns();
  rec_->close(span_);
}

void run_ranks(SpanRecorder* rec, ca::sim::Cluster& cluster, long step,
               const std::function<void(int, std::uint64_t)>& body) {
  const std::uint64_t host = rec != nullptr ? rec->host_parent() : 0;
  ScopedSpan run(rec, "sim.run", -1, step, host);
  const std::uint64_t run_id = run.id();
  cluster.run([&](int r) {
    ScopedSpan rank(rec, "rank", r, step, run_id);
    body(r, rank.id());
  });
}

// ---- program counters --------------------------------------------------------

StepMark begin_step(ca::sim::Cluster& cluster) {
  StepMark mark{cluster.max_clock(), cluster.total_bytes_sent()};
  for (int r = 0; r < cluster.world_size(); ++r) {
    auto& d = cluster.device(r);
    d.set_clock(mark.clock);
    d.mem().reset_peak();
  }
  if (cluster.tracer() != nullptr) cluster.tracer()->clear();
  return mark;
}

ModelStats read_model_stats(ca::sim::Cluster& cluster, const StepMark& mark,
                            double samples, bool sim_traced) {
  ModelStats m;
  m.step_s = cluster.max_clock() - mark.clock;
  m.samples = samples;
  m.bytes = static_cast<double>(cluster.total_bytes_sent() - mark.bytes);
  for (int r = 0; r < cluster.world_size(); ++r) {
    m.peak_device_bytes = std::max(
        m.peak_device_bytes, static_cast<double>(cluster.device(r).mem().peak()));
  }
  if (sim_traced && cluster.tracer() != nullptr) {
    const auto rep = ca::obs::summarize(*cluster.tracer());
    m.bubble_frac = rep.bubble_fraction;
    m.comm_overlap_frac = rep.comm_overlap_fraction;
  }
  return m;
}

void set_sim_tracing(ca::sim::Cluster& cluster, bool on) {
  if (on) {
    cluster.enable_tracing();
  } else {
    cluster.disable_tracing();
  }
}

RuntimeInfo probe_runtime(ca::sim::Cluster& cluster) {
  RuntimeInfo info;
  cluster.run([&](int r) {
    if (r == 0) info.omp_team = omp_get_max_threads();
  });
  const bool tasks = cluster.backend() == ca::sim::SimBackend::kTasks;
  info.backend = ca::sim::backend_name(cluster.backend());
  if (tasks) {
    int w = cluster.workers();
    if (w <= 0) w = static_cast<int>(std::thread::hardware_concurrency());
    info.workers = std::clamp(w, 1, cluster.world_size());
  } else {
    info.workers = cluster.world_size();
  }
  return info;
}

// ---- process counters --------------------------------------------------------

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  Usage u;
  u.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.max_rss_kib = ru.ru_maxrss;
  return u;
}

HostTicks host_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string line;
  HostTicks t;
  if (!std::getline(in, line)) return t;
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  long long v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const HostTicks& before, const HostTicks& after) {
  const long long total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace perfbench
