#include "sim/fault.hpp"

#include <algorithm>
#include <bit>
#include <climits>

#include "knobs/knobs.hpp"

namespace ca::sim {

// ---- FaultPlan --------------------------------------------------------------

double FaultPlan::jitter(std::uint64_t k) const {
  // splitmix64 of (seed, k): stable across platforms, no global state.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

namespace {

/// A CA_FAULT_* spec value "[<rank>@]<f0>[:<f1>...]". A missing or malformed
/// part rejects the whole value with the knob's accepted form.
struct Spec {
  knobs::Knob knob;
  std::string value;
  int rank = -1;
  std::vector<std::string> f = {};  ///< the colon-separated fields

  /// A whole-string integer in 0..INT_MAX (rank, step, byte offset).
  [[nodiscard]] std::int64_t count(std::string_view s) const {
    const auto v = knobs::to_int(s);
    if (!v || *v < 0 || *v > INT_MAX) knobs::reject(knob, value);
    return *v;
  }
  /// Field i, past `skip` characters, as a finite number (seconds, factor).
  [[nodiscard]] double real(std::size_t i, std::size_t skip = 0) const {
    const auto v = knobs::to_real(std::string_view(f[i]).substr(skip));
    if (!v) knobs::reject(knob, value);
    return *v;
  }
};

/// The spec in `k`'s variable, with `n_lo..n_hi` fields; nullopt if unset.
std::optional<Spec> spec(knobs::Knob k, bool ranked, std::size_t n_lo,
                         std::size_t n_hi) {
  const auto v = knobs::env(k);
  if (!v) return std::nullopt;
  Spec s{k, *v};
  std::string_view rest = s.value;
  if (ranked) {
    const auto at = rest.find('@');
    if (at == rest.npos) knobs::reject(k, s.value);
    s.rank = static_cast<int>(s.count(rest.substr(0, at)));
    rest.remove_prefix(at + 1);
  }
  for (std::size_t pos = 0, colon = 0; colon != rest.npos; pos = colon + 1) {
    colon = rest.find(':', pos);
    s.f.emplace_back(rest.substr(pos, colon - pos));
  }
  if (s.f.size() < n_lo || s.f.size() > n_hi) knobs::reject(k, s.value);
  return s;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::from_env() {
  using knobs::Knob;
  const auto set = [](const knobs::Row& r) {
    return r.env.starts_with("CA_FAULT_") && knobs::env(r.knob).has_value();
  };
  if (std::none_of(knobs::table().begin(), knobs::table().end(), set)) {
    return std::nullopt;
  }
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(knobs::resolve_int(Knob::kFaultSeed));
  plan.watchdog = knobs::resolve_real(Knob::kFaultWatchdog);
  plan.retry_base = knobs::resolve_real(Knob::kFaultRetryBase);
  plan.max_retries = static_cast<int>(knobs::resolve_int(Knob::kFaultRetries));
  if (const auto s = spec(Knob::kFaultFailstop, true, 1, 1)) {
    if (s->f[0].starts_with('t')) {
      plan.fail_stop_at(s->rank, s->real(0, 1));
    } else {
      plan.fail_stop(s->rank, s->count(s->f[0]));
    }
  }
  if (const auto s = spec(Knob::kFaultStraggler, true, 3, 3)) {
    plan.straggler(s->rank, s->real(0), s->real(1), s->real(2));
  }
  if (const auto s = spec(Knob::kFaultLink, false, 3, 3)) {
    plan.degrade_links(s->real(0), s->real(1), s->real(2));
  }
  if (const auto s = spec(Knob::kFaultNan, true, 1, 1)) {
    plan.corrupt_grads(s->rank, s->count(s->f[0]));
  }
  if (const auto s = spec(Knob::kFaultTransient, false, 2, 2)) {
    plan.transient_comm(s->real(0), s->real(1));
  }
  if (const auto s = spec(Knob::kFaultCkptCorrupt, false, 1, 2)) {
    plan.corrupt_checkpoint(s->count(s->f[0]),
                            s->f.size() == 2 ? s->count(s->f[1]) : -1);
  }
  return plan;
}

// ---- FaultInjector ----------------------------------------------------------

void FaultInjector::on_step(int rank, std::int64_t step, double clock) const {
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kFailStop && s.rank == rank && s.step >= 0 &&
        s.step == step) {
      throw DeviceFailure(rank, step, clock);
    }
  }
}

void FaultInjector::check_alive(int rank, double clock) const {
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kFailStop && s.rank == rank && s.at >= 0.0 &&
        clock >= s.at) {
      throw DeviceFailure(rank, -1, clock);
    }
  }
}

double FaultInjector::compute_slowdown(int rank, double t) const {
  double factor = 1.0;
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kStraggler && s.rank == rank && t >= s.at &&
        t < s.at + s.duration) {
      factor = std::max(factor, s.factor);
    }
  }
  return factor;
}

double FaultInjector::link_slowdown(double t) const {
  double factor = 1.0;
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kLinkDegrade && t >= s.at &&
        t < s.at + s.duration) {
      factor = std::max(factor, s.factor);
    }
  }
  return factor;
}

bool FaultInjector::corrupt_grads(int rank, std::int64_t step) const {
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kGradCorrupt && s.rank == rank &&
        s.step == step) {
      return true;
    }
  }
  return false;
}

FaultInjector::RetryResult FaultInjector::transient_delay(double t) const {
  RetryResult r;
  std::size_t si = 0;
  for (const FaultSpec& s : plan_.specs) {
    const std::size_t spec_index = si++;
    if (s.kind != FaultKind::kTransientComm) continue;
    // Decorrelated-jitter backoff (seeded): the first retry waits exactly
    // retry_base; retry k then draws d_k uniform in [retry_base, 3*d_{k-1})
    // from the plan's splitmix64 stream, capped at retry_base*2^max_retries.
    // Pure exponential backoff kept every concurrent collective in lockstep,
    // so retry storms re-collided on the degraded link; jittering spreads
    // them out. The draw is keyed on (start time, spec, attempt) only —
    // every member of one collective passes the same symmetric start time,
    // so all members still agree on the delays (or on giving up) without
    // extra communication, and the whole schedule is reproducible from
    // CA_FAULT_SEED.
    const std::uint64_t key = std::bit_cast<std::uint64_t>(t) ^
                              0x517cc1b727220a95ULL * (spec_index + 1);
    const double cap = plan_.retry_base *
                       static_cast<double>(std::int64_t{1} << plan_.max_retries);
    double now = t;
    double prev = plan_.retry_base;
    while (now >= s.at && now < s.at + s.duration) {
      if (r.retries >= plan_.max_retries) {
        r.gave_up = true;
        return r;
      }
      double backoff = plan_.retry_base;
      if (r.retries > 0) {
        const double u =
            plan_.jitter(key + static_cast<std::uint64_t>(r.retries));
        backoff = plan_.retry_base + u * (3.0 * prev - plan_.retry_base);
        backoff = std::min(backoff, cap);
      }
      prev = backoff;
      now += backoff;
      r.delay += backoff;
      ++r.retries;
    }
  }
  return r;
}

bool FaultInjector::corrupt_checkpoint(std::int64_t step,
                                       std::int64_t* offset) const {
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kCkptCorrupt && s.step == step) {
      if (offset != nullptr) *offset = static_cast<std::int64_t>(s.at);
      return true;
    }
  }
  return false;
}

// ---- FaultState -------------------------------------------------------------

void FaultState::abort(int rank, const std::string& cause, bool device_death) {
  std::lock_guard<std::mutex> lk(mu_);
  if (cause_.empty()) cause_ = cause;
  if (device_death) dead_ranks_.push_back(rank);
  aborted_.store(true, std::memory_order_release);
  // Wake while holding the registry lock: unregister_waker (taken by owner
  // destructors) then cannot return while a wake is mid-call, so a waker
  // never outlives its barrier/channel. Acyclic lock order: wakers only lock
  // their own mutex and notify, and no path locks this registry while
  // holding a waker's mutex (waiter predicates read only the atomic flag).
  for (auto& [key, wake] : wakers_) wake();
}

std::string FaultState::cause() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cause_;
}

std::vector<int> FaultState::dead_ranks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dead_ranks_;
}

void FaultState::register_waker(const void* key, std::function<void()> wake) {
  std::lock_guard<std::mutex> lk(mu_);
  wakers_.emplace_back(key, std::move(wake));
}

void FaultState::unregister_waker(const void* key) {
  std::lock_guard<std::mutex> lk(mu_);
  std::erase_if(wakers_, [key](const auto& w) { return w.first == key; });
}

void FaultState::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  aborted_.store(false, std::memory_order_release);
  recovered_.store(false, std::memory_order_release);
  cause_.clear();
  dead_ranks_.clear();
}

void FaultState::rearm() {
  std::lock_guard<std::mutex> lk(mu_);
  aborted_.store(false, std::memory_order_release);
  recovered_.store(true, std::memory_order_release);
  cause_.clear();
  // dead_ranks_ intentionally kept: the survivor consensus for any later
  // failure in this region must still exclude everyone who already died.
}

}  // namespace ca::sim
