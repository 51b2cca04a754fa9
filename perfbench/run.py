#!/usr/bin/env python3
"""Host-cost benchmark of the simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hybrid_tp_pp --seed 1 --seconds 10 --trace 0

Builds the perfbench binary (and the library, from the repository's own
build file) under .bench_build/, runs one workload in a closed loop and
prints every metric by name with its unit, a run manifest, and as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones, derived from a traced run whose spans
are written as a Chrome trace under .bench_build/traces/. Exits non-zero
when an output check fails or the program cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

WORKLOADS = ("hybrid_tp_pp", "dp_small_64r", "table3_sim_64r")
# Fewest steps (set-ups) a phase's metrics use: the calm ones, topped up
# with the least-stolen others.
MIN_STEPS = 100
MIN_TRACED_STEPS = 20
MIN_SETUPS = 3
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
LAYER_SPANS = (
    ("pp.train_step_ms", "pp.train_step"),
    ("optim.step_ms", "optim.step"),
    ("engine.forward_ms", "engine.forward"),
    ("engine.backward_ms", "engine.backward"),
    ("engine.step_ms", "engine.step"),
    ("tp.sim_step_ms.1d", "tp.sim_step.1d"),
    ("tp.sim_step_ms.2d", "tp.sim_step.2d"),
    ("tp.sim_step_ms.2p5d", "tp.sim_step.2p5d"),
    ("tp.sim_step_ms.3d", "tp.sim_step.3d"),
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- build ----------------------------------------------------------------


def build(root):
    """Configure (once) and build the perfbench target; returns the binary."""
    for need in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt"):
        if not (root / need).exists():
            raise RuntimeError(f"not a repository checkout: {need} is missing")
    build_dir = root / ".bench_build" / "perfbench"
    configured = (build_dir / "CMakeCache.txt").exists() and any(
        (build_dir / f).exists() for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
               "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    # Write back what a build just left dirty, so it does not compete with
    # the timed steps.
    os.sync()
    return build_dir / "perfbench"


def cpu_ticks():
    """Aggregate CPU tick counters from /proc/stat (empty where absent)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_frac(before, after):
    """Share of all CPU ticks between two cpu_ticks() readings that the
    hypervisor gave to other guests; None where the kernel does not say."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else None


def manifest(root, build_dir, runtime, steal):
    """Where and how the numbers were made, so runs from different
    environments are never compared blindly."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")) + [root / "CMakeLists.txt"]:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        cache[key.split(":")[0]] = value
    flags = {}
    commands = build_dir / "compile_commands.json"
    if commands.exists():
        for entry in json.loads(commands.read_text()):
            for unit in ("src/tensor/ops.cpp", "src/collective/group.cpp"):
                if entry["file"].endswith(unit):
                    flags[unit] = " ".join(
                        t for t in entry["command"].split()
                        if t.startswith(("-O", "-g", "-m", "-f", "-D", "-std")))
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "omp_team": runtime["omp_team"],
        "sim_backend": runtime["sim_backend"],
        "sim_workers": runtime["sim_workers"],
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": cache.get("CMAKE_CXX_COMPILER"),
        "compile_flags": flags,
        "env": runtime["env"],
        "host_steal_frac": steal,
    }


# ---- metrics ----------------------------------------------------------------


def calm_phase(phase, threshold, minimum):
    """A phase's per-step samples restricted to its calm steps (topped up to
    `minimum` with the least-stolen others), plus the kept step ids."""
    keep = stats.calm_indices(phase["steal"], threshold, minimum)
    out = {k: [phase[k][i] for i in keep]
           for k in ("step_ms", "cpu_ms", "ctx_switches")}
    out["ids"] = {phase["first_id"] + i for i in keep}
    return out


def end_to_end(raw):
    """The user-visible metrics, from the calm steps of the untraced phase."""
    phase = calm_phase(raw["untraced"], raw["max_steal_frac"], MIN_STEPS)
    steps = phase["step_ms"]
    rank_steps = raw["rank_steps_per_step"] * len(steps)
    tail = stats.highest_tail_percentile(len(steps))
    if tail is None or tail < 90:
        log(f"warning: {len(steps)} steps leave fewer than "
            f"{stats.TAIL_SAMPLES} samples beyond p90")
    setups = [raw["setup_s"][i] for i in stats.calm_indices(
        raw["setup_steal"], raw["max_steal_frac"], MIN_SETUPS)]
    return {
        "rank_steps_per_s": (rank_steps / (sum(steps) / 1e3), "1/s"),
        "step_ms_p50": (statistics.median(steps), "ms"),
        "step_ms_p90": (stats.percentile(steps, 90), "ms"),
        "cpu_ms_per_rank_step": (sum(phase["cpu_ms"]) / rank_steps, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (raw["peak_rss_kib"] / 1024.0, "MiB"),
    }


def load_spans(trace_path):
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    return [{"name": e["name"], "rank": e["args"]["rank"],
             "step": e["args"]["step"], "id": e["args"]["id"],
             "parent": e["args"]["parent"], "t0": e["ts"] / 1e3,
             "t1": (e["ts"] + e["dur"]) / 1e3} for e in events]


def layer_ms(spans, name):
    """Median over steps of the mean per-rank duration of span `name`."""
    per_step = defaultdict(list)
    for s in spans:
        if s["name"] == name:
            per_step[s["step"]].append(s["t1"] - s["t0"])
    if not per_step:
        return 0.0
    return statistics.median(sum(v) / len(v) for v in per_step.values())


def per_layer(raw, trace_path):
    """Layer metrics from the traced run: spans for time, counters for
    counts, the program's own counters for the simulated results."""
    limit = raw["max_steal_frac"]
    untraced_phase = calm_phase(raw["untraced"], limit, MIN_TRACED_STEPS)
    traced_phase = calm_phase(raw["traced"], limit, MIN_TRACED_STEPS)
    all_spans = load_spans(trace_path)
    spans = [s for s in all_spans if s["step"] in traced_phase["ids"]]
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["t0"], s["t1"]))

    runs = [s for s in spans if s["name"] == "sim.run"]
    run_self = [stats.self_time((r["t0"], r["t1"]), children[r["id"]])
                for r in runs]

    sync = raw["sync_span"]
    arrivals = defaultdict(list)
    for s in spans:
        if s["name"] == sync or (sync.endswith(".") and s["name"].startswith(sync)):
            arrivals[(s["step"], s["name"])].append(s["t0"])
    waits = [stats.cross_rank_wait(v) for v in arrivals.values()]

    pp_step = defaultdict(float)
    for s in spans:
        if s["name"] == "pp.train_step":
            pp_step[s["step"]] = max(pp_step[s["step"]], s["t1"] - s["t0"])
    gflops = 0.0
    if raw["flops_per_step"] > 0 and pp_step:
        gflops = raw["flops_per_step"] / (statistics.median(pp_step.values()) * 1e6)

    untraced = untraced_phase["step_ms"]
    traced = traced_phase["step_ms"]
    serial = statistics.median(raw["serial_step_ms"]) if raw["serial_step_ms"] else 0.0
    launch_ms = sum(s["t1"] - s["t0"] for s in all_spans
                    if s["name"] == "core.launch")
    model = raw["model"]
    m = {
        "sim.run_overhead_ms": (statistics.fmean(run_self) if run_self else 0.0, "ms"),
        "sim.ctx_switches_per_rank_step": (
            sum(untraced_phase["ctx_switches"])
            / (raw["rank_steps_per_step"] * len(untraced)), "count"),
        "collective.wait_ms": (statistics.fmean(waits) if waits else 0.0, "ms"),
        "tensor.host_gflops": (gflops, "GFLOP/s"),
        "tensor.omp_team": (raw["manifest"]["omp_team"], "count"),
        "tensor.serial_step_ms": (serial, "ms"),
        "host.parallel_speedup": (serial / statistics.median(untraced), "ratio"),
    }
    for metric, span in LAYER_SPANS:
        m[metric] = (layer_ms(spans, span), "ms")
    m.update({
        "core.setup_ms": (launch_ms, "ms"),
        "obs.trace_overhead_frac": (
            statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio"),
        "model.step_s": (model["step_s"], "sim_s"),
        "model.samples_per_s": (model["samples"] / model["step_s"], "samples/sim_s"),
        "model.bytes_per_step": (model["bytes"], "B"),
        "model.peak_device_mib": (model["peak_device_bytes"] / 2**20, "MiB"),
        "model.bubble_frac": (model["bubble_frac"], "ratio"),
        "model.comm_overlap_frac": (model["comm_overlap_frac"], "ratio"),
    })
    return m


# ---- entry point -----------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    try:
        binary = build(root)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    out_dir = root / ".bench_build"
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = out_dir / "runs" / f"{tag}.json"
    trace_path = out_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    if args.trace:
        cmd += ["--trace-file", str(trace_path)]
    raw_path.unlink(missing_ok=True)
    started = time.monotonic()
    ticks = cpu_ticks()
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: run failed: {e}")
        return 3
    steal = steal_frac(ticks, cpu_ticks())
    raw = json.loads(raw_path.read_text())
    elapsed = time.monotonic() - started

    metrics = per_layer(raw, trace_path) if args.trace else end_to_end(raw)
    info = manifest(root, binary.parent, raw["manifest"], steal)
    correct = raw["failed"] == 0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(raw['untraced']['step_ms'])} untraced + "
          f"{len(raw['traced']['step_ms'])} traced steps in {elapsed:.1f} s")
    for name in ("untraced", "traced"):
        phase = raw[name]
        if phase["step_ms"]:
            calm = sum(s <= raw["max_steal_frac"] for s in phase["steal"])
            print(f"  {name} phase: {calm} of {len(phase['step_ms'])} steps "
                  f"calm, host steal {phase['steal_frac']:.3f}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(f"  {'fail_frac':<{width}}  "
          f"{stats.fail_frac(raw['attempted'], raw['failed']):.6g} ratio "
          f"({raw['failed']} of {raw['attempted']} steps)")
    for why in raw["failures"]:
        print(f"  FAILED: {why}")
    if args.trace:
        print(f"  trace: {trace_path.relative_to(root)}")
    print("manifest: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
