"""attocell benchmark: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload control_loop --seed 7 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout.  ``--trace 0``
measures the end-to-end metrics with no instrumentation; ``--trace 1``
wraps each layer's public functions and reports the per-layer metrics.
Every metric is printed by name with its unit, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (environment,
per-op times, failures, and for traced runs the spans) is written under
``.bench_out/``.  See bench/README.md for the workloads and metrics.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import attocell from this checkout's src/, and nothing else."""
    package = os.path.join(SRC, "attocell")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise ProgramMissing(f"no attocell sources under {SRC}")
    sys.path.insert(0, SRC)
    import attocell
    if os.path.dirname(os.path.abspath(attocell.__file__)) != package:
        raise ProgramMissing(f"attocell imported from {attocell.__file__}, not {package}")


def timed_op(wl, inp, tracer=None, op=None):
    """Wall time and outcome of one op; an exception is the outcome of a failed op."""
    start = time.perf_counter()
    try:
        out = wl.run(inp) if tracer is None else tracer.run_op(op, wl.run, inp)
    except Exception as exc:  # the op failed; its check reports it
        out = exc
    return time.perf_counter() - start, out


def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter until it has run its warm-up op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def op_count(wl, seconds):
    """Ops in a timed run: as many as take ``seconds`` at the workload's
    nominal op time, and at least one.  The count does not depend on how
    fast the ops run, so a seed gives the same ops, and with them the same
    attempted count and the same failures, on every run."""
    return max(1, round(seconds / wl.nominal_op_s))


def run_untraced(wl, seconds, probes=SETUP_PROBES):
    """End-to-end metrics: set-up probes, then ``op_count`` timed ops."""
    setups = [probe_setup(wl.name, wl.seed) for _ in range(probes)]
    walls, records = [], []
    for k in range(1, op_count(wl, seconds) + 1):
        inp = wl.prepare(k)
        dt, out = timed_op(wl, inp)
        records.append(wl.collect(k, inp, out))
        walls.append(dt)
    busy = sum(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = {r["op"]: r["problem"] for r in records if r["problem"]}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (sum(r["units"] for r in records if not r["wrong"]) / busy, "1/s"),
        "latency_p90_ms": (float(np.percentile(walls, 90)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # printed, but not bounded: see "End-to-end metrics" in bench/README.md
    unbounded = {"latency_p50_ms": (float(np.percentile(walls, 50)) * 1e3, "ms"),
                 "failed_share": (len(failed) / len(records), "1"),
                 "ops": (len(records), "count")}
    return {"metrics": metrics, "printed": dict(metrics, **unbounded),
            "attempted": len(records), "failed": failed,
            "wrong": [r["op"] for r in records if r["wrong"]], "problems": [],
            "detail": {"setup_probes_s": setups, "op_walls_s": walls}}


def run_traced(wl, seconds):
    """Per-layer metrics over a fixed list of ``wl.trace_ops`` ops.

    Passes over the same ops repeat until ``seconds`` of op time have
    passed (at least one pass).  Within a pass every op runs twice back to
    back, untraced and traced, in alternating order, so that the tracing
    overhead is measured on neighbouring runs of the same input.  Counters
    come from every pass and must agree exactly; times are medians over
    all passes.
    """
    inputs = [wl.prepare(k) for k in range(1, wl.trace_ops + 1)]
    plain, traced, tracers, failed, wrong = [], [], [], {}, set()
    busy = 0.0
    records = None
    while busy < seconds or not tracers:
        tracer = tracing.Tracer()
        pass_records = []
        for k, inp in enumerate(inputs, 1):
            for traced_run in ((False, True) if k % 2 else (True, False)):
                if traced_run:
                    with tracer:
                        dt, out = timed_op(wl, inp, tracer, k)
                    rec = wl.collect(k, inp, out, check=not tracers)
                    pass_records.append(rec)
                    traced.append(dt)
                else:
                    dt, out = timed_op(wl, inp)
                    rec = wl.collect(k, inp, out, check=False)
                    plain.append(dt)
                busy += dt
                if rec["problem"]:
                    failed.setdefault(k, rec["problem"])
                if rec["wrong"]:
                    wrong.add(k)
        tracers.append(tracer)
        records = records or pass_records
    problems = [p for t in tracers for p in tracing.check_nesting(t.spans)]
    counters = [work_counters(t) for t in tracers]
    if any(c != counters[0] for c in counters[1:]):
        problems.append("work counters drifted between traced passes")
    problems.extend(compare_with_earlier_run(wl, counters[0]))
    metrics = layer_metrics(wl, tracers, counters[0], records, plain, traced)
    metrics["failed_share"] = (len(failed) / len(records), "1")
    return {"metrics": metrics, "printed": metrics, "attempted": len(records),
            "failed": failed, "wrong": sorted(wrong), "problems": problems,
            "detail": {"counters": counters[0], "op_walls_untraced_s": plain,
                       "op_walls_traced_s": traced},
            "spans": tracers[0].spans}


def work_counters(tracer):
    """Everything one traced pass counts, summed over its ops: calls per
    span group and per counted function, SDP instances, repeats, Newton
    steps and stalls, orchestrator messages, and lightwave verdicts.
    Identical inputs must give identical counters."""
    out = collections.Counter(f"calls.{s[3]}" for s in tracer.spans)
    for (_, name), n in tracer.counts.items():
        out[f"calls.{name}"] += n
    seen = set()
    for _, _, _, group, _, _, info in tracer.spans:
        if not info:
            continue
        if "error" in info:
            if group == "beamforming.sdp" and info["error"] == "SolverStallError":
                out["sdp.stalls"] += 1
        elif group == "beamforming.sdp":
            if info["trivial"]:
                out["sdp.trivial"] += 1
            else:
                out["sdp.instances"] += 1
                out["sdp.repeats"] += info["key"] in seen
                out["sdp.newton_steps"] += info["newton"]
                seen.add(info["key"])
        elif group.startswith("orchestrator."):
            out[f"{group}.answered"] += 1
            out[f"{group}.messages"] += info["messages"]
        elif group == "lightwave":
            out[f"lightwave.{info['method']}"] += 1
            out["lightwave.feasible"] += info["feasible"]
            out["lightwave.fallback"] += info["fallback"]
    return dict(sorted(out.items()))


def source_digest():
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "attocell"), BENCH_DIR):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".py", ".yaml")):
                    with open(os.path.join(base, name), "rb") as fh:
                        digest.update(name.encode() + fh.read())
    return digest.hexdigest()[:16]


def compare_with_earlier_run(wl, counters):
    """Flag counters that differ from an earlier traced run of the same
    sources, workload, seed and op count; record them for the next run."""
    path = os.path.join(OUT_DIR, f"counters-{wl.name}-seed{wl.seed}-ops{wl.trace_ops}-"
                                 f"{source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier != counters:
            return [f"work counters differ from the earlier run recorded in {path}"]
        return []
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counters, fh, sort_keys=True, indent=1)
    return []


def layer_metrics(wl, tracers, counters, records, plain, traced):
    """Per-layer metrics; see the table in bench/README.md.

    ``*_calls`` and ``.calls`` are calls per op.  ``*self_ms`` is the
    median, over the ops in which that layer or function ran, of its self
    time in the op (0 when it never ran); ``*self_us`` is the median self
    time per call.  Counts come from the first traced pass, times from all.
    """
    n = len(records)
    per_op = collections.defaultdict(lambda: collections.defaultdict(float))
    per_call = collections.defaultdict(list)
    gap_rel_max = root_total = root_self = 0.0
    for p, tracer in enumerate(tracers):
        selfs = tracing.self_times(tracer.spans)
        for op, sid, _, group, start, end, info in tracer.spans:
            own = selfs[sid]
            for key in {group, group.split(".")[0]}:
                per_op[key][(p, op)] += own
            if group == tracing.ROOT:
                root_total += end - start
                root_self += own
            elif group != "beamforming.sdp":
                per_call[group].append(own)
            elif "error" not in info and not info["trivial"]:
                per_call[group].append(own)
                gap_rel_max = max(gap_rel_max, info["gap_rel"])

    def op_ms(key):
        values = list(per_op[key].values()) if key in per_op else []
        return (statistics.median(values) * 1e3 if values else 0.0, "ms")

    def call_us(group):
        values = per_call.get(group, [])
        return (statistics.median(values) * 1e6 if values else 0.0, "us")

    def call_ms(group, q):
        values = per_call.get(group, [])
        return (float(np.percentile(values, q)) * 1e3 if values else 0.0, "ms")

    def share(*keys):
        return (sum(sum(per_op[k].values()) for k in keys if k in per_op) / root_total, "1")

    def count(key):
        return counters.get(key, 0)

    def per_op_count(key):
        return (count(key) / n, "count")

    def ratio(a, b, unit="1"):
        return (count(a) / count(b) if count(b) else 0.0, unit)

    solves = count("calls.lightwave")
    props = wl.input_properties(records)
    return {
        "input.instances_per_op": (wl.instances_per_op, "count"),
        "input.repeat_share": (props["repeat_share"], "1"),
        "input.shared_geometry": (int(wl.shared_geometry), "count"),
        "input.infeasible_share": (props["infeasible_share"], "1"),
        "scenario.calls": per_op_count("calls.scenario"),
        "scenario.self_ms": op_ms("scenario"),
        "scenario.share": share("scenario", "geometry"),
        "geometry.self_ms": op_ms("geometry"),
        "channels.vlc_calls": per_op_count("calls.channels.vlc"),
        "channels.vlc_self_ms": op_ms("channels.vlc"),
        "channels.rf_calls": per_op_count("calls.channels.rf"),
        "channels.rf_self_ms": op_ms("channels.rf"),
        "lightwave.calls": per_op_count("calls.lightwave"),
        "lightwave.self_us": call_us("lightwave"),
        "lightwave.bisection_calls": per_op_count("lightwave.bisection"),
        "lightwave.closed_form_calls": per_op_count("lightwave.closed_form"),
        "lightwave.fallback_share": ratio("lightwave.fallback", "lightwave.feasible"),
        "lightwave.infeasible_share": (
            1.0 - count("lightwave.feasible") / solves if solves else 0.0, "1"),
        "energy.harvest_evals_per_solve": ratio("calls.energy.harvest_evals",
                                                "calls.lightwave", "count"),
        "energy.rectifier_inverse_calls": per_op_count("calls.energy.rectifier_inverse"),
        "numerics.lambert_calls": per_op_count("calls.numerics.lambert"),
        "numerics.lambert_self_us": call_us("numerics.lambert"),
        "illumination.calls": per_op_count("calls.illumination"),
        "illumination.self_ms": op_ms("illumination"),
        "beamforming.sdp_calls": per_op_count("calls.beamforming.sdp"),
        "beamforming.sdp_trivial_calls": per_op_count("sdp.trivial"),
        "beamforming.sdp_self_ms_p50": call_ms("beamforming.sdp", 50),
        "beamforming.sdp_self_ms_p90": call_ms("beamforming.sdp", 90),
        "beamforming.sdp_share": share("beamforming.sdp"),
        "beamforming.newton_steps_per_sdp": ratio("sdp.newton_steps", "sdp.instances", "count"),
        "beamforming.newton_steps_total": (count("sdp.newton_steps"), "count"),
        "beamforming.gap_rel_max": (gap_rel_max, "1"),
        "beamforming.stalls": (count("sdp.stalls"), "count"),
        "beamforming.repeat_instance_share": ratio("sdp.repeats", "sdp.instances"),
        "beamforming.targets_self_us": call_us("beamforming.targets"),
        "beamforming.linear_calls": per_op_count("calls.beamforming.linear"),
        "beamforming.extract_calls": per_op_count("calls.beamforming.extract"),
        "beamforming.extract_self_us": call_us("beamforming.extract"),
        "orchestrator.calls_centralized": per_op_count("calls.orchestrator.centralized"),
        "orchestrator.calls_semi": per_op_count("calls.orchestrator.semi"),
        "orchestrator.self_ms": op_ms("orchestrator"),
        "orchestrator.messages_centralized": ratio("orchestrator.centralized.messages",
                                                   "orchestrator.centralized.answered",
                                                   "count"),
        "orchestrator.messages_semi": ratio("orchestrator.semi.messages",
                                            "orchestrator.semi.answered", "count"),
        "experiments.rf_power_self_ms": op_ms("experiments.rf_power"),
        "experiments.feasibility_self_ms": op_ms("experiments.feasibility"),
        "experiments.snr_eh_region_self_ms": op_ms("experiments.snr_eh_region"),
        "experiments.illuminance_self_ms": op_ms("experiments.illuminance"),
        "cli.self_ms": op_ms("cli"),
        "cli.bytes_written": (statistics.median(r.get("bytes", 0) for r in records), "B"),
        "trace.ops": (n, "count"),
        "trace.overhead_share": (sum(traced) / sum(plain) - 1.0, "1"),
        "trace.unattributed_share": (root_self / root_total, "1"),
    }


def environment(seed):
    """Versions, BLAS and threads, CPU and SIMD, commit: what a number depends on."""
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas", {}).get("name"),
        "blas_version": deps.get("blas", {}).get("version"),
        "lapack": deps.get("lapack", {}).get("name"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "simd": config.get("SIMD Extensions", {}),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "sources": source_digest(),
    }
    env.update(git_state())
    return env


def blas_threads():
    """Thread count OpenBLAS reports, or None where that cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no", "--", "src"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, run the warm-up op, print 'ready', exit")
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    workdir = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm = wl.prepare(0)
        _, out = timed_op(wl, warm)
        wl.collect(0, warm, out, check=False)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return report(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(wl, args):
    env = environment(args.seed)
    run = run_traced(wl, args.seconds) if args.trace else run_untraced(wl, args.seconds)
    failed, problems = run["failed"], run["problems"]
    # an op the program itself reported as failed counts in `failed`; only a
    # wrong output or inconsistent spans and counters make the run incorrect
    correct = not run["wrong"] and not problems
    for name, (value, unit) in run["printed"].items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for op, why in sorted(failed.items())[:10]:
        kind = "wrong output" if op in run["wrong"] else "reported failure"
        print(f"failed op {op} ({kind}): {why}")
    for why in problems[:10]:
        print(f"problem: {why}")
    print("env " + json.dumps(env, sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "workload": wl.name, "seconds": args.seconds,
                   "correct": correct, "metrics": run["printed"], "problems": problems,
                   "failures": {str(k): v for k, v in failed.items()},
                   "wrong": run["wrong"], "detail": run["detail"]},
                  fh, sort_keys=True, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w") as fh:
            for span in run["spans"]:
                fh.write(json.dumps(span) + "\n")

    result = {"correct": correct, "attempted": run["attempted"], "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in run["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
