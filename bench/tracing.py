"""Spans and counters recorded from outside the program.

The tracer wraps, at run time, the public functions of each attocell
layer under the names their callers look up (for example
``attocell.experiments.solve_aggregate_sdp`` and
``attocell.orchestrator.sample_rf_channel``), so no program file
changes.  Every wrapped call inside an op becomes a span: name, start,
end, parent and op id.  Scalar hot functions get count-only wrappers,
since a timer around a microsecond call would mostly time itself.
Work counters are read from public return values only.

A span's self time is its duration minus the time its children cover;
the op is the root span.  The root's own self time is time no layer
covers, and ``check_nesting`` flags an op where it exceeds
ROOT_SELF_LIMIT of the op.
"""

import collections
import functools
import hashlib
import importlib
import time

import numpy as np

ROOT = "op"
# largest share of an op that may lie outside every named layer
ROOT_SELF_LIMIT = 0.05


def _sdp_info(args, kwargs, result):
    channels = args[0] if args else kwargs["channels"]
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    b = np.asarray(getattr(targets, "input_targets", targets), dtype=float)
    digest = hashlib.sha1(b.tobytes())
    for g in channels:
        digest.update(np.asarray(g, dtype=complex).tobytes())
    return {"key": digest.hexdigest(), "trivial": not bool(np.any(b > 0.0)),
            "newton": int(result.iterations), "gap_rel": float(result.gap_relative)}


def _lightwave_info(args, kwargs, result):
    return {"feasible": bool(result.feasible), "fallback": bool(result.fallback_used),
            "method": result.method}


def _orchestrator_info(args, kwargs, result):
    return {"messages": len(result[2])}


# (module, attribute, span group, info read from the return value).  The
# module is the caller's: each binding a caller looks up is wrapped
# separately, and all of them wrap the original function.
SPANS = [
    ("attocell.scenario", "default_scenario", "scenario", None),
    ("attocell.scenario", "load_scenario", "scenario", None),
    ("attocell.cli", "default_scenario", "scenario", None),
    ("attocell.cli", "load_scenario", "scenario", None),
    ("attocell.scenario", "build_angle_diversity_layout", "geometry", None),
    ("attocell.channels", "build_vlc_matrix", "channels.vlc", None),
    ("attocell.experiments", "build_vlc_matrix", "channels.vlc", None),
    ("attocell.orchestrator", "build_vlc_matrix", "channels.vlc", None),
    ("attocell.cli", "build_vlc_matrix", "channels.vlc", None),
    ("attocell.experiments", "sample_rf_channel", "channels.rf", None),
    ("attocell.orchestrator", "sample_rf_channel", "channels.rf", None),
    ("attocell.cli", "sample_rf_channel", "channels.rf", None),
    ("attocell.channels.RfChannelSet", "outer_products", "channels.rf", None),
    ("attocell.lightwave", "solve_op1", "lightwave.op1", None),
    ("attocell.experiments", "solve_op1", "lightwave.op1", None),
    ("attocell.cli", "solve_op1", "lightwave.op1", None),
    ("attocell.lightwave", "solve_op1_from_gains", "lightwave", _lightwave_info),
    ("attocell.orchestrator", "solve_op1_from_gains", "lightwave", _lightwave_info),
    ("attocell.lightwave", "lambert_w0", "numerics.lambert", None),
    ("attocell.experiments", "build_eh_targets", "beamforming.targets", None),
    ("attocell.orchestrator", "build_eh_targets", "beamforming.targets", None),
    ("attocell.cli", "build_eh_targets", "beamforming.targets", None),
    ("attocell.experiments", "solve_aggregate_sdp", "beamforming.sdp", _sdp_info),
    ("attocell.beamforming", "solve_aggregate_sdp", "beamforming.sdp", _sdp_info),
    ("attocell.orchestrator", "solve_aggregate_sdp", "beamforming.sdp", _sdp_info),
    ("attocell.cli", "solve_aggregate_sdp", "beamforming.sdp", _sdp_info),
    ("attocell.experiments", "required_power_linear", "beamforming.linear", None),
    ("attocell.orchestrator", "extract_beams", "beamforming.extract", None),
    ("attocell.cli", "extract_beams", "beamforming.extract", None),
    ("attocell.experiments", "illuminance_map", "illumination", None),
    ("attocell.cli", "run_centralized", "orchestrator.centralized", _orchestrator_info),
    ("attocell.cli", "run_semi_decentralized", "orchestrator.semi", _orchestrator_info),
    ("attocell.experiments", "exp_rf_power", "experiments.rf_power", None),
    ("attocell.experiments", "exp_feasibility_vs_theta", "experiments.feasibility", None),
    ("attocell.experiments", "exp_snr_eh_region", "experiments.snr_eh_region", None),
    ("attocell.experiments", "exp_illuminance", "experiments.illuminance", None),
    ("attocell.cli", "main", "cli", None),
]

# (module, attribute, counter name): calls are counted, not timed.
COUNTS = [
    ("attocell.lightwave", "vlc_harvested_power", "energy.harvest_evals"),
    ("attocell.beamforming", "nonlinear_eh_inverse", "energy.rectifier_inverse"),
]


def _resolve(path):
    """Module or class object for a dotted path such as 'attocell.channels.RfChannelSet'."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory span and counter store for one traced pass over the ops.

    ``spans`` holds tuples (op, span id, parent id, group, start, end,
    info); the root of op ``k`` has group ``"op"`` and parent None.
    Wrapped calls made outside an op pass straight through.
    """

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()  # (op, counter name) -> calls
        self._stack = []
        self._op = None
        self._saved = []

    def install(self):
        for path, attr, group, info in SPANS:
            self._patch(path, attr, lambda fn, g=group, i=info: self._timed(g, fn, i))
        for path, attr, name in COUNTS:
            self._patch(path, attr, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, path, attr, make):
        owner = _resolve(path)
        # a class attribute is read from __dict__ so the plain function,
        # not a bound method, is what gets wrapped and later restored
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def run_op(self, op, fn, *args):
        """Call ``fn(*args)`` as the root span of op ``op``."""
        self._op = op
        sid = self._open()
        try:
            return fn(*args)
        finally:
            self._close(sid, ROOT, None)
            self._op = None

    def _open(self):
        sid = len(self.spans) + len(self._stack)
        self._stack.append((sid, time.perf_counter()))
        return sid

    def _close(self, sid, group, info):
        end = time.perf_counter()
        top, start = self._stack.pop()
        if top != sid:
            raise RuntimeError("spans closed out of order")
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((self._op, sid, parent, group, start, end, info))

    def _timed(self, group, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = self._open()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(sid, group, {"error": type(exc).__name__})
                raise
            self._close(sid, group, None)
            if info is not None:
                # computed after the span closed: the cost lands in the
                # parent's self time and in trace.overhead_share
                self.spans[-1] = self.spans[-1][:6] + (info(args, kwargs, result),)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.counts[(self._op, name)] += 1
            return fn(*args, **kwargs)
        return wrapper


def self_times(spans):
    """Self time of every span, keyed by span id."""
    covered = collections.defaultdict(float)
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for _, sid, _, _, start, end, _ in spans}


def check_nesting(spans, tol=1e-9, root_limit=ROOT_SELF_LIMIT):
    """Problems with span structure: children outside parents, negative self
    time, or an op whose root self time (time no named layer covers) is
    more than ``root_limit`` of the op."""
    problems = []
    by_id = {s[1]: s for s in spans}
    selfs = self_times(spans)
    for op, sid, parent, group, start, end, _ in spans:
        if selfs[sid] < -tol:
            problems.append(f"op {op}: {group} self time {selfs[sid]:.3e} s < 0")
        if parent is None:
            if selfs[sid] > root_limit * (end - start):
                problems.append(f"op {op}: {selfs[sid]:.6f} s of a {end - start:.6f} s "
                                f"op lies outside every named layer")
            continue
        p = by_id[parent]
        if p[0] != op or start < p[4] or end > p[5]:
            problems.append(f"op {op}: {group} lies outside its parent {p[3]}")
    return problems
