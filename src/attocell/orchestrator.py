"""Message-passing simulation of the two network control architectures.

Centralized: every device uploads its full set of per-element channel
gains, the control unit solves the joint bias problem, broadcasts the
bias to the cells and the harvest targets to the RF access point.

Semi-decentralized: devices upload two scalars each (serving gain and
gain sum), the control unit solves only the RF/light split for the
worst-off device and broadcasts that device's gain sum and light
target; every cell then recovers the bias locally through the closed
form, one designated cell reports it back, and the control unit
forwards per-device harvest targets to the access point.

The control unit reads its uplink from the trace, so both runners and
``replay`` solve from one decoder, and every mode (``attocell solve
--mode direct`` too) reaches the access point through ``ap_solve``.
Both runs return the same solution objects a direct library call would
produce; the traces differ, and that difference is the point.  Actors
only see what was messaged to them plus static configuration, so the
trace, headed by its scenario hash and seed, is a faithful record of
the information flow.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .beamforming import build_eh_targets, extract_beams, solve_aggregate_sdp
from .channels import VlcChannelMatrix, build_vlc_matrix, sample_rf_channel
from .errors import InfeasibleError
from .lightwave import solve_op1_from_gains

__all__ = [
    "ControlMessage",
    "TraceLog",
    "run_centralized",
    "run_semi_decentralized",
    "ap_solve",
    "replay",
]

CONTROLLER = "controller"
RF_AP = "rf_ap"


def _cell(o):
    return f"cell:{o}"


def _device(j):
    return f"device:{j}"


def _index(actor):
    return int(actor.split(":")[1])


@dataclass(frozen=True)
class ControlMessage:
    """One control-plane message; payload values are plain JSON types."""

    sequence: int
    sender: str
    receiver: str
    kind: str
    payload: dict

    def record(self):
        return {"sequence": self.sequence, "sender": self.sender,
                "receiver": self.receiver, "kind": self.kind,
                "payload": self.payload}


@dataclass
class TraceLog:
    """Ordered control-plane trace of one run."""

    mode: str
    scenario_hash: str
    seed: int
    messages: list = field(default_factory=list)

    def send(self, sender, receiver, kind, payload):
        msg = ControlMessage(sequence=len(self.messages) + 1, sender=sender,
                             receiver=receiver, kind=kind, payload=payload)
        self.messages.append(msg)
        return msg

    def __len__(self):
        return len(self.messages)

    def kinds(self):
        return [m.kind for m in self.messages]

    def count_by_kind(self):
        out = {}
        for m in self.messages:
            out[m.kind] = out.get(m.kind, 0) + 1
        return out

    def select(self, kind):
        return [m for m in self.messages if m.kind == kind]

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            header = {"mode": self.mode, "scenario_hash": self.scenario_hash,
                      "seed": self.seed}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for m in self.messages:
                fh.write(json.dumps(m.record(), sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, path):
        with open(path) as fh:
            header = json.loads(fh.readline())
            trace = cls(**header)
            prev = 0
            for line in fh:
                rec = json.loads(line)
                if rec["sequence"] <= prev:
                    raise ValueError("trace sequence numbers must strictly increase")
                prev = rec["sequence"]
                trace.messages.append(ControlMessage(
                    sequence=rec["sequence"], sender=rec["sender"],
                    receiver=rec["receiver"], kind=rec["kind"],
                    payload=rec["payload"]))
        return trace


def ap_solve(scenario, solution):
    """The access point's step in every mode: invert the rectifier, run the
    power SDP.  Raises InfeasibleError when the split is infeasible."""
    if not solution.feasible:
        raise InfeasibleError(f"demand {solution.theta} W not coverable "
                              f"under RF cap {solution.rf_cap} W")
    rf = sample_rf_channel(scenario.rf_ap, scenario.devices,
                           scenario.rician_factor_db,
                           scenario.path_loss_exponent, scenario.seed)
    targets = build_eh_targets(solution.rf_targets, scenario.rf_nonlinear)
    channels = rf.outer_products()
    aggregate = solve_aggregate_sdp(channels, targets)
    return extract_beams(aggregate, channels)


def _controller_step(trace, scenario, theta, rf_cap, method):
    """The control unit's step: decode the trace's uplink, solve the split.

    Per-element reports become a (validated) gain tensor; device
    summaries already carry the two scalars per device.
    """
    if trace.mode == "centralized":
        reports = trace.select("channel_report")
        index = tuple(zip(*[(m.payload["transmitter"], m.payload["element"],
                             _index(m.sender)) for m in reports]))
        gains = np.zeros([1 + max(axis) for axis in index])
        gains[index] = [m.payload["gain"] for m in reports]
        matrix = VlcChannelMatrix(gains=gains)
        serving, sums = matrix.serving_gains(), matrix.gain_sums()
    elif trace.mode == "semi_decentralized":
        summaries = sorted(trace.select("device_summary"), key=lambda m: _index(m.sender))
        serving = np.array([m.payload["serving_gain"] for m in summaries])
        sums = np.array([m.payload["gain_sum"] for m in summaries])
    else:
        raise ValueError(f"unknown trace mode {trace.mode!r}")
    return solve_op1_from_gains(
        serving, sums, scenario.drive, scenario.vlc_eh, scenario.bias,
        scenario.noise_power, theta, rf_cap, method=method)


def _dispatch(scenario, trace, solution, broadcasts):
    """Send a feasible split's broadcasts and AP targets, then solve at the AP.

    ``broadcasts`` are the mode's (sender, receiver, kind, payload)
    messages.  Returns (LightwaveSolution, BeamformingSolution, TraceLog).
    Raises InfeasibleError when the demand cannot be met; the trace built
    so far is attached to the exception as ``trace``.
    """
    if solution.feasible:
        for message in broadcasts:
            trace.send(*message)
        trace.send(CONTROLLER, RF_AP, "rf_eh_targets",
                   {"harvest_targets": [float(v) for v in solution.rf_targets],
                    "theta": float(solution.theta), "rf_cap": float(solution.rf_cap),
                    "method": solution.method})
    try:
        return solution, ap_solve(scenario, solution), trace
    except InfeasibleError as err:
        err.trace = trace
        raise


def run_centralized(scenario, theta, rf_cap=None, method="bisection"):
    """Full-report architecture: all channel gains go to the control unit.

    Returns (LightwaveSolution, BeamformingSolution, TraceLog).  Raises
    InfeasibleError when the demand cannot be met; the trace built so
    far is attached to the exception as ``trace``.
    """
    if rf_cap is None:
        rf_cap = scenario.rf_exposure_cap
    trace = TraceLog("centralized", scenario.hash, scenario.seed)
    gains = build_vlc_matrix(scenario.transmitters, scenario.devices).gains
    n_tx, n_el, n_dev = gains.shape

    # uplink: each device reports every per-element gain it measured
    for j in range(n_dev):
        for o in range(n_tx):
            for i in range(n_el):
                trace.send(_device(j), CONTROLLER, "channel_report",
                           {"transmitter": o, "element": i,
                            "gain": float(gains[o, i, j])})

    solution = _controller_step(trace, scenario, theta, rf_cap, method)
    broadcasts = [(CONTROLLER, _cell(o), "bias_broadcast",
                   {"bias": solution.bias, "ac_swing": solution.ac_swing})
                  for o in range(n_tx)]
    return _dispatch(scenario, trace, solution, broadcasts)


def run_semi_decentralized(scenario, theta, rf_cap=None):
    """Two-scalar-uplink architecture with cell-local bias recovery.

    Returns (LightwaveSolution, BeamformingSolution, TraceLog).  The
    solution matches run_centralized with the closed-form method, since
    both run the same arithmetic on the same scalars; only the message
    pattern changes.
    """
    if rf_cap is None:
        rf_cap = scenario.rf_exposure_cap
    trace = TraceLog("semi_decentralized", scenario.hash, scenario.seed)
    matrix = build_vlc_matrix(scenario.transmitters, scenario.devices)
    serving, sums = matrix.serving_gains(), matrix.gain_sums()

    # uplink: each device condenses its own measurements to two scalars
    for j in range(matrix.n_devices):
        flat = int(np.argmax(matrix.gains[:, :, j]))
        tx_j, el_j = np.unravel_index(flat, matrix.gains.shape[:2])
        trace.send(_device(j), CONTROLLER, "device_summary",
                   {"serving_gain": float(serving[j]), "gain_sum": float(sums[j]),
                    "serving_transmitter": int(tx_j), "serving_element": int(el_j)})

    solution = _controller_step(trace, scenario, theta, rf_cap, "closed_form")

    # the control unit only resolves the worst device's light/RF split;
    # its gain sum and light target go out to every cell and the AP
    worst = solution.worst_user
    summary = next(m.payload for m in trace.select("device_summary")
                   if m.sender == _device(worst))
    info = {"worst_user": int(worst), "gain_sum": summary["gain_sum"],
            "rf_harvest": float(solution.rf_targets[worst]),
            "light_target": solution.light_target, "theta": float(theta)}
    broadcasts = [(CONTROLLER, _cell(o), "worst_user_info", info)
                  for o in range(matrix.n_transmitters)]
    broadcasts.append((CONTROLLER, RF_AP, "worst_user_info", info))
    # every cell recovers the same bias from the same two numbers; the
    # worst device's serving cell is the designated reporter
    broadcasts.append((_cell(summary["serving_transmitter"]), CONTROLLER,
                       "bias_report",
                       {"bias": solution.bias, "ac_swing": solution.ac_swing}))
    return _dispatch(scenario, trace, solution, broadcasts)


def replay(trace, scenario):
    """Recompute the final solution from a trace's logged messages.

    Runs the control unit's step on the logged uplink and the demand in
    the logged AP message, then the AP step, so a byte-identical trace
    against the same scenario must land on the byte-identical solution.
    Returns (LightwaveSolution, BeamformingSolution).  Raises ValueError
    when the scenario's hash differs from the trace's.
    """
    if trace.scenario_hash != scenario.hash:
        raise ValueError(f"trace was recorded on scenario {trace.scenario_hash}, "
                         f"not {scenario.hash}")
    targets_msgs = trace.select("rf_eh_targets")
    if len(targets_msgs) != 1:
        raise ValueError("trace must contain exactly one rf_eh_targets message")
    meta = targets_msgs[0].payload
    solution = _controller_step(trace, scenario, meta["theta"], meta["rf_cap"],
                                meta["method"])
    return solution, ap_solve(scenario, solution)
