"""Message-passing simulation of the two network control architectures.

Centralized: every device uploads its full set of per-element channel
gains, the control unit solves the joint bias problem, broadcasts the
bias to the cells and the harvest targets to the RF access point.

Semi-decentralized: devices upload two scalars each (serving gain and
gain sum), the control unit solves only the RF/light split for the
worst-off device and broadcasts that device's numbers; every cell then
recovers the bias locally through the closed form, one designated cell
reports it back, and the control unit forwards per-device harvest
targets to the access point.

Both runs return the same solution objects a direct library call would
produce; the traces differ, and that difference is the point.  Actors
only see what was messaged to them plus static configuration, so the
trace is a faithful record of the information flow.
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
    "replay",
]

CONTROLLER = "controller"
RF_AP = "rf_ap"


def _cell(o):
    return f"cell:{o}"


def _device(j):
    return f"device:{j}"


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
            fh.write(json.dumps({"mode": self.mode}, sort_keys=True) + "\n")
            for m in self.messages:
                fh.write(json.dumps(m.record(), sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, path):
        with open(path) as fh:
            header = json.loads(fh.readline())
            trace = cls(mode=header["mode"])
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


def _ap_solve(scenario, harvest_targets):
    """The access point's side: invert the rectifier, run the power SDP."""
    rf = sample_rf_channel(scenario.rf_ap, scenario.devices,
                           scenario.rician_factor_db,
                           scenario.path_loss_exponent, scenario.seed)
    targets = build_eh_targets(np.asarray(harvest_targets, dtype=float),
                               scenario.rf_nonlinear)
    channels = rf.outer_products()
    aggregate = solve_aggregate_sdp(channels, targets)
    return extract_beams(aggregate, channels)


def _dispatch(scenario, trace, solution, broadcasts):
    """Send a feasible split's broadcasts and AP targets, then solve at the AP.

    ``broadcasts`` are the mode's (sender, receiver, kind, payload)
    messages.  Returns (LightwaveSolution, BeamformingSolution, TraceLog).
    Raises InfeasibleError when the demand cannot be met; the trace built
    so far is attached to the exception as ``trace``.
    """
    if not solution.feasible:
        err = InfeasibleError(f"demand {solution.theta} W not coverable "
                              f"under RF cap {solution.rf_cap} W")
        err.trace = trace
        raise err
    for message in broadcasts:
        trace.send(*message)
    trace.send(CONTROLLER, RF_AP, "rf_eh_targets",
               {"harvest_targets": [float(v) for v in solution.rf_targets],
                "theta": float(solution.theta), "rf_cap": float(solution.rf_cap),
                "method": solution.method})
    return solution, _ap_solve(scenario, solution.rf_targets), trace


def run_centralized(scenario, theta, rf_cap=None, method="bisection"):
    """Full-report architecture: all channel gains go to the control unit.

    Returns (LightwaveSolution, BeamformingSolution, TraceLog).  Raises
    InfeasibleError when the demand cannot be met; the trace built so
    far is attached to the exception as ``trace``.
    """
    if rf_cap is None:
        rf_cap = scenario.rf_exposure_cap
    trace = TraceLog(mode="centralized")
    matrix = build_vlc_matrix(scenario.transmitters, scenario.devices)
    n_tx, n_el, n_dev = matrix.gains.shape

    # uplink: each device reports every per-element gain it measured
    reported = np.zeros_like(matrix.gains)
    for j in range(n_dev):
        for o in range(n_tx):
            for i in range(n_el):
                gain = float(matrix.gains[o, i, j])
                trace.send(_device(j), CONTROLLER, "channel_report",
                           {"transmitter": o, "element": i, "gain": gain})
                reported[o, i, j] = gain

    central = VlcChannelMatrix(gains=reported)
    solution = solve_op1_from_gains(
        central.serving_gains(), central.gain_sums(), scenario.drive,
        scenario.vlc_eh, scenario.bias, scenario.noise_power, theta, rf_cap,
        method=method)
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
    trace = TraceLog(mode="semi_decentralized")
    matrix = build_vlc_matrix(scenario.transmitters, scenario.devices)
    n_tx = matrix.n_transmitters
    n_dev = matrix.n_devices
    all_serving = matrix.serving_gains()
    all_sums = matrix.gain_sums()

    # uplink: each device condenses its own measurements to two scalars
    serving = np.zeros(n_dev)
    sums = np.zeros(n_dev)
    serving_tx = np.zeros(n_dev, dtype=int)
    for j in range(n_dev):
        flat = int(np.argmax(matrix.gains[:, :, j]))
        tx_j, el_j = np.unravel_index(flat, matrix.gains.shape[:2])
        summary = {"serving_gain": float(all_serving[j]),
                   "gain_sum": float(all_sums[j]),
                   "serving_transmitter": int(tx_j),
                   "serving_element": int(el_j)}
        trace.send(_device(j), CONTROLLER, "device_summary", summary)
        serving[j] = summary["serving_gain"]
        sums[j] = summary["gain_sum"]
        serving_tx[j] = summary["serving_transmitter"]

    solution = solve_op1_from_gains(
        serving, sums, scenario.drive, scenario.vlc_eh, scenario.bias,
        scenario.noise_power, theta, rf_cap, method="closed_form")

    # the control unit only resolves the worst device's light/RF split;
    # its gain sum and targets go out to every cell and the AP
    worst = solution.worst_user
    rf_worst = float(solution.rf_targets[worst])
    info = {"worst_user": int(worst), "gain_sum": float(sums[worst]),
            "rf_harvest": rf_worst, "light_target": float(theta - rf_worst),
            "theta": float(theta)}
    broadcasts = [(CONTROLLER, _cell(o), "worst_user_info", info)
                  for o in range(n_tx)]
    broadcasts.append((CONTROLLER, RF_AP, "worst_user_info", info))
    # every cell recovers the same bias from the same two numbers; the
    # worst device's serving cell is the designated reporter
    broadcasts.append((_cell(int(serving_tx[worst])), CONTROLLER, "bias_report",
                       {"bias": solution.bias, "ac_swing": solution.ac_swing}))
    return _dispatch(scenario, trace, solution, broadcasts)


def replay(trace, scenario):
    """Recompute the final solution from a trace's logged messages.

    Uses only message payloads plus static scenario configuration, so a
    byte-identical trace against the same scenario must land on the
    byte-identical solution.  Returns (LightwaveSolution,
    BeamformingSolution).
    """
    targets_msgs = trace.select("rf_eh_targets")
    if len(targets_msgs) != 1:
        raise ValueError("trace must contain exactly one rf_eh_targets message")
    meta = targets_msgs[0].payload
    theta = meta["theta"]
    rf_cap = meta["rf_cap"]
    method = meta["method"]

    if trace.mode == "centralized":
        reports = trace.select("channel_report")
        n_dev = 1 + max(int(m.sender.split(":")[1]) for m in reports)
        n_tx = 1 + max(m.payload["transmitter"] for m in reports)
        n_el = 1 + max(m.payload["element"] for m in reports)
        gains = np.zeros((n_tx, n_el, n_dev))
        for m in reports:
            j = int(m.sender.split(":")[1])
            gains[m.payload["transmitter"], m.payload["element"], j] = m.payload["gain"]
        central = VlcChannelMatrix(gains=gains)
        serving, sums = central.serving_gains(), central.gain_sums()
    elif trace.mode == "semi_decentralized":
        summaries = trace.select("device_summary")
        n_dev = len(summaries)
        serving = np.zeros(n_dev)
        sums = np.zeros(n_dev)
        for m in summaries:
            j = int(m.sender.split(":")[1])
            serving[j] = m.payload["serving_gain"]
            sums[j] = m.payload["gain_sum"]
    else:
        raise ValueError(f"unknown trace mode {trace.mode!r}")

    solution = solve_op1_from_gains(
        serving, sums, scenario.drive, scenario.vlc_eh, scenario.bias,
        scenario.noise_power, theta, rf_cap, method=method)
    beams = _ap_solve(scenario, meta["harvest_targets"])
    return solution, beams
