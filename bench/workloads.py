"""The three benchmark workloads and their output checks.

Each workload turns the benchmark seed into op inputs (``prepare``, not
timed) and runs one op through attocell's public functions (``run``,
timed).  ``collect`` (not timed) picks up what the op left behind, checks
it, and keeps only a small record, so memory does not grow with the
number of ops.  Op ``k`` depends only on the seed and ``k``: a rerun with
the same seed sees the same inputs.  A timed run makes ``--seconds`` ÷
``nominal_op_s`` ops, where ``nominal_op_s`` is roughly the workload's op
time at the seed commit on a 2-vCPU Xeon; a rerun thus makes the same ops.

The checks are tolerance-based and recompute what they check by their
own means; they gate on no byte digest, frozen hash or exact objective,
so a re-frozen scenario hash or a solver whose objectives move within
1e-8 passes them unchanged.
"""

import contextlib
import io
import json
import os
from importlib import resources

import numpy as np
import yaml

from attocell import beamforming, channels, cli, experiments, lightwave, scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4
RF_THETA = 4e-3  # exp_rf_power's default demand
THETA_GRID = np.arange(0.0, 8.0 + 1e-12, 0.25) * 1e-3
BISECTION_TOL = 1e-7  # solve_op1's default bias tolerance, A


def _rng(seed, k, stream):
    return np.random.default_rng([seed, k, stream])


def _record(k, failure=None, wrong=(), **fields):
    """One op's record.  ``failure`` is a failure the program reported (an
    exception, a failure exit code, a counted solver failure); ``wrong``
    lists wrong outputs.  Both fail the op; only a wrong output makes the
    run incorrect.  ``units`` are the units of work the op completed."""
    return {"op": k, "problem": wrong[0] if wrong else failure, "wrong": bool(wrong),
            **fields}


def rectifier_inverse(params, harvested):
    """RF input that makes the logistic rectifier deliver ``harvested``."""
    h = np.asarray(harvested, dtype=float)
    m, a, b = params.max_harvest, params.steepness, params.turn_on
    eab = np.exp(a * b)
    with np.errstate(divide="ignore"):
        x = b - np.log(eab * (m - h) / (eab * h + m)) / a
    return np.where(h > 0.0, x, 0.0)


def allocation_problems(sc, theta, bias, light, rf):
    """Bias in [midpoint, high], light + RF >= theta and 0 <= RF <= cap."""
    light, rf = np.asarray(light), np.asarray(rf)
    problems = []
    if not sc.bias.midpoint <= bias <= sc.bias.high:
        problems.append(f"bias {bias} outside [midpoint, high]")
    if np.any(light + rf < theta * (1.0 - 1e-12)):
        problems.append(f"light + RF below theta {theta}")
    if np.any(rf < 0.0) or np.any(rf > sc.rf_exposure_cap * (1.0 + 1e-12)):
        problems.append("RF target outside [0, cap]")
    return problems


def verify_certificate(agg, gs, b):
    """Problems with one SDP answer, checked with numpy alone: W PSD and
    delivering every target, duals nonnegative with
    lambda_max(sum gamma G) <= 1, and a duality gap within 1e-7 (1 + |obj|)."""
    w = np.asarray(agg.entries)
    gamma = np.asarray(agg.duals, dtype=float)
    obj = float(np.trace(w).real)
    tol = 1e-7 * (1.0 + abs(obj))
    problems = []
    if abs(obj - agg.objective) > 1e-9 * abs(obj):
        problems.append(f"objective {agg.objective!r} but tr W = {obj!r}")
    if np.linalg.eigvalsh(w)[0] < -1e-9 * max(obj, 1e-30):
        problems.append("W not PSD")
    delivered = np.array([np.trace(w @ g).real for g in gs])
    if np.any(delivered < b * (1.0 - 1e-9)):
        problems.append(f"delivery {delivered} below targets {b}")
    if np.any(gamma < 0.0):
        problems.append("negative dual")
    load = sum(gj * g for gj, g in zip(gamma, gs))
    if np.linalg.eigvalsh(load)[-1] > 1.0 + 1e-9:
        problems.append("dual infeasible: lambda_max(sum gamma G) > 1")
    gap = obj - float(gamma @ b)
    if abs(gap) > tol:
        problems.append(f"duality gap {gap:.3e} outside +-{tol:.3e}")
    return problems


class McRfPower:
    """The paper's Monte-Carlo RF power sweep.

    One op is ``exp_rf_power(default_scenario(seed=s), trials=TRIALS)`` at
    the default levels, for a fading seed ``s`` no other op of the run
    uses, so every SDP target meets TRIALS draws.  The scenario is
    resolved as op input, outside the timed call.  The unit of work is
    one non-trivial SDP instance, 12 per trial.  The warm-up op (``k`` =
    0) runs a single trial: it reaches every code path an op does, at an
    eighth of the cost.
    """

    name = "mc_rf_power"
    TRIALS = 8
    nominal_op_s = 2.5
    trace_ops = 3
    shared_geometry = True
    # re-solving a table costs as much as the op; every op gets the other
    # checks, every RESOLVE_EVERY-th op also the re-solve and certificates
    RESOLVE_EVERY = 4

    def __init__(self, seed, workdir, trials=TRIALS):
        self.seed = seed
        self.trials = trials
        plans = self.plans(scenario.default_scenario())
        keys = [b.tobytes() for *_, b in plans if b is not None and np.any(b > 0.0)]
        self.instances_per_trial = len(keys)
        self.instances_per_op = len(keys) * trials
        # every op shares the bundled geometry, hence these plans: the 4 mW
        # and 6 mW 'optimal' rows solve identical targets
        self.properties = {"repeat_share": 1.0 - len(set(keys)) / len(keys),
                           "infeasible_share": sum(b is None for *_, b in plans) / len(plans)}

    def prepare(self, k):
        fading_seed = int(_rng(self.seed, k, 0).integers(1, 2**31))
        return {"scenario": scenario.default_scenario(seed=fading_seed),
                "trials": 1 if k == 0 else self.trials}

    def run(self, inp):
        return experiments.exp_rf_power(inp["scenario"], trials=inp["trials"])

    def collect(self, k, inp, out, check=True):
        if isinstance(out, Exception):
            return _record(k, f"raised {out!r}", units=0)
        # an instance the solver reports as failed is not completed work
        failures = sum(out.columns["solver_failures"])
        return _record(k, f"{failures} solver failures reported" if failures else None,
                       self.problems(inp["scenario"], out, inp["trials"],
                                     k % self.RESOLVE_EVERY == 1) if check else (),
                       units=self.instances_per_trial * inp["trials"] - failures)

    def input_properties(self, records):
        return self.properties

    @staticmethod
    def plans(sc):
        """(level, model, allocation, SDP input targets or None) per table
        row, in exp_rf_power's row order, derived independently of it."""
        matrix = channels.build_vlc_matrix(sc.transmitters, sc.devices)
        n_dev = matrix.n_devices
        plans = []
        for level in experiments.DEFAULT_RF_LEVELS:
            sol = lightwave.solve_op1(matrix, sc.drive, sc.vlc_eh, sc.bias,
                                      sc.noise_power, RF_THETA, float(level))
            optimal = np.asarray(sol.rf_targets) if sol.feasible else None
            for model in ("nonlinear", "linear"):
                for alloc, harvest in (("uniform", np.full(n_dev, float(level))),
                                       ("optimal", optimal)):
                    if harvest is None:
                        b = None
                    elif model == "nonlinear":
                        b = rectifier_inverse(sc.rf_nonlinear, harvest)
                    else:
                        b = harvest / sc.rf_linear.efficiency
                    plans.append((float(level), model, alloc, b))
        return plans

    def problems(self, sc, result, trials, resolve=True):
        """Wrong outputs: rows, feasibility, trial counts, provenance and
        optimal <= uniform; with ``resolve``, also every mean_power_w row
        without solver failures against the mean of per-draw objectives
        re-solved here and certified with numpy, within 1e-7 relative."""
        cols = result.columns
        plans = self.plans(sc)
        if result.n_rows != len(plans):
            return [f"{result.n_rows} rows, expected {len(plans)}"]
        problems = []
        if any(h != sc.hash for h in cols["scenario_hash"]):
            problems.append("scenario_hash differs from the scenario's hash")
        draws = [channels.sample_rf_channel(sc.rf_ap, sc.devices, sc.rician_factor_db,
                                            sc.path_loss_exponent, sc.seed ^ t).outer_products()
                 for t in range(trials)] if resolve else []
        solved = {}
        means = {}
        for i, (level, model, alloc, b) in enumerate(plans):
            row = (cols["rf_level_w"][i], cols["model"][i], cols["allocation"][i])
            if row != (level, model, alloc):
                problems.append(f"row {i} is {row}, expected {(level, model, alloc)}")
                continue
            if b is None:
                if cols["feasible"][i]:
                    problems.append(f"row {i} feasible, expected infeasible")
                continue
            failures, solved_ok = cols["solver_failures"][i], cols["trials_ok"][i]
            if not cols["feasible"][i] or failures + solved_ok != trials:
                problems.append(f"row {i}: feasible {cols['feasible'][i]}, "
                                f"failures {failures}, trials_ok {solved_ok}")
                continue
            means[(level, model, alloc)] = cols["mean_power_w"][i]
            if not resolve or failures:
                continue
            objs = []
            for t, gs in enumerate(draws):
                key = (t, b.tobytes())
                if key not in solved:
                    solved[key] = self._solve(gs, b, problems, i)
                objs.append(solved[key])
            reference = float(np.mean(objs))
            got = cols["mean_power_w"][i]
            if not abs(got - reference) <= 1e-7 * abs(reference):
                problems.append(f"row {i}: mean_power_w {got!r}, re-solved {reference!r}")
        for (level, model, alloc), value in means.items():
            uniform = means.get((level, model, "uniform"))
            if alloc == "optimal" and uniform is not None and value > uniform * (1 + 1e-9):
                problems.append(f"optimal above uniform at {level} W, {model}")
        return problems

    @staticmethod
    def _solve(gs, b, problems, row):
        if not np.any(b > 0.0):
            return 0.0
        agg = beamforming.solve_aggregate_sdp(gs, b)
        problems.extend(f"row {row}: {p}" for p in verify_certificate(agg, gs, b))
        return float(np.trace(agg.entries).real)


class ControlLoop:
    """Online allocation requests through ``attocell.cli.main(["solve", ...])``.

    Requests come in blocks of 24: each block holds every (mode, method)
    slot of ``SLOTS`` four times and one demand from each of 24 equal
    strata of [THETA_LO, THETA_HI], both shuffled.  The mix then barely
    depends on the seed, which keeps the run-to-run spread small.
    """

    name = "control_loop"
    SLOTS = (("direct", "bisection"), ("direct", "closed_form"),
             ("centralized", "bisection"), ("centralized", "closed_form"),
             ("semi", None), ("semi", None))
    BLOCK = 24
    THETA_LO, THETA_HI = 0.25e-3, 10e-3
    FADING_SEEDS = 8
    nominal_op_s = 0.030
    trace_ops = 96
    shared_geometry = True
    instances_per_op = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out_dir = os.path.join(workdir, "out")
        self.fading = _rng(seed, 0, 1).integers(1, 2**31, self.FADING_SEEDS)
        self._block = (None, None)
        self.ref = scenario.default_scenario()
        self.matrix = channels.build_vlc_matrix(self.ref.transmitters, self.ref.devices)
        n_tx, n_el, n_dev = self.matrix.gains.shape
        self.messages = {"centralized": n_dev * n_tx * n_el + n_tx + 1,
                         "semi": n_dev + n_tx + 3}

    def prepare(self, k):
        b, i = divmod(k, self.BLOCK)
        if self._block[0] != b:
            rng = _rng(self.seed, b, 2)
            slots = [self.SLOTS[j % len(self.SLOTS)] for j in rng.permutation(self.BLOCK)]
            strata = rng.permutation(self.BLOCK) + rng.random(self.BLOCK)
            thetas = self.THETA_LO + (self.THETA_HI - self.THETA_LO) * strata / self.BLOCK
            self._block = (b, (slots, thetas, rng.choice(self.fading, self.BLOCK)))
        slots, thetas, seeds = self._block[1]
        mode, method = slots[i]
        req = {"mode": mode, "method": method, "theta": float(thetas[i]),
               "seed": int(seeds[i])}
        req["argv"] = ["solve", "--theta", repr(req["theta"]), "--mode", mode,
                       "--seed", str(req["seed"]), "--out-dir", self.out_dir]
        if method:
            req["argv"] += ["--method", method]
        return req

    def run(self, req):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(req["argv"])

    def outputs(self, req):
        """solution.json, the trace's message kinds (or None for each file
        not written) and the bytes written; the files are then removed."""
        sol_path = os.path.join(self.out_dir, "solution.json")
        trace_path = os.path.join(self.out_dir, f"trace_{req['mode']}.jsonl")
        solution = kinds = None
        size = 0
        if os.path.exists(sol_path):
            size += os.path.getsize(sol_path)
            with open(sol_path) as fh:
                solution = json.load(fh)
            os.remove(sol_path)
        if os.path.exists(trace_path):
            size += os.path.getsize(trace_path)
            with open(trace_path) as fh:
                kinds = [json.loads(line)["kind"] for line in list(fh)[1:]]
            os.remove(trace_path)
        return solution, kinds, size

    def collect(self, k, req, code, check=True):
        solution, kinds, size = self.outputs(req)
        fields = {"units": 1, "bytes": size,
                  "request": (req["theta"], req["mode"], req["method"], req["seed"])}
        if isinstance(code, Exception):
            return _record(k, f"raised {code!r}", **dict(fields, units=0))
        if code in (EXIT_CONFIG, EXIT_SOLVER):
            return _record(k, f"exit {code}", **dict(fields, units=0))
        return _record(k, None, self.problems(req, code, solution, kinds) if check else (),
                       **fields)

    def feasible(self, theta):
        """Reference verdict: a bisection solve_op1 on the shared geometry."""
        sc = self.ref
        return lightwave.solve_op1(self.matrix, sc.drive, sc.vlc_eh, sc.bias,
                                   sc.noise_power, theta, sc.rf_exposure_cap).feasible

    def problems(self, req, code, sol, kinds):
        expected = EXIT_OK if self.feasible(req["theta"]) else EXIT_INFEASIBLE
        if code != expected:
            return [f"exit {code}, expected {expected} at theta {req['theta']!r}"]
        if code == EXIT_INFEASIBLE:
            return []
        if sol is None:
            return ["no solution.json"]
        sc = self.ref
        rf = np.asarray(sol["rf_targets_w"])
        problems = allocation_problems(sc, req["theta"], sol["bias_a"],
                                       sol["light_harvests_w"], rf)
        need = rectifier_inverse(sc.rf_nonlinear, rf)
        if np.any(np.asarray(sol["rf_delivered_w"]) < need * (1.0 - 1e-7)):
            problems.append("RF delivery below the inverted rectifier targets")
        mode = req["mode"]
        if mode == "direct":
            if kinds is not None:
                problems.append("direct mode wrote a trace")
        elif kinds is None or len(kinds) != self.messages[mode]:
            problems.append(f"{mode} trace has {None if kinds is None else len(kinds)} "
                            f"messages, expected {self.messages[mode]}")
        elif mode == "semi" and "channel_report" in kinds:
            problems.append("semi trace holds a channel_report")
        return problems

    def input_properties(self, records):
        keys = [r["request"] for r in records]
        return {"repeat_share": 1.0 - len(set(keys)) / len(keys),
                "infeasible_share": float(np.mean([not self.feasible(key[0])
                                                   for key in keys]))}


class LightwaveGrid:
    """The light-side design sweep over jittered device layouts.

    Op ``k`` loads a scenario YAML in which every bundled device moved by
    up to +-JITTER m in x and y on the working plane, then runs the
    feasibility frontier, the SNR/harvest region, a bisection and a
    closed-form ``solve_op1`` over THETA_GRID, and the illuminance map.
    No op calls the SDP.  The YAML is written as op input, outside the
    timed call.
    """

    name = "lightwave_grid"
    JITTER = 0.5
    METHODS = ("bisection", "closed_form")
    nominal_op_s = 0.033
    trace_ops = 64
    shared_geometry = False
    instances_per_op = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        text = resources.files("attocell").joinpath("data/default_scenario.yaml").read_text()
        self.base_cfg = yaml.safe_load(text)
        self.base_positions = np.array([d.position for d in scenario.default_scenario().devices])

    def prepare(self, k):
        jitter = _rng(self.seed, k, 3).uniform(-self.JITTER, self.JITTER,
                                                (len(self.base_positions), 2))
        positions = self.base_positions.copy()
        positions[:, :2] += jitter
        cfg = dict(self.base_cfg, devices=[{"position": [float(v) for v in p]}
                                           for p in positions])
        path = os.path.join(self.workdir, f"layout-{k}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        return {"path": path, "positions": positions}

    def run(self, layout):
        sc = scenario.load_scenario(layout["path"])
        feasibility = experiments.exp_feasibility_vs_theta(sc)
        region = experiments.exp_snr_eh_region(sc)
        matrix = channels.build_vlc_matrix(sc.transmitters, sc.devices)
        sweep = {m: [lightwave.solve_op1(matrix, sc.drive, sc.vlc_eh, sc.bias,
                                         sc.noise_power, float(theta),
                                         sc.rf_exposure_cap, method=m)
                     for theta in THETA_GRID]
                 for m in self.METHODS}
        illuminance = experiments.exp_illuminance(sc)
        return {"scenario": sc, "feasibility": feasibility, "region": region,
                "sweep": sweep, "illuminance": illuminance}

    def collect(self, k, layout, out, check=True):
        if isinstance(out, Exception):
            return _record(k, f"raised {out!r}", units=0, infeasible=[])
        return _record(k, None, self.problems(layout, out) if check else (), units=1,
                       infeasible=[not sol.feasible for sol in out["sweep"]["bisection"]])

    def problems(self, layout, out):
        sc = out["scenario"]
        problems = []
        got = np.array([d.position for d in sc.devices])
        if got.shape != layout["positions"].shape or \
                not np.allclose(got, layout["positions"], rtol=0, atol=1e-12):
            problems.append("loaded device positions differ from the layout")
        bis, cf = out["sweep"]["bisection"], out["sweep"]["closed_form"]
        for theta, a, b in zip(THETA_GRID, bis, cf):
            problems.extend(f"{sol.method}: {p}" for sol in (a, b) if sol.feasible
                            for p in allocation_problems(sc, theta, sol.bias,
                                                         sol.light_harvests, sol.rf_targets))
            if b.feasible and not a.feasible:
                problems.append(f"closed form feasible where bisection is not, theta {theta}")
            elif b.feasible and b.ac_swing > a.ac_swing + BISECTION_TOL:
                problems.append(f"closed form beats bisection at theta {theta}")
        cols = out["feasibility"].columns
        table = {}
        for theta, cap, ok in zip(cols["theta_w"], cols["rf_cap_w"], cols["feasible"]):
            table.setdefault(cap, []).append((theta, bool(ok)))
        caps = sorted(table)
        flags = {cap: [ok for _, ok in sorted(table[cap])] for cap in caps}
        for cap in caps:
            if any(later and not earlier for earlier, later in zip(flags[cap], flags[cap][1:])):
                problems.append(f"feasibility not monotone in theta at cap {cap}")
        for lo, hi in zip(caps, caps[1:]):
            if any(a and not b for a, b in zip(flags[lo], flags[hi])):
                problems.append(f"feasible at cap {lo} but not at cap {hi}")
        harvest = np.asarray(out["region"].columns["light_eh_w"])
        if not np.all(np.isfinite(harvest)) or np.any(harvest < 0.0):
            problems.append("SNR/harvest region has a negative or non-finite harvest")
        lux = np.asarray(out["illuminance"].columns["lux"])
        if not np.all(np.isfinite(lux)) or np.any(lux < 0.0):
            problems.append("illuminance negative or non-finite")
        return problems

    def input_properties(self, records):
        """Layouts never repeat; the infeasible share is that of the
        bisection sweep points."""
        return {"repeat_share": 0.0,
                "infeasible_share": float(np.mean([f for r in records for f in r["infeasible"]]))}


WORKLOADS = {w.name: w for w in (McRfPower, ControlLoop, LightwaveGrid)}
