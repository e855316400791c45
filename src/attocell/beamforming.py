"""Minimum-power RF energy beamforming under per-device input targets.

The design problem is min sum_j tr(W_j) subject to
sum_j' tr(W_j' G_j) >= theta_j and W_j PSD.  Objective and constraints
only see the sum W = sum_j W_j, so a single aggregate PSD variable is
optimized and beams are read off its eigendecomposition afterwards.

Every channel is rank one, G_j = h_j h_j^H, so the dual has one scalar
per device: maximize b.gamma subject to Z = I - sum gamma_j G_j PSD and
gamma >= 0.  A feasible primal-dual interior-point method carries W, the
primal slacks s_j = h_j^H W h_j - b_j and gamma together.  Each step
linearizes W Z = mu I (the HKM direction; Helmberg, Rendl, Vanderbei and
Wolkowicz, SIAM J. Optim. 1996) and s_j gamma_j = mu, which leaves a
J x J Schur system over the devices with positive targets, and picks mu
by Mehrotra's predictor rule (SIAM J. Optim. 1992).  Every iterate is
certified on its optimal face: the eigen-directions of W that outweigh Z,
scaled until the tightest target is met, against gamma rescaled onto
lambda_max(sum gamma G) = 1, which lower-bounds tr(W).  The first
certificate whose gap is within tolerance is the answer.

The core runs on a stack of B instances, each with its own target
vector over the same devices, as in a Monte-Carlo sweep over fading
draws and demand levels.  Each instance keeps its own step lengths,
certificate, stop test and stall counter, and leaves the stack when it
stops, so one instance's failure is its own.  solve_aggregate_sdp_batch
is that entry point: it stacks together the instances whose targets are
positive on the same devices.  solve_aggregate_sdp is its B = 1 case.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import nonlinear_eh_inverse
from .errors import DimensionMismatchError, InfeasibleError, SolverStallError

__all__ = [
    "EhTargets",
    "build_eh_targets",
    "PsdMatrix",
    "solve_aggregate_sdp",
    "solve_aggregate_sdp_batch",
    "BeamformingSolution",
    "extract_beams",
    "VerificationReport",
    "verify_beamforming",
    "required_power_linear",
]


@dataclass(frozen=True)
class EhTargets:
    """Required RF input energy per device, after rectifier inversion."""

    input_targets: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.input_targets, dtype=float)
        if t.ndim != 1 or np.any(t < 0) or not np.all(np.isfinite(t)):
            raise ValueError("input targets must be finite and nonnegative")
        object.__setattr__(self, "input_targets", t)


def build_eh_targets(rf_targets, params):
    """Invert the rectifier so each device receives enough RF input.

    ``rf_targets`` are the harvested-energy amounts assigned by the
    lightwave solver; each must sit below the rectifier saturation.
    """
    targets = np.asarray(rf_targets, dtype=float)
    out = np.array([nonlinear_eh_inverse(params, t) for t in targets])
    return EhTargets(input_targets=out)


@dataclass(frozen=True)
class PsdMatrix:
    """Aggregate SDP optimum with its dual certificate."""

    entries: np.ndarray
    objective: float
    duals: np.ndarray
    gap: float  # certified primal-dual gap, absolute
    iterations: int  # interior-point steps

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=complex)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionMismatchError("aggregate matrix must be square")
        herm_err = np.max(np.abs(w - w.conj().T))
        if herm_err > 1e-12 * max(1.0, float(np.abs(w).max())):
            raise ValueError(f"matrix not Hermitian, asymmetry {herm_err:.2e}")
        w = 0.5 * (w + w.conj().T)
        tr = float(np.trace(w).real)
        lmin = float(np.linalg.eigvalsh(w)[0]) if w.shape[0] else 0.0
        if lmin < -1e-9 * max(tr, 1e-30):
            raise ValueError(f"matrix not PSD, smallest eigenvalue {lmin:.2e}")
        object.__setattr__(self, "entries", w)
        object.__setattr__(self, "duals", np.asarray(self.duals, dtype=float))

    @property
    def gap_relative(self):
        return self.gap / max(abs(self.objective), 1e-300)


def solve_aggregate_sdp(channels, targets, tol=1e-8):
    """Minimize tr(W) over PSD W with tr(W G_j) >= target_j.

    ``channels`` are the rank-one matrices g_j g_j^H.  ``targets`` is an
    EhTargets or anything EhTargets accepts; either way it must be 1-d,
    finite and nonnegative, else ValueError.  Targets are normalized by
    their maximum before solving (the problem is exactly positively
    homogeneous) and the result scaled back, so scaled instances produce
    bitwise-scaled optima.  Channels are normalized by their largest
    power the same way.  Terminates when the certified duality gap of
    the normalized problem drops below tol * (1 + |objective|).  This is
    the one-instance case of solve_aggregate_sdp_batch.
    """
    result = solve_aggregate_sdp_batch([channels], targets, tol)[0]
    if isinstance(result, SolverStallError):
        raise result
    return result


def solve_aggregate_sdp_batch(channel_sets, targets, tol=1e-8):
    """solve_aggregate_sdp for many channel sets, each under its own targets.

    ``targets`` is one target vector that every set shares (an EhTargets
    or anything it accepts), or a 2-d array with one such row per set.
    Returns one entry per channel set: its PsdMatrix, or the
    SolverStallError of that instance alone.  The sets whose targets are
    positive on the same devices are solved as one stack; a device with
    a zero target drops out of its instance, and an all-zero row is the
    zero matrix.  Each row is normalized by its own maximum target and
    channel scale.  Malformed input (targets, shapes, a channel that is
    not rank one, a zero channel under a positive target) raises for the
    whole batch, as in the single solve.  A stacked linear-algebra
    routine raises for the whole stack, so on that error path each
    channel set of the stack is solved alone, and a breakdown lands on
    the instance it belongs to.
    """
    b_all = np.asarray(targets.input_targets if isinstance(targets, EhTargets) else targets,
                       dtype=float)
    # EhTargets' checks, on every row
    EhTargets(input_targets=b_all.reshape(-1) if b_all.ndim == 2 else b_all)
    g = _channel_stack(channel_sets, b_all.shape[-1])
    n_inst, n_dev, m = g.shape[:3]
    if b_all.ndim == 2 and len(b_all) != n_inst:
        raise DimensionMismatchError("one target row per channel set required")
    b_all = np.broadcast_to(b_all, (n_inst, n_dev))
    positive = b_all > 0.0
    zero = np.argwhere(positive & (np.trace(g, axis1=-2, axis2=-1).real <= 0.0))
    if zero.size:
        raise InfeasibleError(f"device {zero[0, 1]} has a zero channel but a positive target")

    results = [None] * n_inst
    patterns, group = np.unique(positive, axis=0, return_inverse=True)
    for k, active in enumerate(patterns):
        rows = np.flatnonzero(group == k)
        if not active.any():
            for i in rows:
                results[i] = PsdMatrix(entries=np.zeros((m, m), dtype=complex), objective=0.0,
                                       duals=np.zeros(n_dev), gap=0.0, iterations=0)
            continue
        b = b_all[rows][:, active]
        scale = b.max(axis=1)
        try:
            vals, vecs = np.linalg.eigh(g[rows][:, active])
            if np.any(np.abs(vals[..., :-1]) > 1e-9 * vals[..., -1:]):
                raise ValueError("channel matrix is not rank one")
            # the vectors h_j with G_j = h_j h_j^H, as the rows of H^T; each
            # instance's H^T is made contiguous, so that the core sees one
            # memory layout in any stack and an instance's bits do not depend
            # on the stack it is solved in
            h = np.ascontiguousarray(np.sqrt(vals[..., -1])[..., None] * vecs[..., -1])
            h_scale = np.max(np.sum(np.abs(h) ** 2, axis=-1), axis=1)
            h = (h / np.sqrt(h_scale)[:, None, None]).swapaxes(-1, -2)
            solved = _primal_dual(h, b / scale[:, None], tol)
        except np.linalg.LinAlgError as exc:
            if len(rows) > 1:
                for i in rows:
                    results[i] = solve_aggregate_sdp_batch([g[i]], b_all[i], tol)[0]
            else:
                err = SolverStallError(f"numerical breakdown: {exc}")
                err.__cause__ = exc
                results[rows[0]] = err
            continue
        for i, out, hs, sc in zip(rows, solved, h_scale, scale):
            if isinstance(out, SolverStallError):
                results[i] = out
                continue
            w, gamma, obj, gap, steps = out
            duals = np.zeros(n_dev)
            duals[active] = gamma / hs  # free of the target scale
            try:
                results[i] = PsdMatrix(entries=sc * (w / hs), objective=sc * (obj / hs),
                                       duals=duals, gap=sc * (gap / hs), iterations=steps)
            except ValueError as exc:
                # a solver output that fails validation is a solver failure
                err = SolverStallError(f"solver output rejected: {exc}")
                err.__cause__ = exc
                results[i] = err
    return results


def _channel_stack(channel_sets, n_dev):
    """The (B, devices, m, m) stack of channel sets, each checked like one set."""
    sets = [[np.asarray(g, dtype=complex) for g in gs] for gs in channel_sets]
    for gs in sets:
        if len(gs) != n_dev:
            raise DimensionMismatchError("one channel matrix per target required")
        if not gs:
            raise DimensionMismatchError("need at least one device")
    m = sets[0][0].shape[0] if sets else 0
    if any(g.shape != (m, m) for gs in sets for g in gs):
        raise DimensionMismatchError("channel matrices must share a shape")
    return np.array(sets, dtype=complex).reshape(len(sets), n_dev, m, m)


def _stalled(mu_min, gap, tol):
    return SolverStallError(
        f"duality measure stalled at {mu_min:.3e} with certified gap "
        f"{gap:.3e}, short of {tol:.1e}*(1+|obj|); tolerance below "
        f"the float64 floor")


def _herm(a):
    return a.conj().swapaxes(-1, -2)


def _step_length(x, dx):
    """min(1, 0.95 alpha) per row, alpha the largest step with x + alpha dx >= 0,
    for x > 0 along the last axis."""
    return (0.95 * x / np.maximum(-dx, 0.95 * x)).min(axis=-1)


def _duality_measure(w, z, sg):
    """(tr(W Z) + s.gamma) / (m + n) per instance."""
    m, n = w.shape[-1], sg.shape[-1]
    return (np.einsum("bij,bij->b", w, z.conj()).real
            + np.einsum("bj,bj->b", sg[:, 0], sg[:, 1])) / (m + n)


def _primal_dual(h, b, tol):
    """Feasible primal-dual interior-point steps over a stack of instances.

    ``h`` is (B, m, n): each instance's channel vectors, and ``b`` is
    (B, n): its targets.  Every instance keeps its own step lengths,
    certificate, stop test and stall counter, and leaves the stack when
    it stops.  Returns, per instance, (W, duals, objective, gap, steps)
    of its first certificate within tolerance, or its SolverStallError.

    The iterate is W, the primal slacks s_j = h_j^H W h_j - b_j and the
    duals gamma (``sg`` holds s and gamma as rows), with Z = I - sum
    gamma_j G_j; tr(W Z) + s.gamma is its duality gap.  Each iterate is
    certified on its optimal face: the eigen-directions u of W with
    lambda(W) > u^H Z u, which strict complementarity separates at the
    optimum, scaled until the tightest target is met exactly, against
    gamma rescaled onto lambda_max(sum gamma G) = 1, where it
    lower-bounds tr(W).
    """
    n_inst, m, n = h.shape
    results = [None] * n_inst
    live = np.arange(n_inst)
    eye_m, eye_n = np.eye(m), np.eye(n)
    hh = _herm(h)
    power = (np.abs(h) ** 2).sum(axis=1)
    c = 2.0 * (b / power).max(axis=1)
    w = c[:, None, None] * np.eye(m, dtype=complex)
    sg = np.stack((c[:, None] * power - b, 0.5 / (n * power)), axis=1)
    gap_min = np.full(n_inst, np.inf)  # the smallest certified gap, for a stall
    mu_min = np.full(n_inst, np.inf)
    stale = np.zeros(n_inst, dtype=int)
    steps = 0
    while live.size:
        nb = len(live)
        s, gamma = sg[:, 0], sg[:, 1]
        gsum = (h * gamma[:, None, :]) @ hh
        z = eye_m - gsum
        try:
            chol = np.linalg.cholesky(np.concatenate((w, z)))
        except np.linalg.LinAlgError:
            # a stack is re-solved one instance at a time by the caller, and a
            # breakdown at the starting point is reported as such
            if n_inst > 1 or steps == 0:
                raise
            # rounding has pushed a late iterate off the cone: no more progress
            return [_stalled(mu_min[0], gap_min[0], tol)]

        # W's eigenpairs and lambda_max(sum gamma G) in one eigensolve
        evals, evecs = np.linalg.eigh(np.concatenate((w, gsum)))
        cert = gamma * ((1.0 - 1e-12) / evals[nb:, -1])[:, None]
        evals, evecs = evals[:nb], evecs[:nb]
        zq = (evecs.conj() * (z @ evecs)).sum(axis=1).real
        face = evals * (evals > zq)
        floor = ((face[:, None, :] @ np.abs(_herm(evecs) @ h) ** 2)[:, 0] / b).min(axis=1)
        ok = floor > 0.0
        lam = face / np.where(ok, floor, 1.0)[:, None]
        obj = lam.sum(axis=1)
        gap = obj - (cert * b).sum(axis=1)
        np.copyto(gap_min, gap, where=ok & (gap < gap_min))

        mu = _duality_measure(w, z, sg)
        done = ok & (gap <= tol * (1.0 + np.abs(obj)))
        improved = mu < mu_min
        stale = (stale + 1) * ~improved
        mu_min = np.where(improved, mu, mu_min)
        stop = done | (stale >= 5)
        if stop.any():
            for i in np.flatnonzero(stop):
                if done[i]:
                    face_w = (evecs[i] * lam[i]) @ _herm(evecs[i])
                    results[live[i]] = (0.5 * (face_w + _herm(face_w)), cert[i],
                                        float(obj[i]), float(gap[i]), steps)
                else:
                    results[live[i]] = _stalled(mu_min[i], gap_min[i], tol)
            keep = ~stop
            if not keep.any():
                break
            nb = int(keep.sum())
            chol = chol[np.concatenate((keep, keep))]
            h, hh, b, w, z, sg, mu, gap_min, mu_min, stale, live = (a[keep] for a in (
                h, hh, b, w, z, sg, mu, gap_min, mu_min, stale, live))
            s, gamma = sg[:, 0], sg[:, 1]

        li = np.linalg.inv(chol)  # inverse Cholesky factors of W, then of Z
        li_h = _herm(li)
        zinv = li_h[nb:] @ li[nb:]
        zh = zinv @ h
        zh_h = _herm(zh)
        wh = w @ h
        hzh = hh @ zh
        # Schur complement of the HKM direction: one J x J system per step.
        # Its right-hand side b + target (1/gamma - diag(H^H Z^-1 H)) is
        # affine in the centering target, so one solve serves both steps.
        s_over_g = s / gamma
        schur = (hh @ wh * hzh.conj()).real + s_over_g[:, :, None] * eye_n
        rhs = np.empty((nb, n, 2))
        rhs[..., 0] = b
        rhs[..., 1] = 1.0 / gamma - np.einsum("bjj->bj", hzh).real
        dg_both = np.linalg.solve(schur, rhs)

        def direction(target):
            """Step and step lengths (primal, dual) for a (B, 1) centering target."""
            dg = dg_both[..., 0] + target * dg_both[..., 1]
            dz = -(h * dg[:, None, :]) @ hh
            t = (wh * dg[:, None, :]) @ zh_h
            dw = target[:, :, None] * zinv - w + 0.5 * (t + _herm(t))
            ds = target / gamma - s - s_over_g * dg
            dsg = np.concatenate((ds[:, None], dg[:, None]), axis=1)
            # primal and dual boundaries in one eigensolve: W + a dW stays PSD
            # while 1 + a lambda_min(L^-1 dW L^-H) >= 0, and the step taken
            # is min(1, 0.95 a) of the largest such a
            lam_min = np.linalg.eigvalsh(li @ np.concatenate((dw, dz)) @ li_h)[:, 0]
            cone = 0.95 / np.maximum(-lam_min, 0.95)
            step = np.minimum(cone.reshape(2, nb).T, _step_length(sg, dsg))
            return dw, dz, dsg, step

        # Mehrotra: the affine step's progress sets the centering weight
        dw, dz, dsg, step = direction(np.zeros((nb, 1)))
        mu_aff = _duality_measure(w + step[:, 0, None, None] * dw,
                                  z + step[:, 1, None, None] * dz,
                                  sg + step[:, :, None] * dsg)
        dw, _, dsg, step = direction(((mu_aff / mu) ** 3 * mu)[:, None])
        w = w + step[:, 0, None, None] * dw
        w = 0.5 * (w + _herm(w))
        sg = sg + step[:, :, None] * dsg
        steps += 1
    return results


@dataclass(frozen=True)
class BeamformingSolution:
    """Energy beams recovered from the aggregate optimum."""

    beams: tuple
    total_power: float
    delivered: np.ndarray
    rank_one_ratio: float
    aggregate: PsdMatrix


_RANK_TOL = 1e-9


def extract_beams(aggregate, channels):
    """Eigen-decompose the aggregate matrix into unlabeled energy beams.

    Beams are sqrt(lambda_k) u_k for eigenvalues above _RANK_TOL times
    the largest; rank_one_ratio is lambda_2 / lambda_1.
    """
    w = aggregate.entries
    vals, vecs = np.linalg.eigh(w)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    lmax = float(vals[0]) if vals.size else 0.0
    if lmax <= 0.0:
        beams = ()
        ratio = 0.0
    else:
        keep = vals > _RANK_TOL * lmax
        beams = tuple(np.sqrt(vals[k]) * vecs[:, k] for k in np.nonzero(keep)[0])
        ratio = float(max(vals[1], 0.0) / lmax) if vals.size > 1 else 0.0
    delivered = np.array([float(np.trace(w @ np.asarray(g)).real) for g in channels])
    total = float(sum(np.vdot(bm, bm).real for bm in beams))
    return BeamformingSolution(
        beams=beams, total_power=total, delivered=delivered,
        rank_one_ratio=ratio, aggregate=aggregate)


@dataclass(frozen=True)
class VerificationReport:
    """Constraint-by-constraint audit of a beamforming solution."""

    delivered: np.ndarray  # from the emitted beams, not the aggregate
    residuals: np.ndarray  # delivered - target
    tight: np.ndarray  # bool, constraint met with near equality
    dual_pressure: np.ndarray
    complementary: np.ndarray  # bool, tight or zero dual pressure
    total_power: float
    ok: bool = field(default=False)


def verify_beamforming(solution, channels, targets, tol=1e-9):
    """Recompute delivery from the beams and audit the KKT structure."""
    b = targets.input_targets if isinstance(targets, EhTargets) else np.asarray(targets, dtype=float)
    delivered = np.zeros(len(b))
    for j, g in enumerate(channels):
        gm = np.asarray(g)
        delivered[j] = float(sum(np.vdot(bm, gm @ bm).real for bm in solution.beams))
    residuals = delivered - b
    ref = np.maximum(b, 1e-30)
    tight = np.abs(residuals) <= 1e-6 * ref
    gamma = solution.aggregate.duals
    pressure_floor = 1e-6 * max(float(np.max(gamma)), 1e-30)
    complementary = tight | (gamma <= pressure_floor)
    ok = bool(np.all(residuals >= -tol * np.maximum(ref, 1.0)))
    return VerificationReport(
        delivered=delivered, residuals=residuals, tight=tight,
        dual_pressure=gamma.copy(), complementary=complementary,
        total_power=solution.total_power, ok=ok)


def required_power_linear(channels, rf_targets, params):
    """Total transmit power when the rectifier is modeled as linear.

    Same SDP with input targets target_j / efficiency; baseline for
    comparing against the nonlinear rectifier model.
    """
    targets = np.asarray(rf_targets, dtype=float) / params.efficiency
    return solve_aggregate_sdp(channels, targets).objective
