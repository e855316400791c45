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
lambda_max(sum gamma G) = 1, which lower-bounds tr(W).
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
    the normalized problem drops below tol * (1 + |objective|).
    """
    if not isinstance(targets, EhTargets):
        targets = EhTargets(input_targets=targets)
    b_raw = targets.input_targets
    gs = [np.asarray(g, dtype=complex) for g in channels]
    if len(gs) != len(b_raw):
        raise DimensionMismatchError("one channel matrix per target required")
    if not gs:
        raise DimensionMismatchError("need at least one device")
    m = gs[0].shape[0]
    if any(g.shape != (m, m) for g in gs):
        raise DimensionMismatchError("channel matrices must share a shape")

    n_dev = len(b_raw)
    active = [j for j in range(n_dev) if b_raw[j] > 0.0]
    duals = np.zeros(n_dev)
    if not active:
        return PsdMatrix(entries=np.zeros((m, m), dtype=complex), objective=0.0,
                         duals=duals, gap=0.0, iterations=0)
    for j in active:
        if float(np.trace(gs[j]).real) <= 0.0:
            raise InfeasibleError(f"device {j} has a zero channel but a positive target")

    scale = float(np.max(b_raw[active]))
    b = np.array([b_raw[j] / scale for j in active])
    g_act = [gs[j] for j in active]
    try:
        h = np.stack([_rank_one_factor(g) for g in g_act], axis=1)
        # channels normalized like the targets, so the stop rule is scale-free
        h_scale = float(np.max(np.sum(np.abs(h) ** 2, axis=0)))
        w, gamma, obj, gap, steps = _primal_dual(h / np.sqrt(h_scale), b, tol)
    except np.linalg.LinAlgError as exc:
        raise SolverStallError(f"numerical breakdown: {exc}") from exc
    for idx, j in enumerate(active):
        duals[j] = gamma[idx] / h_scale  # free of the target scale
    return PsdMatrix(entries=scale * (w / h_scale), objective=scale * (obj / h_scale),
                     duals=duals, gap=scale * (gap / h_scale), iterations=steps)


def _rank_one_factor(g):
    """The vector h with g = h h^H; rejects g unless rank one to rounding."""
    vals, vecs = np.linalg.eigh(g)
    if np.any(np.abs(vals[:-1]) > 1e-9 * vals[-1]):
        raise ValueError("channel matrix is not rank one")
    return np.sqrt(vals[-1]) * vecs[:, -1]


def _max_step(li, d):
    """Largest alpha with L L^H + alpha d PSD, given the inverse li of L."""
    lam = float(np.linalg.eigvalsh(li @ d @ li.conj().T)[0])
    return -1.0 / lam if lam < 0.0 else np.inf


def _ratio_step(x, dx):
    """Largest alpha with x + alpha dx >= 0, for x > 0."""
    neg = dx < 0.0
    return float(np.min(-x[neg] / dx[neg])) if np.any(neg) else np.inf


def _certify(h, b, w, z, gamma):
    """(W, duals, objective, gap) for the optimal face of an iterate.

    The face keeps the eigen-directions u of W with lambda(W) > u^H Z u,
    which strict complementarity separates at the optimum.  It is scaled
    until the tightest target is met exactly, and gamma is rescaled onto
    lambda_max(sum gamma G) = 1, where it lower-bounds tr(W).
    """
    evals, evecs = np.linalg.eigh(w)
    zq = np.sum(evecs.conj() * (z @ evecs), axis=0).real
    keep = evals > zq
    u = evecs[:, keep] * np.sqrt(evals[keep])
    floor = float(np.min(np.sum(np.abs(u.conj().T @ h) ** 2, axis=0) / b))
    if floor <= 0.0:
        return None
    w_face = u @ u.conj().T / floor
    w_face = 0.5 * (w_face + w_face.conj().T)
    lam_max = float(np.linalg.eigvalsh((h * gamma) @ h.conj().T)[-1])
    cert = gamma * ((1.0 - 1e-12) / lam_max)
    obj = float(np.trace(w_face).real)
    return w_face, cert, obj, obj - float(cert @ b)


def _stalled(mu_min, best, tol):
    gap = best[3] if best is not None else np.inf
    return SolverStallError(
        f"duality measure stalled at {mu_min:.3e} with certified gap "
        f"{gap:.3e}, short of {tol:.1e}*(1+|obj|); tolerance below "
        f"the float64 floor")


def _primal_dual(h, b, tol):
    """Feasible primal-dual interior-point steps over (W, s, gamma).

    Returns the best certificate (W, duals, objective, gap) and the step
    count.  s_j = h_j^H W h_j - b_j is the primal slack, and
    tr(W Z) + s.gamma is the duality gap of the iterate.
    """
    m, n = h.shape
    eye = np.eye(m)
    power = np.sum(np.abs(h) ** 2, axis=0)
    c = 2.0 * float(np.max(b / power))
    w = c * np.eye(m, dtype=complex)
    s = c * power - b
    gamma = 0.5 / (n * power)
    best = None  # smallest certified gap so far
    mu_min = np.inf
    stale = 0
    steps = 0
    while True:
        z = eye - (h * gamma) @ h.conj().T
        try:
            lz = np.linalg.cholesky(z)
            lw = np.linalg.cholesky(w)
        except np.linalg.LinAlgError:
            if steps == 0:
                raise
            # rounding has pushed a late iterate off the cone: no more progress
            raise _stalled(mu_min, best, tol) from None
        cand = _certify(h, b, w, z, gamma)
        if cand is not None and (best is None or cand[3] < best[3]):
            best = cand
        if best is not None and best[3] <= tol * (1.0 + abs(best[2])):
            return (*best, steps)
        mu = (float(np.trace(w @ z).real) + float(s @ gamma)) / (m + n)
        if mu < mu_min:
            mu_min, stale = mu, 0
        else:
            stale += 1
            if stale >= 5:
                raise _stalled(mu_min, best, tol)

        lzi = np.linalg.inv(lz)
        lwi = np.linalg.inv(lw)
        zinv = lzi.conj().T @ lzi
        zh = zinv @ h
        wh = w @ h
        # Schur complement of the HKM direction: one J x J system per step
        schur = (h.conj().T @ wh * (h.conj().T @ zh).conj()).real + np.diag(s / gamma)
        d = np.sum(h.conj() * zh, axis=0).real  # diag(H^H Z^-1 H)

        def direction(target):
            dg = np.linalg.solve(schur, b - target * d + target / gamma)
            dz = -(h * dg) @ h.conj().T
            t = (wh * dg) @ zh.conj().T
            dw = target * zinv - w + 0.5 * (t + t.conj().T)
            ds = target / gamma - s - s / gamma * dg
            a_p = min(1.0, 0.95 * min(_max_step(lwi, dw), _ratio_step(s, ds)))
            a_d = min(1.0, 0.95 * min(_max_step(lzi, dz), _ratio_step(gamma, dg)))
            return dw, ds, dg, dz, a_p, a_d

        # Mehrotra: the affine step's progress sets the centering weight
        dw, ds, dg, dz, a_p, a_d = direction(0.0)
        mu_aff = (float(np.trace((w + a_p * dw) @ (z + a_d * dz)).real)
                  + float((s + a_p * ds) @ (gamma + a_d * dg))) / (m + n)
        dw, ds, dg, _, a_p, a_d = direction((mu_aff / mu) ** 3 * mu)
        w = w + a_p * dw
        w = 0.5 * (w + w.conj().T)
        s = s + a_p * ds
        gamma = gamma + a_d * dg
        steps += 1


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
