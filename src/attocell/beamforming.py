"""Minimum-power RF energy beamforming under per-device input targets.

The design problem is min sum_j tr(W_j) subject to
sum_j' tr(W_j' G_j) >= theta_j and W_j PSD.  Objective and constraints
only see the sum W = sum_j W_j, so a single aggregate PSD variable is
optimized and beams are read off its eigendecomposition afterwards.

Every channel is rank one, G_j = h_j h_j^H, so the dual has one scalar
per device: maximize b.gamma subject to Z = I - sum gamma_j G_j PSD and
gamma >= 0.  A log barrier on that dual takes J x J Newton steps over the
devices with positive targets.  Each barrier round reads the primal
W = Z^-1 / t off the center, scales it up until every target is met, and
certifies it with gamma rescaled onto lambda_max(sum gamma G) = 1, which
lower-bounds tr(W).  Within 1e-4 of the optimum, a Newton solve of the KKT
system on a guessed active set and rank (the polish) reaches machine
precision, which the barrier's Z^-1 loses to cancellation.
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

_MAX_NEWTON = 400
_CENTER_TOL = 1e-9  # half squared Newton decrement; affine-invariant
_MAX_OUTER = 40


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
    iterations: int  # dual Newton steps

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


def _kkt_newton(g_act, b_act, y0, gamma0, max_iter=40):
    """Newton on the first-order system of the reduced problem.

    Unknowns are a rank factor Y (W = Y Y^H) and the active duals.
    Residuals: (I - sum gamma_k G_k) Y = 0 and tr(Y Y^H G_k) = b_k.
    The system has no barrier slacks, so its conditioning does not
    degrade with solution accuracy; the gauge freedom Y -> Y U is
    handled by the least-squares step.
    """
    m, r = y0.shape
    na = len(g_act)
    y = y0.copy()
    gam = np.asarray(gamma0, dtype=float).copy()
    scale = max(1.0, float(np.sqrt(np.sum(np.abs(y) ** 2))))
    eye_r = np.eye(r)

    def residual(yv, gv):
        z = np.eye(m, dtype=complex) - sum(g * gk for g, gk in zip(gv, g_act))
        f1 = z @ yv
        gy = [g @ yv for g in g_act]
        f2 = np.array([float(np.sum((yv.conj() * gy[k]).real)) for k in range(na)]) - b_act
        return z, f1, gy, f2

    res_accept = 1e-11 * scale  # downstream certificate is the real gate
    for _ in range(max_iter):
        z, f1, gy, f2 = residual(y, gam)
        res = max(float(np.max(np.abs(f1))), float(np.max(np.abs(f2))) if na else 0.0)
        if res <= res_accept:
            break
        f = np.concatenate([np.real(f1).ravel("F"), np.imag(f1).ravel("F"), f2])
        n_y = m * r
        jac = np.zeros((2 * n_y + na, 2 * n_y + na))
        zr, zi = np.real(z), np.imag(z)
        jac[:n_y, :n_y] = np.kron(eye_r, zr)
        jac[:n_y, n_y:2 * n_y] = -np.kron(eye_r, zi)
        jac[n_y:2 * n_y, :n_y] = np.kron(eye_r, zi)
        jac[n_y:2 * n_y, n_y:2 * n_y] = np.kron(eye_r, zr)
        for k in range(na):
            col = gy[k]
            jac[:n_y, 2 * n_y + k] = -np.real(col).ravel("F")
            jac[n_y:2 * n_y, 2 * n_y + k] = -np.imag(col).ravel("F")
            jac[2 * n_y + k, :n_y] = 2.0 * np.real(col).ravel("F")
            jac[2 * n_y + k, n_y:2 * n_y] = 2.0 * np.imag(col).ravel("F")
        # rcond truncates the gauge directions Y -> Y U, whose singular
        # values sit at O(residual); inverting them turns a 1e-6 residual
        # into an O(1) step and the line search cannot recover
        dv = np.linalg.lstsq(jac, -f, rcond=1e-6)[0]
        norm0 = float(np.linalg.norm(f))
        alpha = 1.0
        for _ in range(12):
            y_new = y + alpha * (dv[:n_y] + 1j * dv[n_y:2 * n_y]).reshape((m, r), order="F")
            gam_new = gam + alpha * dv[2 * n_y:]
            _, f1n, _, f2n = residual(y_new, gam_new)
            if np.linalg.norm(np.concatenate(
                    [np.real(f1n).ravel(), np.imag(f1n).ravel(), f2n])) <= (1 - 0.25 * alpha) * norm0:
                break
            alpha *= 0.5
        else:
            # rounding floor of the gauge-degenerate Jacobian; the iterate is
            # still usable if its residual is small, and verification decides
            return (y, gam) if res <= 1e4 * res_accept else None
        y, gam = y_new, gam_new
    else:
        return None
    return y, gam


def _kkt_polish(g_all, b, w, gamma):
    """Refine a near-optimal barrier iterate to machine precision.

    Guesses the active set from the barrier duals and the solution rank
    from the eigenvalues of W, solves the optimality system by Newton,
    then verifies primal and dual feasibility from scratch.  Returns
    (W, duals, objective, certified gap) or None if no guess verifies.
    """
    evals, evecs = np.linalg.eigh(w)
    lmax = float(evals[-1])
    gmax = float(np.max(gamma)) if len(gamma) else 0.0
    if lmax <= 0.0 or gmax <= 0.0:
        return None
    n_dev = len(g_all)
    guesses = []
    for a_th in (1e-3, 1e-6):
        act = tuple(j for j in range(n_dev) if gamma[j] > a_th * gmax)
        for r_th in (1e-2, 1e-4):
            r = int(np.sum(evals > r_th * lmax))
            if act and 1 <= r and (act, r) not in guesses:
                guesses.append((act, r))
    best = None
    for act, r in guesses:
        g_act = [g_all[j] for j in act]
        b_act = b[list(act)]
        y0 = evecs[:, -r:] * np.sqrt(np.maximum(evals[-r:], 0.0))
        out = _kkt_newton(g_act, b_act, y0, gamma[list(act)])
        if out is None:
            continue
        y, gam = out
        if np.any(gam < -1e-9 * max(float(np.max(gam)), 1e-30)):
            continue
        gam = np.maximum(gam, 0.0)
        w_new = y @ y.conj().T
        w_new = 0.5 * (w_new + w_new.conj().T)
        delivered = np.array([float(np.trace(w_new @ g).real) for g in g_all])
        # restore primal feasibility exactly by a tiny uniform upscale
        need = b > 0
        if np.any(need):
            floor = np.min(delivered[need] / b[need])
            if floor <= 0.0:
                continue
            if floor < 1.0:
                w_new = w_new / floor
        obj = float(np.trace(w_new).real)
        duals = np.zeros(n_dev)
        duals[list(act)] = gam
        z_load = sum(d * g for d, g in zip(duals, g_all))
        lam = float(np.linalg.eigvalsh(z_load)[-1])
        if lam <= 0.0:
            continue
        duals = duals * ((1.0 - 1e-12) / lam)
        gap = obj - float(duals @ b)
        if gap < 0:
            continue
        if best is None or gap < best[3]:
            best = (w_new, duals, obj, gap)
    return best


def solve_aggregate_sdp(channels, targets, tol=1e-8):
    """Minimize tr(W) over PSD W with tr(W G_j) >= target_j.

    ``channels`` are the rank-one matrices g_j g_j^H.  Targets are
    normalized by their maximum before solving (the problem is exactly
    positively homogeneous) and the result scaled back, so scaled
    instances produce bitwise-scaled optima.  Terminates when the
    certified duality gap drops below tol * (1 + |objective|).
    """
    b_raw = targets.input_targets if isinstance(targets, EhTargets) else np.asarray(targets, dtype=float)
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
        w, gamma, obj, gap, newton_steps = _dual_barrier(g_act, h, b, tol)
    except np.linalg.LinAlgError as exc:
        raise SolverStallError(f"numerical breakdown: {exc}") from exc
    for idx, j in enumerate(active):
        duals[j] = gamma[idx]  # per unit of normalized target; scale-free
    return PsdMatrix(entries=scale * w, objective=scale * obj, duals=duals,
                     gap=scale * gap, iterations=newton_steps)


def _rank_one_factor(g):
    """The vector h with g = h h^H; rejects g unless rank one to rounding."""
    vals, vecs = np.linalg.eigh(g)
    if np.any(np.abs(vals[:-1]) > 1e-9 * vals[-1]):
        raise ValueError("channel matrix is not rank one")
    return np.sqrt(vals[-1]) * vecs[:, -1]


def _z_factor(h, gamma):
    """Cholesky factor of Z = I - sum gamma_j h_j h_j^H, None unless Z > 0."""
    z = np.eye(h.shape[0]) - (h * gamma) @ h.conj().T
    try:
        return np.linalg.cholesky(z)
    except np.linalg.LinAlgError:
        return None


def _dual_barrier(g_act, h, b, tol):
    """Barrier rounds on the dual, returning the best certified round.

    Each round centers phi(gamma) = -t b.gamma - log det Z - sum log gamma
    by Newton steps on the J duals, reads the primal W = Z^-1 / t off the
    center, and certifies it with gamma rescaled onto the cone boundary.
    """
    m, n_act = h.shape
    power = np.sum(np.abs(h) ** 2, axis=0)
    # strictly feasible start: lambda_max(sum gamma G) <= sum gamma |h|^2 = 1/2
    gamma = 0.5 / (n_act * power)
    l = _z_factor(h, gamma)
    if l is None:
        raise SolverStallError("dual start outside the cone")
    # the first center's gap (m + J) / t matches tr(c I), c = max b/|h|^2,
    # a feasible primal; a much smaller gap puts that center against the
    # cone boundary, hundreds of damped Newton steps away from the start
    t = (m + n_act) / (m * float(np.max(b / power)))
    mu = 10.0
    newton_steps = 0
    best = None  # (w, gamma, obj, gap) with the smallest certified gap
    stale_rounds = 0

    for _ in range(_MAX_OUTER):
        # center at the current t
        for _ in range(_MAX_NEWTON):
            linv = np.linalg.inv(l)
            hz = linv @ h  # h_i^H Z^-1 h_j = (hz^H hz)_ij
            gram = hz.conj().T @ hz
            grad = -t * b + gram.diagonal().real - 1.0 / gamma
            hess = np.abs(gram) ** 2 + np.diag(1.0 / gamma**2)
            step = np.linalg.solve(hess, -grad)
            slope = float(grad @ step)
            if -0.5 * slope <= _CENTER_TOL:
                break
            logdet = 2.0 * float(np.sum(np.log(l.diagonal().real)))
            alpha = 1.0
            while alpha > 1e-14:
                trial = gamma + alpha * step
                l_new = _z_factor(h, trial) if np.all(trial > 0) else None
                if l_new is not None:
                    # barrier change evaluated as a difference: raw values
                    # are O(t b.gamma) and would swamp the decrease in noise
                    dphi = (-t * alpha * float(b @ step)
                            - (2.0 * float(np.sum(np.log(l_new.diagonal().real))) - logdet)
                            - float(np.sum(np.log1p(alpha * step / gamma))))
                    if dphi <= 0.25 * alpha * slope:
                        break
                alpha *= 0.5
            else:
                # no decrease along the noisy Newton direction: the iterate is
                # as centered as float64 allows at this t; let the certified
                # gap decide whether that is good enough
                break
            gamma, l = trial, l_new
            newton_steps += 1
        else:
            raise SolverStallError("centering did not converge")

        # primal W = Z^-1 / t, scaled up until every target is met; linv
        # and gram still belong to the final gamma
        w = linv.conj().T @ linv / t
        w = 0.5 * (w + w.conj().T)
        delivered = gram.diagonal().real / t
        w = w / min(1.0, float(np.min(delivered / b)))
        # dual certificate: gamma rescaled exactly onto the boundary of
        # {sum gamma G <= I}; any such gamma lower-bounds tr(W)
        lam_max = float(np.linalg.eigvalsh((h * gamma) @ h.conj().T)[-1])
        cert = gamma * ((1.0 - 1e-12) / lam_max)
        obj = float(np.trace(w).real)
        gap = obj - float(cert @ b)
        prior_gap = best[3] if best is not None else np.inf
        if best is None or gap < best[3]:
            best = (w, cert, obj, gap)
        if best[3] <= tol * (1.0 + abs(best[2])):
            break
        # near the optimum, a KKT refinement reaches machine precision
        # where the barrier hits its float64 centering floor
        if best[3] <= 1e-4 * (1.0 + abs(best[2])):
            polished = _kkt_polish(g_act, b, best[0], best[1])
            if polished is not None and polished[3] < best[3]:
                best = polished
            if best[3] <= tol * (1.0 + abs(best[2])):
                break
        # stop burning rounds once rounding noise pins the certified gap
        if gap >= 0.95 * prior_gap:
            stale_rounds += 1
            if stale_rounds >= 3:
                raise SolverStallError(
                    f"certified gap stalled at {best[3]:.3e} before reaching "
                    f"{tol:.1e}*(1+|obj|); tolerance below the float64 floor")
        else:
            stale_rounds = 0
        t *= mu
    else:
        raise SolverStallError("barrier rounds exhausted without closing the gap")
    return (*best, newton_steps)


@dataclass(frozen=True)
class BeamformingSolution:
    """Energy beams recovered from the aggregate optimum."""

    beams: tuple
    total_power: float
    delivered: np.ndarray
    rank_one_ratio: float
    aggregate: PsdMatrix
    iterations: int = 0


def extract_beams(aggregate, channels, rank_tol=1e-9):
    """Eigen-decompose the aggregate matrix into unlabeled energy beams.

    Beams are sqrt(lambda_k) u_k for eigenvalues above rank_tol times
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
        keep = vals > rank_tol * lmax
        beams = tuple(np.sqrt(vals[k]) * vecs[:, k] for k in np.nonzero(keep)[0])
        ratio = float(max(vals[1], 0.0) / lmax) if vals.size > 1 else 0.0
    delivered = np.array([float(np.trace(w @ np.asarray(g)).real) for g in channels])
    total = float(sum(np.vdot(bm, bm).real for bm in beams))
    return BeamformingSolution(
        beams=beams, total_power=total, delivered=delivered,
        rank_one_ratio=ratio, aggregate=aggregate,
        iterations=aggregate.iterations)


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


def required_power_linear(channels, rf_targets, params, tol=1e-9):
    """Total transmit power when the rectifier is modeled as linear.

    Same SDP with input targets target_j / efficiency; baseline for
    comparing against the nonlinear rectifier model.
    """
    targets = np.asarray(rf_targets, dtype=float) / params.efficiency
    sol = solve_aggregate_sdp(channels, targets, tol=tol)
    return sol.objective
