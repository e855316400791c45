"""Scalar special functions used by the closed-form bias solver."""

import numpy as np

from .errors import SolverStallError

__all__ = ["lambert_w0"]

_MAX_ITER = 64
_REL_TOL = 1e-15


def lambert_w0(x):
    """Principal branch of the Lambert W function for x >= 0.

    Solves w * exp(w) = x by Halley iteration on one float, driving the
    residual |w e^w - x| below 1e-12 * max(1, |x|).  An array maps
    element by element, so each element gets the bits of
    ``lambert_w0(float(x))``.

    Args:
        x: nonnegative value(s).

    Returns:
        w, a float or an array with the shape of ``x``.
    """
    if np.ndim(x):
        arr = np.asarray(x, dtype=float)
        return np.array([lambert_w0(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    x = float(x)
    if x < 0:
        raise ValueError("lambert_w0 requires x >= 0")
    if x > np.e:
        lg = float(np.log(x))
        w = lg - float(np.log(lg))
    else:
        w = float(np.log1p(x))
    tol = _REL_TOL * max(1.0, abs(x))
    prev = None
    for step in range(_MAX_ITER):
        e = float(np.exp(w))
        f = w * e - x
        if abs(f) <= tol:
            break
        # Halley step; denominator never vanishes for w >= 0
        wp1 = w + 1.0
        new = w - f / (e * wp1 - (w + 2.0) * f / (2.0 * wp1))
        if new in (w, prev):
            # a fixed point or a 2-cycle on the last ulp: end on the side
            # of it that step _MAX_ITER would, without taking the steps
            w = (w, new)[(_MAX_ITER - step) % 2]
            break
        prev, w = w, new
    # a cycle stops above the step tolerance, so the loop's exit is not
    # the verdict; the residual contract is
    if abs(w * float(np.exp(w)) - x) > 1e-12 * max(1.0, abs(x)):
        raise SolverStallError("lambert_w0 did not converge")
    return w
