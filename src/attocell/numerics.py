"""Scalar special functions used by the closed-form bias solver."""

import numpy as np

from .errors import SolverStallError

__all__ = ["lambert_w0"]

_MAX_ITER = 64
_REL_TOL = 1e-15


def lambert_w0(x):
    """Principal branch of the Lambert W function for x >= 0.

    Solves w * exp(w) = x by Halley iteration.  Accepts scalars or
    arrays; the residual |w e^w - x| is driven below
    1e-12 * max(1, |x|) for every element.  Each element stops where
    its own scalar call would, so an array gives each element the bits
    of ``lambert_w0(float(x))``.

    Args:
        x: nonnegative value(s).

    Returns:
        w with the same shape as ``x``.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr < 0):
        raise ValueError("lambert_w0 requires x >= 0")
    w = np.log1p(arr)
    big = arr > np.e
    if np.any(big):
        lg = np.log(arr[big])
        w[big] = lg - np.log(lg)
    scale = np.maximum(1.0, np.abs(arr))
    tol = _REL_TOL * scale
    for _ in range(_MAX_ITER):
        e = np.exp(w)
        f = w * e - arr
        done = np.abs(f) <= tol
        if np.all(done):
            break
        # Halley step; denominator never vanishes for w >= 0
        wp1 = w + 1.0
        step = f / (e * wp1 - (w + 2.0) * f / (2.0 * wp1))
        # a converged element stops, as its scalar call would; so does one
        # whose step rounds to nothing, as w - step is then w again
        step[done] = 0.0
        new = w - step
        if np.array_equal(new, w):
            break  # further steps round to nothing
        w = new
    # near the tolerance the iteration can cycle on the last ulp, so the
    # loop count is not the verdict; the residual contract is
    res = np.abs(w * np.exp(w) - arr)
    if np.any(res > 1e-12 * scale):
        raise SolverStallError("lambert_w0 did not converge")
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(w[0])
    return w
