"""Quadrature grids on T_N for the tests' pointwise reference sums."""

import math

import numpy as np

from torusgabor.core import GaborError


def tn_grid(params, nx, nxi, midpoint=False):
    """Uniform product grid on T_N = [0, N)^d x [0, 1)^d.

    nx and nxi are points per time and frequency axis.  Returns (X, XI, w)
    with X, XI of shape (P, d) and w the cell volume; for periodic smooth
    integrands the plain w-weighted sum is the spectrally accurate
    trapezoid/midpoint rule.  Points run in C order over the axes
    (x_1..x_d, xi_1..xi_d).
    """
    if nx < 1 or nxi < 1:
        raise GaborError(f"a T_N grid needs nx, nxi >= 1, got nx={nx}, nxi={nxi}")
    off = 0.5 if midpoint else 0.0
    d, N = params.d, params.N
    xs = (np.arange(nx) + off) * (N / nx)
    xis = (np.arange(nxi) + off) * (1.0 / nxi)
    mesh = np.meshgrid(*([xs] * d + [xis] * d), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    return pts[:, :d], pts[:, d:], (N / nx) ** d * (1.0 / nxi) ** d



def window_l2_norm_sq(params):
    """||h||^2 of the Gaussian window h (transforms.GaussianWindow).

    |h(t)| = exp(-pi t'(Im Omega) t / N), so the squared L2 norm over R^d has
    the closed form sqrt(N^d / (2^d det Im Omega)).
    """
    return math.sqrt(params.N ** params.d / (2.0 ** params.d * float(np.linalg.det(params.im))))
