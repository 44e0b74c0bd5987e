"""Nearest lattice translates on C^d / Lambda for the tests' references."""

import numpy as np

from torusgabor.core import lattice_coefficients, lattice_ellipsoid


def complex_distance_mod_lattice(z1, z2, params):
    """Euclidean distance |z1 - z2| minimized over Lambda translates.

    With z1 - z2 = -i Omega a + i b, the translate by -i Omega m + i k leaves
    v(u, w) = -i Omega u + i w at (u, w) = (a - m, b - k), and
    |v|^2 = u' Y^2 u + |w - X u|^2 is a quadratic form G in (u, w).  Rounding a
    and b leaves the residual res at distance near, which on a skewed lattice
    need not be the least.  A translate n at most as far has
    ||res - n||_G <= near, so ||n||_G <= near + ||res||_G, and
    lattice_ellipsoid enumerates every such n.
    """
    a, b = lattice_coefficients(z1 - z2, params)
    d = params.d
    res = np.concatenate([a - np.round(a), b - np.round(b)])
    A = np.block([[params.im, np.zeros((d, d))], [-params.re, np.eye(d)]])
    G = A.T @ A

    def dist(n):
        u = res - n
        return np.linalg.norm(-1j * (u[:, :d] @ params.Omega.T) + 1j * u[:, d:], axis=1)

    near = dist(np.zeros((1, 2 * d)))[0]
    for n in lattice_ellipsoid(G, (near + np.sqrt(res @ G @ res)) ** 2, 1 << 10):
        near = min(near, dist(n).min())
    return float(near)
