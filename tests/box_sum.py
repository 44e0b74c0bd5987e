"""Brute-force Gaussian lattice sums on a fixed box, the reference of theta's certified sums."""

import math

import numpy as np


def box_sum(exponent_fn, R, d, center=None):
    """sum of exp(e) over k in center + [-R, R]^d, e = exponent_fn(k) for the (K, d) box.

    No tail bound and no shell order: every term of the box, in C order,
    scaled by the largest one and added with math.fsum per part.
    """
    k = np.indices((2 * R + 1,) * d).reshape(d, -1).T - R
    if center is not None:
        k = k + np.asarray(center, dtype=int)
    e = np.asarray(exponent_fn(k), dtype=complex)
    top = e.real.max()
    t = np.exp(e - top)
    return complex(math.fsum(t.real), math.fsum(t.imag)) * math.exp(top)


def theta_box(z, params, order, R):
    """theta_order(z, Omega) summed over the box of radius R around its largest term.

    The terms at z itself, with no lattice reduction: |term k| is largest
    near k* = -Y^{-1} Im z, Y = Im Omega, and the box is centred at round(k*).
    """
    z = np.asarray(z, dtype=complex)
    center = np.rint(-np.linalg.solve(params.im, z.imag))

    def exponents(k):
        quad = np.einsum("ki,ij,kj->k", k, params.Omega, k)
        return 1j * np.pi * order * quad + 2j * np.pi * order * (k @ z)

    return box_sum(exponents, R, params.d, center)
