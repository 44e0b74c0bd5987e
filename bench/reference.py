"""Independent reference code for the benchmark's checks.

Nothing here imports torusgabor.  Each function is the plainest formula for
the quantity it checks, summed over a fixed, generous box, so that a later
change of quadrature, truncation or batching inside the package is judged
against the mathematics and not against a stored copy of today's output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Zak terms outside the box, |k|_inf > ZAK_BOX, have |t| >= 6N, so their
# Gaussian factors exp(-pi t' Im(Omega) t / N) are below 1e-30 of the lead
# term for every size used here.  The theta boxes leave the same margin
# around the largest lattice shift the workloads apply.
ZAK_BOX = 6
THETA_BOX_1D = 40
THETA_BOX_2D = 8


# ---------------------------------------------------------------------------
# symbols: expression text for the CLI, closed-form mean, range, and the
# numpy form where a reference quadrature needs one

SYMBOLS = {
    # mean of sin^2(k pi t) over [0, 1) is 1/2 for every integer k != 0, and
    # the factors depend on different coordinates, so the means multiply
    "sweep_smooth": {
        "text": "sin(2*pi*x1)^2*sin(2*pi*xi1)^2",
        "mean": 0.25,
        "range": (0.0, 1.0),
    },
    # indicator of [0, 1/2] x [0, 1/2]: its mean is the box area
    "box": {
        "text": "step(0.5 - x1)*step(0.5 - xi1)",
        "mean": 0.25,
        "range": (0.0, 1.0),
    },
    # cos^2(pi t) also has mean 1/2, so the mean is 1/8
    "smooth_2d": {
        "text": "sin(pi*x1)^2*sin(pi*xi1)^2*cos(pi*x2)^2",
        "fn": lambda x, xi: (np.sin(np.pi * x[:, 0]) * np.sin(np.pi * xi[:, 0])
                             * np.cos(np.pi * x[:, 1])) ** 2,
        "mean": 0.125,
        "range": (0.0, 1.0),
    },
}


# ---------------------------------------------------------------------------
# short-time transforms of the basis, Bergman density, restriction matrices

def window_l2_norm_sq(N, Omega):
    """||h0||^2 = int exp(-2 pi t' Im(Omega) t / N) dt = sqrt(N^d / (2^d det Im Omega))."""
    Y = np.asarray(Omega).imag
    d = Y.shape[0]
    return math.sqrt(N ** d / (2.0 ** d * float(np.linalg.det(Y))))


def basis_stft(N, Omega, x, xi, box=ZAK_BOX):
    """V_n(x, xi) = e^{-2 pi i xi.n} sum_k conj h0(n - x - N k) e^{2 pi i N k.xi}.

    conj h0(t) = exp(pi i t' Omega t / N).  x, xi have shape (P, d) with x in
    [0, N)^d, so n - x lies in (-N, N)^d and the box centred at k = 0 covers
    every term that matters.  Returns shape (N^d, P), rows in C order of n.
    """
    Omega = np.asarray(Omega, dtype=complex)
    d = Omega.shape[0]
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    ks = np.array(list(itertools.product(range(-box, box + 1), repeat=d)), dtype=float)
    ns = np.array(list(itertools.product(range(N), repeat=d)), dtype=float)
    out = np.empty((len(ns), len(x)), dtype=complex)
    for i, n in enumerate(ns):
        acc = np.zeros(len(x), dtype=complex)
        for k in ks:
            t = n - x - N * k
            q = np.einsum("pi,ij,pj->p", t, Omega, t)
            acc += np.exp(1j * np.pi * q / N + 2j * np.pi * N * (xi @ k))
        out[i] = np.exp(-2j * np.pi * (xi @ n)) * acc
    return out


def bergman_density(N, Omega, x, xi):
    """rho(x, xi) = sum_n |V_n(x, xi)|^2 / ||h0||^2."""
    V = basis_stft(N, Omega, x, xi)
    return (np.abs(V) ** 2).sum(axis=0) / window_l2_norm_sq(N, Omega)


def restriction_eigenvalues(symbol_fn, N, Omega, per_axis):
    """Eigenvalues of M[m, n] = cell / ||h0||^2 sum_p a(x_p / N, xi_p) V_n(p) conj V_m(p).

    Midpoint rule with per_axis nodes on every time and frequency axis; a
    different node set from the package's own grids.
    """
    d = np.asarray(Omega).shape[0]
    xs = (np.arange(per_axis) + 0.5) * (N / per_axis)
    xis = (np.arange(per_axis) + 0.5) / per_axis
    pts = np.array(list(itertools.product(*([xs] * d + [xis] * d))))
    x, xi = pts[:, :d], pts[:, d:]
    V = basis_stft(N, Omega, x, xi)
    a = symbol_fn(x / N, xi)
    cell = (N / per_axis) ** d * (1.0 / per_axis) ** d
    M = (V.conj() * a) @ V.T * (cell / window_l2_norm_sq(N, Omega))
    return np.linalg.eigvalsh(0.5 * (M + M.conj().T))


# ---------------------------------------------------------------------------
# discrete Gabor transform

def dgt_entry(f, g, k, l):
    """V_g f[k, l] = sum_m f[m] conj(g[m - k]) exp(-2 pi i l.m / N), indices mod N."""
    N, d = f.shape[0], f.ndim
    ms = np.indices(f.shape).reshape(d, -1).T
    shifted = g[tuple(((ms - np.asarray(k)) % N).T)]
    phase = np.exp(-2j * np.pi * (ms @ np.asarray(l)) / N)
    return complex(np.sum(f.reshape(-1) * np.conj(shifted) * phase))


# ---------------------------------------------------------------------------
# theta functions

def theta_box(z, Omega, order, box):
    """(sum, sum of |terms|) of sum_k exp(pi i n k'Omega k + 2 pi i n k'z) over a box."""
    Omega = np.asarray(Omega, dtype=complex)
    d = Omega.shape[0]
    ks = np.array(list(itertools.product(range(-box, box + 1), repeat=d)), dtype=float)
    e = 1j * np.pi * order * np.einsum("ki,ij,kj->k", ks, Omega, ks) \
        + 2j * np.pi * order * (ks @ np.asarray(z, dtype=complex))
    terms = np.exp(e)
    return complex(terms.sum()), float(np.abs(terms).sum())


def theta_jacobi(z, omega, order, factors=40):
    """d = 1 theta_n(z, omega) by the Jacobi triple product.

    sum_k exp(pi i k^2 tau + 2 pi i k w) = prod_{m >= 1} (1 - q^{2m})
    (1 + q^{2m-1} e^{2 pi i w}) (1 + q^{2m-1} e^{-2 pi i w}), q = e^{pi i tau},
    with w = n z and tau = n omega.
    """
    tau, w = order * omega, order * z
    q = np.exp(1j * np.pi * tau)
    u = np.exp(2j * np.pi * w)
    val = 1.0 + 0.0j
    for m in range(1, factors + 1):
        val *= (1 - q ** (2 * m)) * (1 + q ** (2 * m - 1) * u) * (1 + q ** (2 * m - 1) / u)
    return complex(val)


def distance_mod_lattice(z, target, omega):
    """|z - target - lambda| for the lambda in Lambda = -i omega Z + i Z with the
    nearest lattice coefficients (d = 1); 0 exactly when z = target mod Lambda."""
    w = complex(z) - complex(target)
    # w = -i omega a + i b  =>  Re w = Im(omega) a,  Im w = -Re(omega) a + b
    a = w.real / omega.imag
    b = w.imag + omega.real * a
    ra, rb = a - round(a), b - round(b)
    return abs(-1j * omega * ra + 1j * rb)


# ---------------------------------------------------------------------------
# frames

def integer_form_no_frame_count(N):
    """Number of N-subsets of I_N x I_N with N even, N | sum k and N | sum l (d = 1)."""
    if N % 2:
        return 0
    positions = list(itertools.product(range(N), range(N)))
    return sum(
        1 for sub in itertools.combinations(positions, N)
        if sum(k for k, _ in sub) % N == 0 and sum(l for _, l in sub) % N == 0
    )
