"""The direct discrete Gabor transform, the reference of transforms.dgt."""

import numpy as np

from torusgabor.transforms import (
    ShapeMismatchError,
    _check_signal,
    _require_finite,
    time_frequency_shift,
)


def dgt_direct(f, g):
    """V_g f[k, l] = <f, M_l T_k g>, summed elementwise: O(N^{3d}), one batch per k.

    No FFT and no matmul.  Shapes and non-finite entries are refused as
    transforms.dgt refuses them.
    """
    f = _check_signal(f)
    g = _check_signal(g, "window")
    if f.shape != g.shape:
        raise ShapeMismatchError(f"signal {f.shape} vs window {g.shape}")
    _require_finite(f, "signal")
    _require_finite(g, "window")
    d = f.ndim
    V = np.empty(f.shape + f.shape, dtype=complex)
    # V[k, l] = <f, M_l T_k g>: the N^d atoms of one shift k in one batch
    ls = np.indices(f.shape).reshape(d, -1).T
    for k in np.ndindex(f.shape):
        atoms = np.conj(time_frequency_shift(g, np.broadcast_to(k, ls.shape), ls)) * f
        V[k] = atoms.sum(axis=tuple(range(1, d + 1))).reshape(f.shape)
    return V
