"""Gabor analysis on the finite torus and its complex-torus counterpart.

The package revolves around one dictionary: signals on the discrete group
(Z_N)^d, their time-frequency transforms on T_N = [0,N)^d x [0,1)^d, and
theta-series models of the same objects on the complex torus C^d / Lambda.
`core` fixes the parameters and lattice coefficients, `transforms` the discrete
and short-time transforms, `theta` the certified series evaluation,
`bargmann` the holomorphic sections and their Bergman geometry, `frames`
the spanning certificates for sampled systems, and `localization` the
phase-space restriction operators; `cli` exposes the lot as subcommands.
"""

from .core import (
    GaborError,
    GaborParams,
    dual_lattice_member,
    lattice_coefficients,
    params_from_json,
    params_to_json,
)
from .theta import ScaledComplex, theta_eval, theta_zero_1d, winding_number
from .transforms import (
    GaussianWindow,
    dgt,
    dgt_inverse,
    periodize_sample,
    time_frequency_shift,
)
from .bargmann import (
    bargmann_basis,
    bergman_density,
    gram,
    section_winding,
    weight_phi,
)
from .frames import (
    PointSet,
    counting_guarantees,
    frame_bounds,
    parity_predicate,
    scan_subsets,
)
from .localization import (
    BoxIndicator,
    Constant,
    TrigPoly,
    asymptotic_sweep,
    parse_symbol,
    restriction_matrix,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "GaborError",
    "GaborParams",
    "dual_lattice_member",
    "lattice_coefficients",
    "params_from_json",
    "params_to_json",
    "ScaledComplex",
    "theta_eval",
    "theta_zero_1d",
    "winding_number",
    "GaussianWindow",
    "dgt",
    "dgt_inverse",
    "periodize_sample",
    "time_frequency_shift",
    "bargmann_basis",
    "bergman_density",
    "gram",
    "section_winding",
    "weight_phi",
    "PointSet",
    "counting_guarantees",
    "frame_bounds",
    "parity_predicate",
    "scan_subsets",
    "BoxIndicator",
    "Constant",
    "TrigPoly",
    "asymptotic_sweep",
    "parse_symbol",
    "restriction_matrix",
    "spectrum",
    "__version__",
]
