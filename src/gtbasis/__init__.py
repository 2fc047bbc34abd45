"""Exact Gelfand-Tsetlin bases of spherical harmonics and spherical monogenics.

The package constructs the standard orthogonal bases in R^m with exact
rational / Clifford arithmetic, evaluates their generating functions both in
closed form and as truncated series, and ships a verification suite that
machine-checks every identity the construction rests on.

The package exports exactly ``__all__``, the paper's objects by the rule in
README ("Public names"); every other function is imported from its own module.
"""

from .ballint import inner_harm, inner_mon, inner_mon_full
from .clifford import Multivector, blade_name
from .errors import DomainError, SingularityError
from .gegenbauer import GegenbauerPoly, gegenbauer_poly, gf_value
from .harmonics import (FACTORIAL, PLAIN, BasisIndex, DomainBox, embedding_F,
                        embedding_f_value, enumerate_harm_indices, gf_harm_closed,
                        gf_harm_closed_m3, gf_harm_partial_sum, gf_harm_series,
                        harm_basis, iter_multi_indices, real_basis)
from .hseries import HSeries, lift_step
from .monogenics import (MonIndex, embedding_X, embedding_x_value,
                         enumerate_mon_indices, gf_mon_closed, gf_mon_closed_m3,
                         gf_mon_partial_sum, gf_mon_series, mon_basis)
from .mvpoly import CLIFFORD, GAUSSIAN, MPoly
from .scalars import GaussianRational, PiScaled

__version__ = "0.1.0"

__all__ = [
    "BasisIndex", "CLIFFORD", "DomainBox", "DomainError", "FACTORIAL",
    "GAUSSIAN", "GaussianRational", "GegenbauerPoly", "HSeries", "MPoly",
    "MonIndex", "Multivector", "PLAIN", "PiScaled", "SingularityError",
    "blade_name", "embedding_F", "embedding_X", "embedding_f_value",
    "embedding_x_value", "enumerate_harm_indices", "enumerate_mon_indices",
    "gegenbauer_poly", "gf_harm_closed", "gf_harm_closed_m3",
    "gf_harm_partial_sum", "gf_harm_series", "gf_mon_closed",
    "gf_mon_closed_m3", "gf_mon_partial_sum", "gf_mon_series", "gf_value",
    "harm_basis", "inner_harm", "inner_mon", "inner_mon_full",
    "iter_multi_indices", "lift_step", "mon_basis", "real_basis",
]
