"""Exact Gelfand-Tsetlin bases of spherical harmonics and spherical monogenics.

The package constructs the standard orthogonal bases in R^m with exact
rational / Clifford arithmetic, evaluates their generating functions both in
closed form and as truncated series, and ships a verification suite that
machine-checks every identity the construction rests on.
"""

from .ballint import (gamma_half, inner_harm, inner_mon, inner_mon_full,
                      monomial_ball_integral, pi_power)
from .clifford import Multivector, blade_name, blade_product
from .errors import DomainError, SingularityError
from .gegenbauer import GegenbauerPoly, gegenbauer_poly, gf_value, series_oracle
from .harmonics import (FACTORIAL, PLAIN, BasisIndex, DomainBox, embedding_F,
                        embedding_f_value, enumerate_harm_indices, gf_harm_closed,
                        gf_harm_closed_m3, gf_harm_partial_sum, gf_harm_series,
                        harm_basis, iter_multi_indices, real_basis)
from .hseries import HSeries, binomial_expand, exp_series, lift_step, power_series
from .monogenics import (MonIndex, embedding_X, embedding_x_value,
                         enumerate_mon_indices, gf_mon_closed, gf_mon_closed_m3,
                         gf_mon_partial_sum, gf_mon_series, mon_basis)
from .mvpoly import CLIFFORD, GAUSSIAN, MPoly, radius_squared
from .scalars import GaussianRational, PiScaled, binom_frac, make_gaussian

__version__ = "0.1.0"

__all__ = [
    "BasisIndex", "CLIFFORD", "DomainBox", "DomainError", "FACTORIAL",
    "GAUSSIAN", "GaussianRational", "GegenbauerPoly", "HSeries",
    "MPoly", "MonIndex", "Multivector", "PLAIN", "PiScaled",
    "SingularityError", "binom_frac", "binomial_expand", "blade_name",
    "blade_product", "embedding_F", "embedding_X", "embedding_f_value",
    "embedding_x_value", "enumerate_harm_indices", "enumerate_mon_indices",
    "exp_series", "gamma_half", "gegenbauer_poly",
    "gf_harm_closed", "gf_harm_closed_m3", "gf_harm_partial_sum",
    "gf_harm_series", "gf_mon_closed", "gf_mon_closed_m3",
    "gf_mon_partial_sum", "gf_mon_series", "gf_value", "harm_basis",
    "inner_harm", "inner_mon", "inner_mon_full", "iter_multi_indices",
    "lift_step", "make_gaussian", "mon_basis", "monomial_ball_integral",
    "pi_power", "power_series", "radius_squared", "real_basis", "series_oracle",
]
