"""Exact valued-field towers.

Valued fields with exact arithmetic, the level-indexed coset algebras
they project onto, min-based extended-value arithmetic as the common
target of all valuations, and the reconstruction of a field's completion
as coherent families of classes, cross-checked against independent digit
and series oracles.

The package root re-exports exactly the names of README's quick tour;
every other name is imported from its module, such as ``hypertower.cosets``.
"""

from .basefields import PadicRationals, QuadraticExtension
from .cosets import coset_eq, coset_of, hyperadd, hypersum_contains
from .limit import (
    from_field,
    hensel_finder,
    limit_arith,
    limit_eq,
    sigma_embed,
    to_approximation,
)

__all__ = [
    "PadicRationals",
    "QuadraticExtension",
    "coset_of",
    "coset_eq",
    "hyperadd",
    "hypersum_contains",
    "sigma_embed",
    "hensel_finder",
    "limit_arith",
    "limit_eq",
    "from_field",
    "to_approximation",
]

__version__ = "0.1.0"
