"""Tensor squares, exterior squares and Schur multipliers of odd-order
metacyclic groups: closed-form presentations with independent
verification by an exact relation-lattice oracle and by coset
enumeration."""

__version__ = "0.1.0"

from .errors import (
    FormulaInconsistencyError,
    OutOfScopeError,
    ResourceLimitError,
    TensqError,
    ValidationError,
)


# metagrp's names are loaded on first access (PEP 562), so importing the
# package, or the CLI for --version, does not load the group layers.
def __getattr__(name):
    if name in ("Element", "GroupParams", "validate"):
        from . import metagrp

        return getattr(metagrp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Element",
    "FormulaInconsistencyError",
    "GroupParams",
    "OutOfScopeError",
    "ResourceLimitError",
    "TensqError",
    "ValidationError",
    "validate",
    "__version__",
]
