"""The one range-check vocabulary of the package, and the base class of its
numerical failures.

Every parameter has a closed physical domain [lo, hi], declared once: beside
its dataclass field (:func:`ranged`, checked by :func:`check_fields`), in
its module's ``DOMAINS`` for a function argument, or reused from the field
that declares the same quantity.  :func:`check_range` refuses a value
outside it by name ("omega_r must lie in [6283.19, 6.28319e+15]"); the
command line names the flag, with the bounds in its units.  In-domain values
form no product that overflows or underflows.  Data (samples, series and
table columns) are checked by :func:`check_finite` ("x must be finite").
"""

from dataclasses import MISSING, field, fields
from numbers import Integral

import numpy as np


class NumericalError(ArithmeticError):
    """A numerical method failed: an unsettled ODE, a failed quadrature or a
    singular Jacobian."""


class DomainError(ValueError):
    """A value outside its closed domain (lo, hi), which it carries with its
    name so that a caller can quote the bounds in other units."""

    def __init__(self, name, domain):
        super().__init__(f"{name} must lie in [{domain[0]:g}, {domain[1]:g}]")
        self.name, self.domain = name, domain


def _extremes(value):
    """(min, max) of value by two reductions, with no temporary of its size:
    a NaN propagates to both, and empty input gives (inf, -inf), which passes."""
    return (np.minimum.reduce(value, axis=None, dtype=float, initial=np.inf),
            np.maximum.reduce(value, axis=None, dtype=float, initial=-np.inf))


def check_range(name, value, domain):
    """Raise DomainError unless every element of value (a number, a sequence
    or an array) lies in the closed domain (lo, hi); a NaN lies in none.  An
    integer is compared exactly: in float64, 2**64 rounds onto 2**64 - 1."""
    if isinstance(value, Integral):
        lo = hi = int(value)
    else:
        lo, hi = _extremes(value)
    if not (domain[0] <= lo and hi <= domain[1]):
        raise DomainError(name, domain)


def check_finite(name, values):
    """Raise ValueError("<name> must be finite") unless every value is."""
    lo, hi = _extremes(values)
    if not (-np.inf < lo and hi < np.inf):
        raise ValueError(f"{name} must be finite")


def ranged(lo, hi, default=MISSING, **kwargs):
    """A dataclass field whose values must lie in [lo, hi]."""
    return field(default=default, metadata={"domain": (lo, hi)}, **kwargs)


def domain(cls, name):
    """The (lo, hi) that the parameter class cls declares for field name."""
    return next(f.metadata["domain"] for f in fields(cls) if f.name == name)


def check_fields(obj, names=None):
    """check_range every field of the dataclass obj (or those in names)
    against its declared domain; a field left at a default of None passes."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if (names is None or f.name in names) and not (
                value is None and f.default is None):
            check_range(f.name, value, f.metadata["domain"])
