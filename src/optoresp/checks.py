"""The range check of every parameter the package takes, in one place,
and the base class of the package's numerical failures.

Each number field of a parameter class declares its closed physical domain
[lo, hi] once, beside the field (:func:`ranged`), and the class's
``__post_init__`` checks them all through :func:`check_fields`.  The domains
are chosen so that no product the package forms of in-domain values
overflows or underflows: a value outside its domain is refused under its own
name ("omega_r must lie in [6283.19, 6.28319e+15]"), and the command line
names the flag that sets it, with the bounds in the flag's units.
"""

from dataclasses import MISSING, field, fields

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


# rule -> whether the minimum lo and maximum hi of the values obey it
RULES = {
    "positive and finite": lambda lo, hi: 0.0 < lo and hi < np.inf,
    "nonnegative and finite": lambda lo, hi: 0.0 <= lo and hi < np.inf,
    "finite": lambda lo, hi: -np.inf < lo and hi < np.inf,
}


def check_range(name, value, rule="positive and finite"):
    """Raise ValueError("<name> must be <rule>") unless every element of
    value (a number, a sequence or an array) obeys rule: a key of RULES, or
    a closed interval (a, b), refused as DomainError, worded "<name> must
    lie in [a, b]".

    One minimum and one maximum reduction decide it, so no temporary of
    value's size is built; a NaN propagates through both and fails every
    rule.  Empty input passes.
    """
    lo = np.minimum.reduce(value, axis=None, dtype=float, initial=np.inf)
    hi = np.maximum.reduce(value, axis=None, dtype=float, initial=-np.inf)
    if isinstance(rule, tuple):
        if not (rule[0] <= lo and hi <= rule[1]):
            raise DomainError(name, rule)
    elif not RULES[rule](lo, hi):
        raise ValueError(f"{name} must be {rule}")


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
