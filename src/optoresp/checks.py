"""The range check of every parameter the package takes, in one place,
and the base class of the package's numerical failures."""

import numpy as np


class NumericalError(ArithmeticError):
    """A numerical method failed: an unsettled ODE, a failed quadrature or a
    singular Jacobian."""


# rule -> whether the minimum lo and maximum hi of the values obey it
RULES = {
    "positive and finite": lambda lo, hi: 0.0 < lo and hi < np.inf,
    "nonnegative and finite": lambda lo, hi: 0.0 <= lo and hi < np.inf,
    "finite": lambda lo, hi: -np.inf < lo and hi < np.inf,
    "positive": lambda lo, hi: 0.0 < lo,  # admits +inf
}


def check_range(name, value, rule="positive and finite"):
    """Raise ValueError("<name> must be <rule>") unless every element of
    value (a number, a sequence or an array) obeys rule: a key of RULES, or
    a closed interval (a, b), worded "<name> must lie in [a, b]".

    One minimum and one maximum reduction decide it, so no temporary of
    value's size is built; a NaN propagates through both and fails every
    rule.  Empty input passes.
    """
    lo = np.minimum.reduce(value, axis=None, dtype=float, initial=np.inf)
    hi = np.maximum.reduce(value, axis=None, dtype=float, initial=-np.inf)
    if isinstance(rule, tuple):
        if not (rule[0] <= lo and hi <= rule[1]):
            raise ValueError(f"{name} must lie in [{rule[0]:g}, {rule[1]:g}]")
    elif not RULES[rule](lo, hi):
        raise ValueError(f"{name} must be {rule}")
