"""Levenberg-Marquardt least squares over MINPACK's ``lmder``.

Minimizes 0.5 * ||r(x)||^2 for a user residual and its analytic Jacobian
with ``scipy.optimize.leastsq``, which hands both to MINPACK's ``lmder``.
Complex-valued data is handled by the model layer (real and imaginary
residuals stacked), so the engine only ever sees real vectors.

The Jacobian is parameter-major: ``jac(x)`` returns an (n, m) array, one
contiguous row of m residual derivatives per parameter.  That is MINPACK's
column-major ``fjac``, so ``leastsq(col_deriv=True)`` copies it in without
a transpose.

Internal coordinates: parameter bounds are enforced by smooth
reparameterizations (log for positive quantities, a fixed scale for
unbounded quantities far from O(1)) rather than clipping, which keeps the descent surface differentiable.  MINPACK
works on the internal coordinates u, x = t(u) per parameter; the Jacobian
is mapped by the chain rule, dr/du = dr/dx * t'(u), row by row, and MINPACK
scales each coordinate by the norm of its Jacobian row (``diag=None``).

Termination is MINPACK's: relative cost reduction below ftol, relative step
below xtol, or every parameter's Jacobian row nearly orthogonal to the
residual (cosine below gtol), all at 1e-8; or 100 residual evaluations per
parameter.  The stop message is scipy's least-squares text for MINPACK's
stop code.  Non-convergence, including a stop at a
non-finite point, is reported as a flag on the result, not an exception;
SingularJacobianError is reserved for a Jacobian that vanishes identically
at a nonzero-residual stop (rank deficiency is flagged, with a
pseudoinverse covariance).

The residual and the Jacobian each remember their last point: leastsq
evaluates both at the start point to check their shapes, and lmder then
asks for them there again, so ``nfev`` counts distinct residual
evaluations.  The point is kept as a list of floats and compared with
``!=``, which decides as ``np.array_equal`` does: a point holding NaN never
matches, and -0.0 matches 0.0.  A remembered array is returned itself, not
a copy: neither the engine nor scipy's wrapper writes to it.  ``jac`` must
return a new array at each call, as the engine scales its rows in place.

The covariance makes one tall (m, n) copy of the final Jacobian, which
serves both the rank check's singular values and the Gram product J^T J.

scipy loads on first use: ``leastsq`` is imported inside
:func:`levenberg_marquardt`, so importing this module loads numpy only.
"""

from dataclasses import dataclass, field

import numpy as np

from ..checks import NumericalError


class SingularJacobianError(NumericalError):
    """Normal equations unsolvable: Jacobian rank collapsed."""


# --- parameter transforms --------------------------------------------------

class Identity:
    def to_internal(self, x):
        return float(x)

    def to_external(self, u):
        return float(u)

    def jacobian_factor(self, u):
        """d external / d internal at internal coordinate u."""
        return 1.0


class Scaled(Identity):
    """Unbounded parameter with a natural scale; internal coordinate is x/scale.

    Keeps internal coordinates O(1) so MINPACK's relative step test behaves
    for parameters like cable delays (seconds, values ~1e-9).
    """

    def __init__(self, scale):
        self.scale = float(scale)  # a positive constant of the fit model

    def to_internal(self, x):
        return float(x) / self.scale

    def to_external(self, u):
        return float(u) * self.scale

    def jacobian_factor(self, u):
        return self.scale


class Log(Identity):
    """Strictly positive parameter; internal coordinate is ln(x)."""

    def to_internal(self, x):
        if x <= 0:
            raise ValueError(f"log-transformed parameter must be > 0, got {x}")
        return float(np.log(x))

    def to_external(self, u):
        return float(np.exp(u))

    def jacobian_factor(self, u):
        return float(np.exp(u))


def _remember_last(f):
    """f of a 1-D float array, with its last point and value remembered: a
    point equal to the last one is served the remembered value itself."""
    last = [None, None]

    def g(uv):
        key = uv.tolist()
        if key != last[0]:
            last[:] = key, f(uv)
        return last[1]
    return g


@dataclass
class FitResult:
    names: list
    values: np.ndarray
    covariance: np.ndarray | None
    cost: float
    converged: bool
    iterations: int     # Jacobian evaluations
    nfev: int           # residual evaluations
    message: str = ""
    flags: list = field(default_factory=list)

    def __getitem__(self, name):
        return float(self.values[self.names.index(name)])

    def uncertainty(self, name):
        if self.covariance is None:
            return np.nan
        i = self.names.index(name)
        return float(np.sqrt(max(self.covariance[i, i], 0.0)))


# MINPACK's stop code (ier) -> scipy's least-squares message: ier 1-4 are
# its successes.  ier 6-8 (a tolerance below machine precision) cannot
# occur, as each test is met by ier 1, 2 or 4 first at tolerances of 1e-8.
_STOP_MESSAGES = {
    0: "Improper input parameters status returned from `leastsq`",
    1: "`ftol` termination condition is satisfied.",
    2: "`xtol` termination condition is satisfied.",
    3: "Both `ftol` and `xtol` termination conditions are satisfied.",
    4: "`gtol` termination condition is satisfied.",
    5: "The maximum number of function evaluations is exceeded.",
}


def levenberg_marquardt(residual, x0, jac, names=None, transforms=None):
    """Minimize 0.5 ||residual(x)||^2 from x0.

    Parameters
    ----------
    residual : callable(x) -> (m,) array of residuals (external coordinates).
    jac : callable(x) -> (n, m) Jacobian of the residual in external
        coordinates, rows by parameter: row i is d residual / d x_i.  A new
        array at each call; the engine scales it in place.
    transforms : per-parameter Identity/Scaled/Log instances, or
        None for Identity throughout.

    Returns
    -------
    FitResult: ``converged`` is MINPACK's success at a finite point,
    ``message`` its stop reason.
    """
    from scipy.optimize import leastsq

    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    names = list(names) if names is not None else [f"p{i}" for i in range(n)]
    transforms = list(transforms) if transforms is not None else [Identity()] * n
    if len(transforms) != n or len(names) != n:
        raise ValueError("names/transforms length mismatch")

    def external(uv):
        return np.array([t.to_external(ui) for t, ui in zip(transforms, uv)])

    nfev = 0

    @_remember_last
    def res_u(uv):
        nonlocal nfev
        nfev += 1
        return np.asarray(residual(external(uv)), dtype=float)

    u = np.array([t.to_internal(v) for t, v in zip(transforms, x0)])
    r = res_u(u)
    m = r.size
    if not np.all(np.isfinite(r)):
        raise ValueError("residual not finite at the initial point")
    if np.any(r) and m < n:
        raise ValueError("Method 'lm' doesn't work when the number of "
                         "residuals is less than the number of variables.")

    @_remember_last
    def jac_u(uv):
        j = np.asarray(jac(external(uv)), dtype=float)
        if j.shape != (n, m):
            raise ValueError(f"jac must return an (n, m) = ({n}, {m}) array, "
                             f"one row per parameter, not {j.shape}")
        j *= np.array([t.jacobian_factor(ui)
                       for t, ui in zip(transforms, uv)])[:, None]
        return j

    if np.any(r):
        u, _, info, _, ier = leastsq(res_u, u, Dfun=jac_u, full_output=True,
                                     col_deriv=True, ftol=1e-8, xtol=1e-8,
                                     gtol=1e-8, maxfev=100 * n)
        r = info["fvec"]
        finite = bool(np.all(np.isfinite(u)) and np.all(np.isfinite(r)))
        converged, iterations = finite and 1 <= ier <= 4, int(info["njev"])
        message = (_STOP_MESSAGES[ier] if finite
                   else "stopped at a non-finite point")
    else:
        converged, iterations, message = True, 0, "zero residual"
    cost = 0.5 * float(r @ r)
    cov, flags = _covariance(jac_u(u), r, transforms, u, cost)
    return FitResult(names=names, values=external(u), covariance=cov,
                     cost=cost, converged=converged, iterations=iterations,
                     nfev=nfev, message=message, flags=flags)


def _covariance(j, r, transforms, u, cost):
    """Covariance in external coordinates from the (n, m) internal-coordinate
    Jacobian j."""
    n, m = j.shape
    flags = []
    if not np.all(np.isfinite(j)):
        return None, ["jacobian_nonfinite"]
    # one C-contiguous (m, n) copy, made first: LAPACK takes the singular
    # values of this tall layout 2-3x faster than of the wide (n, m) one, and
    # its BLAS product J^T J keeps the covariance's bits, where the (n, m)
    # layout's product differs in the last bits
    j = np.ascontiguousarray(j.T)
    sv = np.linalg.svd(j, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        if cost > 0.0:
            raise SingularJacobianError(
                "Jacobian identically zero at a nonzero-residual optimum")
        return None, ["zero_jacobian"]
    if sv[-1] < 1e-12 * sv[0]:
        flags.append("rank_deficient")
    dof = max(m - n, 1)
    s2 = float(r @ r) / dof
    cov_int = np.linalg.pinv(j.T @ j) * s2
    # map internal covariance to external coordinates: x = f(u), dx = f'(u) du
    factors = np.array([t.jacobian_factor(ui) for t, ui in zip(transforms, u)])
    cov = cov_int * np.outer(factors, factors)
    return cov, flags
