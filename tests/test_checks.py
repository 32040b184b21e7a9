"""Every parameter dataclass refuses a non-finite float field by name, through
the one range check of optoresp.checks, and every numerical failure is a
checks.NumericalError."""

import dataclasses

import numpy as np
import pytest

from optoresp.checks import NumericalError, check_range
from optoresp.ensemble import EnsembleParams
from optoresp.fitkit import PowerSeries, SingularJacobianError
from optoresp.meanfield import OdeConvergenceError
from optoresp.montecarlo import McConfig
from optoresp.resonator import DriveCondition, LineCalibration, ResonatorMode
from optoresp.superconductor import FilmGeometry, SuperconductorParams
from optoresp.tls import (QuadratureError, SaturationDrive, ThermalEnvironment,
                          TlsHostMaterial, TlsUnit)

VALID = [
    EnsembleParams(),
    McConfig(),
    TlsUnit(detuning=1e6, g_perp=3e7, g_par=3e7, gamma1=1e8, gamma2=1e8,
            s=-0.5, ds=1e-9, x=1e-6),
    ThermalEnvironment(0.1),
    TlsHostMaterial(3e-5),
    SaturationDrive(1.0),
    ResonatorMode(5e9, 2e4, 1e3, 10.0),
    LineCalibration(1.0, 1e-9, 0.1),
    DriveCondition(1e-12, 5e9),
    FilmGeometry(1e-8, 1.5e-7, 1.5e-3),
    SuperconductorParams(7.2e-7, 14.0, 1e-3),
    PowerSeries(np.array([0.0, 1e-9]), np.array([1e-5, 2e-5]),
                np.array([0.0, -1e-6]), np.array([1e-7, 2e-7]), np.zeros(2)),
]

# (instance, field) for every float or float-array field of each dataclass
FIELDS = [(obj, f.name) for obj in VALID for f in dataclasses.fields(obj)
          if np.asarray(getattr(obj, f.name)).dtype == float]
NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("obj,name", FIELDS, ids=lambda v: (
    v if isinstance(v, str) else type(v).__name__))
def test_dataclasses_refuse_non_finite_fields_by_name(obj, name, value):
    if (type(obj), name, value) == (McConfig, "half_length", np.inf):
        dataclasses.replace(obj, half_length=np.inf)  # drawn on the reach
        return
    with pytest.raises(ValueError, match=f"^{name} must "):
        dataclasses.replace(obj, **{name: value})


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("name", ["f_r", "q_int", "q_ext_mag", "phi"])
def test_asymmetry_angle_refuses_non_finite_arguments(name, value):
    kwargs = {"f_r": 5e9, "q_int": 2e4, "q_ext_mag": 1e3, "phi": 0.3}
    with pytest.raises(ValueError, match=f"^{name} must "):
        ResonatorMode.from_asymmetry_angle(**{**kwargs, name: value})


@pytest.mark.parametrize("rule,good,bad", [
    ("positive and finite", [1e-300, 1e300], [0.0, np.inf]),
    ("nonnegative and finite", [0.0, 1e300], [-1e-300, np.inf]),
    ("finite", [-1e300, 1e300], [-np.inf, np.inf]),
    ("positive", [1e-300, np.inf], [0.0, -np.inf]),
    ((-1.0, 0.0), [-1.0, 0.0], [-1.5, 0.5]),
])
def test_check_range_rules(rule, good, bad):
    check_range("v", np.array(good), rule)
    check_range("v", [], rule)  # nothing to refuse
    for value in (*bad, np.nan, np.array([*good, np.nan])):
        with pytest.raises(ValueError, match="^v must (be|lie in) "):
            check_range("v", value, rule)


@pytest.mark.parametrize("error", [OdeConvergenceError, QuadratureError,
                                   SingularJacobianError],
                         ids=lambda e: e.__name__)
def test_numerical_failures_share_one_base(error):
    # the CLI reports each as one error line through ArithmeticError
    assert issubclass(error, NumericalError)
    assert issubclass(NumericalError, ArithmeticError)
