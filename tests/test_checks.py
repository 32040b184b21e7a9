"""Every parameter dataclass declares a closed domain for each number field
and refuses a value outside it by name, through the one range check of
optoresp.checks, and every numerical failure is a checks.NumericalError."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import optoresp
from optoresp import montecarlo
from optoresp.checks import DomainError, NumericalError, check_finite, check_range
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
    FilmGeometry(1e-8, 1.5e-7),
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


@pytest.mark.parametrize("domain,good,bad", [
    ((0.0, np.inf), [0.0, 1e300, np.inf], [-1e-300, -np.inf]),
    ((math.ulp(0.0), 1.0), [5e-324, 1.0], [0.0, 1.0 + 2**-52]),
    ((-1.0, 0.0), [-1.0, 0.0], [-1.5, 0.5]),
])
def test_check_range_rules(domain, good, bad):
    check_range("v", np.array(good), domain)
    check_range("v", [], domain)  # nothing to refuse
    for value in (*bad, np.nan, np.array([*good, np.nan])):
        with pytest.raises(DomainError, match=r"^v must lie in \[") as err:
            check_range("v", value, domain)
        assert (err.value.name, err.value.domain) == ("v", domain)


def test_check_finite():
    check_finite("v", np.array([-1e300, 0.0, 1e300]))
    check_finite("v", [])  # nothing to refuse
    for value in (np.nan, np.inf, -np.inf, np.array([0.0, np.nan]), [1.0, np.inf]):
        with pytest.raises(ValueError, match="^v must be finite$"):
            check_finite("v", value)


def test_check_range_has_no_default_domain():
    with pytest.raises(TypeError):
        check_range("v", 1.0)


@pytest.mark.parametrize("error", [OdeConvergenceError, QuadratureError,
                                   SingularJacobianError],
                         ids=lambda e: e.__name__)
def test_numerical_failures_share_one_base(error):
    # the CLI reports each as one error line through ArithmeticError
    assert issubclass(error, NumericalError)
    assert issubclass(NumericalError, ArithmeticError)


# the package's dataclasses that hold data or results, whose numbers a
# computation or a file sets; every other one is a parameter class
NOT_PARAMETERS = {"ComplexTrace", "PowerSeries", "McResult", "FitResult",
                  "LorentzianDipResult", "FullS21Result", "SteadyStateResult",
                  "Arg", "Command"}


def _package_dataclasses():
    modules = [importlib.import_module(m.name) for m in pkgutil.walk_packages(
        optoresp.__path__, "optoresp.")]
    return {obj for module in modules for obj in vars(module).values()
            if dataclasses.is_dataclass(obj) and isinstance(obj, type)
            and obj.__module__ == module.__name__}


PARAMETER_CLASSES = sorted(
    (c for c in _package_dataclasses() if c.__name__ not in NOT_PARAMETERS),
    key=lambda c: c.__name__)


def test_parameter_classes_are_found():
    assert {c.__name__ for c in _package_dataclasses()} >= NOT_PARAMETERS
    assert set(PARAMETER_CLASSES) >= {type(obj) for obj in VALID[:-1]}


def _default(f):
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return None if f.default is dataclasses.MISSING else f.default


@pytest.mark.parametrize("cls", PARAMETER_CLASSES, ids=lambda c: c.__name__)
def test_every_field_declares_a_domain_that_holds_its_default(cls):
    # a default lies two decades or more inside each nonzero end; a count
    # may default to its least value (one worker)
    for f in dataclasses.fields(cls):
        assert "domain" in f.metadata, f"{cls.__name__}.{f.name}"
        lo, hi = f.metadata["domain"]
        assert lo < hi, f.name
        default = _default(f)
        if default is None:
            continue
        v = np.asarray(default, dtype=float)
        assert lo <= v.min() and v.max() <= hi, f.name
        if f.type is int:
            continue
        if lo != 0.0:
            assert v.min() >= (100.0 * lo if lo > 0 else lo / 100.0), f.name
        if hi != 0.0:
            assert v.max() <= (hi / 100.0 if hi > 0 else 100.0 * hi), f.name


def test_bath_domains_hold_every_draw_of_a_valid_config():
    # TlsUnit's domains hold ten times McConfig's largest means and window,
    # and a draw reaches at most 6.8 times its mean
    mc = {f.name: f.metadata["domain"] for f in dataclasses.fields(McConfig)}
    unit = {f.name: f.metadata["domain"]
            for f in dataclasses.fields(TlsUnit)}
    for name, mean in (("g_perp", "g_mean"), ("g_par", "g_mean"),
                       ("gamma1", "gamma1_mean"), ("gamma2", "gamma1_mean")):
        np.testing.assert_allclose(unit[name], (0.0, 10.0 * mc[mean][1]),
                                   rtol=1e-15)
    np.testing.assert_allclose(unit["detuning"],
                               np.multiply(10.0, mc["freq_window"]),
                               rtol=1e-15)
    assert unit["ds"] == mc["ds_value"] and unit["s"] == (-1.0, 0.0)
    # the longest reach a valid config draws on
    assert (mc["xi"][1] * mc["p_grid"][1] / 2.0 + 14.0 * mc["l_edge"][1]
            < unit["x"][1])
    # a bath drawn at the top of every spread and rate, over the widest
    # window, is a valid TlsUnit; rho keeps it near 2e4 TLSs
    top = {name: mc[name][1] for name in ("g_mean", "gamma1_mean", "s_std",
                                          "ds_value")}
    cfg = McConfig(omega_max=mc["omega_max"][1], rho_tls=1e41, **top)
    assert 1e4 < len(montecarlo.generate_ensemble(cfg)) < 1e5


@pytest.mark.parametrize("name", ["trials", "workers"])
def test_counts_far_past_any_run_are_refused_at_construction(name):
    # before run spawns a seed per trial or starts a thread per worker
    with pytest.raises(ValueError, match=f"^{name} must lie in "):
        McConfig(**{name: 10**11})


def test_integers_are_compared_exactly():
    # in float64 2**64 rounds onto the seed domain's top 2**64 - 1
    top, message = 2**64 - 1, r"^seed must lie in \[0, 1\.84467e\+19\]$"
    for value in (top, np.uint64(top), 0, np.int64(0)):
        check_range("seed", value, (0, top))
    McConfig(seed=top)
    for value in (top + 1, -1, np.int64(-1)):
        with pytest.raises(DomainError, match=message):
            check_range("seed", value, (0, top))
    with pytest.raises(DomainError, match=message):
        McConfig(seed=top + 1)
