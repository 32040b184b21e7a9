"""Each argument of a library function that no dataclass field holds takes a
closed domain, declared once in its module's DOMAINS or reused from the field
that declares the same quantity: a value just outside it is refused as
DomainError under the argument's name, and at each end the function returns
a finite value or fails as a ValueError or a NumericalError, never as a bare
ZeroDivisionError, OverflowError or LinAlgError."""

import math

import numpy as np
import pytest

from optoresp import meanfield, montecarlo, tls
from optoresp.checks import DomainError, NumericalError, domain
from optoresp.constants import TWO_PI
from optoresp.ensemble import EnsembleParams
from optoresp.fitkit import ComplexTrace, fit_full_s21, synth_tls_saturation
from optoresp.fitkit.synth import DOMAINS as SYNTH_DOMAINS
from optoresp.meanfield import OdeConvergenceError, steady_state_by_integration
from optoresp.resonator import ResonatorMode
from optoresp.tls import (SaturationDrive, ThermalEnvironment, TlsHostMaterial,
                          TlsUnit, kramers_kronig_real_part,
                          spectral_diffusion_loss)

MHZ = TWO_PI * 1e6
G2 = 16 * MHZ
RHO_V = 1e45 * 5e-23  # J^-1
ENV, HOST = ThermalEnvironment(0.1), TlsHostMaterial(intrinsic_loss=3e-5)


def _tls(**kw):
    base = dict(detuning=0.0, g_perp=0.5 * MHZ, g_par=0.5 * MHZ, gamma1=G2,
                gamma2=G2, s=-1.0, ds=1.0 / (TWO_PI * 400e6))
    base.update(kw)
    return TlsUnit(**base)


def _relaxing(gamma1):
    return _tls(gamma1=gamma1, gamma2=max(G2, gamma1))


def _sd(tls_=None, sigma_sd=16 * MHZ, rho_v=RHO_V):
    return spectral_diffusion_loss(tls_ or _tls(), SaturationDrive(1.0),
                                   sigma_sd, rho_v)


def _mf(mode, tls_=None, omega_r=TWO_PI * 7e9, kappa_tot=G2 / 100):
    res = steady_state_by_integration(tls_ or _tls(), omega_r, kappa_tot, mode)
    return res.extra_loss, res.shift


# (case, parameter, its domain, the call at a value of it)
SWEEP = [
    ("kk", "f", domain(ResonatorMode, "f_r"),
     lambda v: kramers_kronig_real_part(v, ENV, HOST)),
    ("kk", "f_cutoff", tls.DOMAINS["f_cutoff"],
     lambda v: kramers_kronig_real_part(5e9, ENV, HOST, f_cutoff=v)),
    ("sd", "sigma_sd", tls.DOMAINS["sigma_sd"], lambda v: _sd(sigma_sd=v)),
    ("sd", "rho_v", tls.DOMAINS["rho_v"], lambda v: _sd(rho_v=v)),
    ("sd", "gamma1", tls.DOMAINS["gamma1"], lambda v: _sd(_relaxing(v))),
    *((mode, "gamma1", tls.DOMAINS["gamma1"],
       lambda v, mode=mode: _mf(mode, _relaxing(v)))
      for mode in ("transverse", "longitudinal")),
    *((mode, "kappa_tot", meanfield.DOMAINS["kappa_tot"],
       lambda v, mode=mode: _mf(mode, kappa_tot=v))
      for mode in ("transverse", "longitudinal")),
    *((mode, "omega_r", domain(EnsembleParams, "omega_r"),
       lambda v, mode=mode: _mf(mode, omega_r=v))
      for mode in ("transverse", "longitudinal")),
    ("kernel", "l_edge", domain(montecarlo.McConfig, "l_edge"),
     lambda v: montecarlo.kernel(np.array([0.0, 1e-6]), 1e-7, 50.0, v)),
    ("synth", "noise_rel", SYNTH_DOMAINS["noise_rel"],
     lambda v: synth_tls_saturation(np.logspace(0, 3, 6), 1e-5, 10.0, 1.0,
                                    1e-6, noise_rel=v)[1]),
    ("synth", "seed", SYNTH_DOMAINS["seed"],
     lambda v: synth_tls_saturation(np.logspace(0, 3, 6), 1e-5, 10.0, 1.0,
                                    1e-6, seed=v)[1]),
]
SWEEP_IDS = [f"{case}-{name}" for case, name, _, _ in SWEEP]


@pytest.mark.parametrize("case,name,bounds,call", SWEEP, ids=SWEEP_IDS)
def test_each_domain_end_runs_or_fails_by_name(case, name, bounds, call):
    for end, other in (bounds, bounds[::-1]):
        inward = end + 1e-9 * abs(end) * (1.0 if other > end else -1.0)
        try:
            value = call(inward)
        except (ValueError, NumericalError):
            continue
        assert np.all(np.isfinite(value)), (name, inward, value)


@pytest.mark.parametrize("case,name,bounds,call", SWEEP, ids=SWEEP_IDS)
def test_just_outside_each_domain_end_is_refused_by_name(case, name, bounds,
                                                         call):
    # the end passed is the one refused (a TlsUnit refuses gamma1 past its
    # own top, which the oracles share)
    for end, outside in ((0, np.nextafter(bounds[0], -np.inf)),
                         (1, np.nextafter(bounds[1], np.inf)), (None, np.nan)):
        with pytest.raises(DomainError, match=f"^{name} must lie in ") as err:
            call(outside)
        assert end is None or err.value.domain[end] == bounds[end]


def test_synth_seed_takes_the_monte_carlo_seed_domain():
    assert SYNTH_DOMAINS["seed"] == domain(montecarlo.McConfig, "seed")


# inputs that ran to a bare arithmetic error, a nan or a wrong-signed result
@pytest.mark.parametrize("name,call", [
    ("f", lambda: kramers_kronig_real_part(1e-300, ENV, HOST)),
    ("f", lambda: kramers_kronig_real_part(1e300, ENV, HOST)),
    ("f_cutoff", lambda: kramers_kronig_real_part(5e9, ENV, HOST,
                                                  f_cutoff=1e300)),
    ("kappa_tot", lambda: _mf("transverse", kappa_tot=1e300)),
    ("omega_r", lambda: _mf("longitudinal", omega_r=np.nan)),
    ("omega_r", lambda: _mf("longitudinal", omega_r=-1.0)),
    ("rho_v", lambda: _sd(rho_v=-1e300)),
    ("noise_rel", lambda: synth_tls_saturation(np.logspace(0, 3, 6), 1.0,
                                               10.0, 1.0, 0.0, noise_rel=1e300)),
    ("l_edge", lambda: montecarlo.kernel(0.0, 1e-7, 50.0, 1e300)),
], ids=["f-1e-300", "f-1e300", "f_cutoff-1e300", "kappa_tot-1e300",
        "omega_r-nan", "omega_r-minus1", "rho_v-minus1e300", "noise_rel-1e300",
        "l_edge-1e300"])
def test_inputs_past_a_domain_are_refused_by_name(name, call):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.name == name


@pytest.mark.parametrize("noise", [np.nan, -1e-3, np.inf])
def test_trace_noise_std_is_checked(noise):
    # a NaN or negative noise_std reached fit_full_s21's weights
    f = np.linspace(4.99e9, 5.01e9, 11)
    ns = np.full(f.size, 1e-3)
    ns[3] = noise
    with pytest.raises(ValueError, match="^noise_std must ") as err:
        fit_full_s21(ComplexTrace(f, np.ones(f.size, dtype=complex), ns))
    if math.isnan(noise) or math.isinf(noise):
        assert str(err.value) == "noise_std must be finite"
    else:
        assert str(err.value) == "noise_std must lie in [0, inf]"


def test_field_that_underflows_within_the_horizon_raises():
    # a TLS loss 3e4 times kappa_tot drops the field below the least double
    # within HORIZON/kappa_tot; the fit on log |c| read -inf
    with pytest.raises(OdeConvergenceError, match="underflowed"):
        _mf("transverse", kappa_tot=TWO_PI * 1.0)
