"""Nonlinear least-squares engine and the spectroscopy fit models."""

from .engine import (FitResult, Identity, Log, Scaled, SingularJacobianError,
                     levenberg_marquardt)
from .models import (ComplexTrace, FullS21Result, LorentzianDipResult,
                     NoDipError, PowerSeries, fit_full_s21, fit_lorentzian_dip,
                     fit_power_frequency, fit_power_inverse_q,
                     fit_tls_saturation)
from .synth import synth_power_series, synth_tls_saturation, synth_trace

__all__ = [
    "ComplexTrace", "FitResult", "FullS21Result", "Identity", "Log",
    "LorentzianDipResult", "NoDipError", "PowerSeries",
    "SingularJacobianError", "fit_full_s21", "fit_lorentzian_dip",
    "fit_power_frequency", "fit_power_inverse_q", "fit_tls_saturation",
    "levenberg_marquardt", "synth_power_series", "synth_tls_saturation",
    "synth_trace",
]
