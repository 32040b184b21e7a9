"""optoresp: optical response of superconducting nanowire microwave resonators.

Modules
-------
resonator       hanger-type S21 model and photon number
tls             TLS physics on one TLS or a bath (TlsUnit), permittivity
                (scipy's complex digamma), saturated spectral diffusion
meanfield       ODE steady-state oracle for the TLS-cavity closed forms
ensemble        analytic bath integrals and the optical-response slopes
montecarlo      stochastic TLS-ensemble simulation of the response curves
superconductor  penetration depth, kinetic inductance, thermal frequency shift
fitkit          Levenberg-Marquardt engine and the spectroscopy fit models
io              the CSV tables and JSON envelopes that cli reads and writes
cli             command-line entry point (``optoresp ...``)
"""

__version__ = "0.1.0"

# cli is imported on first use: importing it here would make
# ``python -m optoresp.cli`` find it in sys.modules before running it
from . import (constants, ensemble, fitkit, io, meanfield, montecarlo,
               resonator, superconductor, tls)

__all__ = ["cli", "constants", "ensemble", "fitkit", "io", "meanfield",
           "montecarlo", "resonator", "superconductor", "tls", "__version__"]
