"""Physical constants (CODATA 2018) and the dBm-to-watt conversion.

Internal convention: every rate and frequency inside the library is angular
(rad/s).  Hz, GHz, MHz and dBm appear only at the I/O boundary.
"""

import numpy as np

HBAR = 1.054571817e-34   # J s
K_B = 1.380649e-23       # J/K
PLANCK = 6.62607015e-34  # J s
MU_0 = 1.25663706212e-6  # H/m

TWO_PI = 2.0 * np.pi


def dbm_to_watts(p_dbm):
    """P[W] = 10^((P[dBm] - 30)/10)."""
    return 10.0 ** ((np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)

