"""Physical constants (SI).  Since the 2019 redefinition of the SI units,
h, kB and c are exact by definition, so these are their defining values."""

import math

HBAR = 6.62607015e-34 / (2.0 * math.pi)  # J s
KB = 1.380649e-23  # J / K
C_LIGHT = 299792458.0  # m / s

TWO_PI = 6.283185307179586

__all__ = ["HBAR", "KB", "C_LIGHT", "TWO_PI"]
