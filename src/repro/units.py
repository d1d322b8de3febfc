"""Time and frequency units used throughout the library.

Every duration in this code base is a ``float`` measured in **picoseconds**
and every frequency is a ``float`` measured in **megahertz**.  Keeping a
single unit convention avoids the classic EDA bug of mixing nanosecond
netlist delays with picosecond jitter figures.  This module owns the
conversions so that magic constants never appear at call sites.

The conversion constant between the two conventions is::

    period [ps] * frequency [MHz] = 1e6

because 1 MHz corresponds to a period of 1 us = 1e6 ps.
"""

from __future__ import annotations

#: Picoseconds per microsecond.
PS_PER_US: float = 1_000_000.0

#: ``period_ps * freq_mhz`` for any periodic signal.
_MHZ_PS_PRODUCT: float = 1e6


def mhz_to_period_ps(freq_mhz: float) -> float:
    """Return the period in picoseconds of a signal of ``freq_mhz`` MHz.

    >>> mhz_to_period_ps(500.0)
    2000.0
    """
    if freq_mhz <= 0.0:
        raise ValueError(f"frequency must be positive, got {freq_mhz} MHz")
    return _MHZ_PS_PRODUCT / freq_mhz


def period_ps_to_mhz(period_ps: float) -> float:
    """Return the frequency in MHz of a signal with period ``period_ps``.

    >>> period_ps_to_mhz(2000.0)
    500.0
    """
    if period_ps <= 0.0:
        raise ValueError(f"period must be positive, got {period_ps} ps")
    return _MHZ_PS_PRODUCT / period_ps
