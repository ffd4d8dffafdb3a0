"""Unit conversions between simulator cycles and wall-clock quantities.

The paper evaluates on an Intel Xeon E5-2650 running at 2.2 GHz, and all of
its bandwidth figures are derived from per-symbol periods expressed in cycles
(e.g. ``Ts = 5500`` cycles at one bit per symbol is 400 Kbps).  This module
centralises that arithmetic so that every experiment converts identically.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError

#: Clock frequency of the paper's evaluation platform (Intel Xeon E5-2650).
CPU_FREQUENCY_HZ: int = 2_200_000_000


def cycles_to_seconds(cycles: float, frequency_hz: float = CPU_FREQUENCY_HZ) -> float:
    """Convert a cycle count to seconds at the given clock frequency."""
    if frequency_hz <= 0:
        raise ConfigurationError(f"frequency must be positive, got {frequency_hz}")
    return cycles / frequency_hz


def cycles_to_kbps(
    period_cycles: float,
    bits_per_symbol: int = 1,
    frequency_hz: float = CPU_FREQUENCY_HZ,
) -> float:
    """Transmission rate in Kbps for one symbol every ``period_cycles``.

    This is the mapping the paper uses implicitly throughout Section 5:
    ``Ts = 5500`` cycles at 2.2 GHz and one bit per symbol is 400 Kbps, and
    ``Ts = 1000`` with two-bit symbols is the headline 4400 Kbps.

    >>> round(cycles_to_kbps(5500))
    400
    >>> round(cycles_to_kbps(1000, bits_per_symbol=2))
    4400
    """
    if period_cycles <= 0:
        raise ConfigurationError(f"period must be positive, got {period_cycles}")
    if bits_per_symbol <= 0:
        raise ConfigurationError(
            f"bits_per_symbol must be positive, got {bits_per_symbol}"
        )
    bits_per_second = bits_per_symbol * frequency_hz / period_cycles
    return bits_per_second / 1000.0


def kbps_to_period_cycles(
    rate_kbps: float,
    bits_per_symbol: int = 1,
    frequency_hz: float = CPU_FREQUENCY_HZ,
) -> int:
    """Inverse of :func:`cycles_to_kbps`: the symbol period for a target rate.

    >>> kbps_to_period_cycles(400)
    5500
    """
    if rate_kbps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_kbps}")
    if bits_per_symbol <= 0:
        raise ConfigurationError(
            f"bits_per_symbol must be positive, got {bits_per_symbol}"
        )
    return round(bits_per_symbol * frequency_hz / (rate_kbps * 1000.0))
