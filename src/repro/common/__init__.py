"""Shared utilities used across every subsystem of the reproduction.

The :mod:`repro.common` package deliberately has no dependency on any other
``repro`` subpackage so that it can be imported from anywhere without risking
import cycles.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "canonical": ("canonical_digest", "canonical_json"),
        "errors": (
            "ConfigurationError",
            "ProtocolError",
            "ReproError",
            "SimulationError",
        ),
        "units": (
            "CPU_FREQUENCY_HZ",
            "cycles_to_kbps",
            "cycles_to_seconds",
            "kbps_to_period_cycles",
        ),
        "bits": (
            "bits_to_int",
            "bits_to_string",
            "chunk_bits",
            "hamming_distance",
            "int_to_bits",
            "random_bits",
        ),
        "rng": ("derive_rng", "derive_seed", "ensure_rng"),
    },
)
