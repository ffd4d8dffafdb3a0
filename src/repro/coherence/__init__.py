"""Multi-core cache coherence: MESI states, directory, coherent hierarchy.

The paper measures its dirty-state channel inside one SMT core, where the
sender and receiver share an L1D.  This package models the *cross-core*
variant: N cores with private L1Ds over a shared inclusive L2, kept
coherent by a MESI-style directory protocol.  Coherence-induced
write-backs — a Modified line downgraded by another core's read (M→S) or
write (M→I) — drain through the same write-back timing machinery the
single-core channel measures, so the dirty state stays timing-visible
across cores (see :mod:`repro.channels.wb.cross_core`).

Public surface:

=====================================  ====================================
:class:`~repro.coherence.mesi.MESIState`        per-line M/E/S/I states
:class:`~repro.coherence.mesi.Directory`        who holds which line, in
                                                which state
:class:`~repro.coherence.mesi.CoherenceStats`   protocol event counters
:class:`~repro.coherence.hierarchy.CoherentHierarchy`  N private L1s over
                                                shared levels
:func:`~repro.coherence.hierarchy.make_coherent_hierarchy`  builder used
                                                by ``HierarchyParams.build``
=====================================  ====================================
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "mesi": ("CoherenceStats", "Directory", "MESIState"),
        "hierarchy": ("CoherentHierarchy", "make_coherent_hierarchy"),
    },
)
