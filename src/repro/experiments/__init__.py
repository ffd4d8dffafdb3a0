"""Experiment modules: one per table/figure of the paper's evaluation.

============================  ==============================================
Experiment id                 Paper artifact
============================  ==============================================
``table2``                    Table 2  (eviction probability vs N)
``table4``                    Table 4  (latency classes)
``table5``                    Table 5  (random replacement probabilities)
``table6``                    Table 6  (sender miss rates / stealthiness)
``table7``                    Table 7  (sender loads per ms, WB vs LRU)
``fig4``                      Figure 4 (latency CDFs per dirty count)
``fig5``                      Figure 5 (binary traces @ 400 Kbps)
``fig6``                      Figure 6 (BER vs rate, binary)
``fig7``                      Figure 7 (multi-bit trace @ 1100 Kbps)
``fig8``                      Figure 8 (BER vs rate, 2-bit symbols)
``random_policy``             Section 6.1 (channel under random policy)
``stability``                 Section 6 / Figure 9 (noise robustness)
``defenses``                  Section 8 (defense evaluation)
``sidechannel``               Section 9 (side-channel scenarios)
``online_detection``          Section 7 (stealth against online detectors)
``extension_3bit``            Section 4 (three bits per symbol)
``extension_l2``              Section 3 (the channel on the L2 cache)
``cross_core_wb``             Extension (the channel across cores, via MESI)
``closed_loop_defense``       Extension (fused detection flips a defense)
``fault_tolerance``           Extension (injected faults, hardened protocol)
``ablation_errors``           Ablation (sources of bit errors)
``ablation_replacement_set``  Ablation (replacement-set size L)
============================  ==============================================

Run from Python via :func:`run_experiment`, or from the shell via
``python -m repro.experiments`` (alias ``wb-experiments``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("SCHEMA_VERSION", "ExperimentResult"),
        "profiles": (
            "FULL",
            "QUICK",
            "ProfileLike",
            "RunProfile",
            "available_profiles",
            "resolve_profile",
        ),
        "registry": ("available_experiments", "run_experiment"),
    },
)
