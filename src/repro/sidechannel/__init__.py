"""Side-channel attacks built on the WB primitive (Section 9).

When a victim's memory behaviour depends on a secret, the covert-channel
receiver machinery turns into a side channel.  The paper gives two victim
gadgets (Listing 2) and three attack scenarios; this package implements
all of them against the simulated hierarchy:

1. dirty-state attack — victim gadget (a) stores on ``secret == 1``; the
   attacker reads the secret from the target set's replacement latency;
2. dirty-eviction attack — victim gadget (b) only *loads*; the attacker
   pre-fills the set with dirty lines and detects the victim's eviction
   by the drop in replacement latency;
3. execution-time attack — the attacker times the victim call itself,
   which is slower when it must replace one of the attacker's dirty lines.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "victim": ("VictimGadgetA", "VictimGadgetB", "VictimContext"),
        "attacks": (
            "AttackResult",
            "dirty_eviction_attack",
            "dirty_state_attack",
            "execution_time_attack",
        ),
        "rsa_victim": (
            "KeyRecoveryResult",
            "SquareAndMultiplyVictim",
            "recover_exponent",
        ),
    },
)
