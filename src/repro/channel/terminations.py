"""The swing of a current-mode driver into a terminated line.

The last driver stage of the paper sources ~8 mA into a 50 ohm load
for a 250 mV swing; this is the bookkeeping that claim rests on.
"""

from __future__ import annotations

__all__ = ["cml_output_swing"]

Z0_DEFAULT = 50.0


def cml_output_swing(tail_current: float, load_ohm: float = Z0_DEFAULT,
                     double_terminated: bool = True) -> float:
    """Single-ended output swing of a CML driver.

    A CML output switches its tail current into the load.  With double
    termination (on-chip 50 ohm in parallel with the far-end 50 ohm) the
    effective load is ``load/2``:  8 mA * 25 ohm = 200 mV; the paper's
    "approximately 8 mA ... output swing range up to 250 mV" corresponds
    to the lightly-loaded/single-termination end of that range
    (8 mA * 31 ohm) — both regimes are reachable with this helper.
    """
    if tail_current <= 0:
        raise ValueError(f"tail_current must be positive, got {tail_current}")
    if load_ohm <= 0:
        raise ValueError(f"load must be positive, got {load_ohm}")
    r_eff = load_ohm / 2.0 if double_terminated else load_ohm
    return tail_current * r_eff
