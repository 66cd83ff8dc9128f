"""Statistical eye/BER engine (StatEye-style peak-distortion analysis).

The time-domain path (``repro.link``) estimates BER by simulating
patterns — exact waveform physics, but tails below ~1e-6 are
unreachable by construction.  This package computes the *exact* sampled
amplitude distribution from the single-symbol pulse response instead:
per-cursor ISI level-set PDFs convolved on a fixed voltage grid,
Gaussian noise and dual-Dirac + Gaussian jitter folded in, yielding
full per-sub-eye BER(t, v) surfaces, statistical eye contours, bathtub
curves and BERs in milliseconds per scenario, vectorized over batches.
The reported BER is checked against error counting at BER ~2.5e-3;
the deep tails are not verified (see :mod:`repro.stateye.engine`).

Entry points:

* :class:`StatEye` — the engine (``analyze`` / ``analyze_batch``);
* :meth:`repro.link.LinkSession.statistical_eye` — the facade mode;
* :class:`StatEyeResult` / :class:`StatEyeBatchResult` — typed results.
"""

from .engine import StatEye
from .result import StatEyeBatchResult, StatEyeResult

__all__ = [
    "StatEye",
    "StatEyeResult",
    "StatEyeBatchResult",
]
