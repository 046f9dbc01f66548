"""Tier speed sensitivity calibration, batched over every VMDK.

At each monitor epoch a calibration injects a small set of synthetic
latencies into the I/O path of every VMDK and samples the resulting average
latency several times per injected value. The samples form one dense
``(N, L, S)`` grid: VMDKs × injected latencies in plan order × samples. One
least-squares line per VMDK (mean latency vs injected latency), fitted for
all rows at once, predicts the VMDK's latency on any other tier from the
difference of tier base latencies, without migrating anything. The fits are
``(N,)`` arrays (``CalibrationFits``) and the predictions a ``(T, N)`` grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import CalibrationFits

# A probe answers: (N, L, S) average I/O latencies (us) of the given VMDKs
# under each extra injected latency, S samples each. The simulator's device
# model provides one per run.
SampleProbe = Callable[[Sequence[str], Sequence[float], int], np.ndarray]

# Largest mean sampled latency (us) a fit accepts: near 5e291 us the shared
# least-squares solve rescales, moving every other VMDK's fit by an ulp.
MAX_MEAN_LATENCY_US = 1e290


@dataclass(frozen=True)
class CalibrationSamples:
    """Raw samples of one calibration round.

    ``values`` is (N, L, S): rows follow ``vmdk_ids``, the latency axis
    follows ``injected_latencies_us`` in plan order, then S samples each.
    """

    vmdk_ids: tuple[str, ...]
    injected_latencies_us: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.injected_latencies_us:
            raise ValueError("sample set must cover at least one injected latency")
        if self.values.shape[:2] != (len(self.vmdk_ids), len(self.injected_latencies_us)):
            raise ValueError("sample values must be shaped (VMDKs, injected latencies, samples)")
        if self.values.shape[2] == 0:
            raise ValueError(f"no samples for injected latency {self.injected_latencies_us[0]}")
        bad = (self.values <= 0).any(axis=(0, 2))
        if bad.any():
            d = self.injected_latencies_us[int(bad.argmax())]
            raise ValueError(f"non-positive sample for injected latency {d}")

    @property
    def sample_count(self) -> int:
        return self.values.size


def collect_samples(
    vmdk_ids: Sequence[str],
    probe: SampleProbe,
    injected_latencies_us: Sequence[float],
    samples_per_latency: int,
) -> CalibrationSamples:
    """Run one calibration round for every VMDK in ``vmdk_ids`` against a probe.

    The probe carries its own noise source; for a fixed seed the round is
    deterministic because samples are drawn in (VMDK, plan order, sample)
    order.
    """
    latencies = tuple(float(d) for d in injected_latencies_us)
    values = probe(vmdk_ids, latencies, samples_per_latency)
    return CalibrationSamples(tuple(vmdk_ids), latencies, values)


def compute_cv(samples: np.ndarray | Sequence[float]) -> np.ndarray:
    """Coefficient of variation along the last axis: population sigma over mean."""
    arr = np.asarray(samples, dtype=float)
    if arr.shape[-1] == 0:
        raise ValueError("cannot compute CV of an empty sample list")
    mean = arr.mean(axis=-1)
    if (mean == 0.0).any():
        raise ValueError("cannot compute CV when the sample mean is 0")
    return arr.std(axis=-1) / mean


def compute_confidence(mean_cv: np.ndarray | float, floor: float = 0.05) -> np.ndarray:
    """Map each mean CV to an estimation confidence in [floor, 1]."""
    mean_cv = np.asarray(mean_cv, dtype=float)
    if (mean_cv < 0).any():
        raise ValueError("meanCv must be non-negative")
    # fmax, like Python's max(floor, x), yields floor where x is NaN.
    return np.where(mean_cv >= 1.0, floor, np.fmax(floor, 1.0 - mean_cv))


def regress_latency_curve(samples: CalibrationSamples, floor: float = 0.05) -> CalibrationFits:
    """Least-squares fit of per-latency mean sample vs injected latency, per VMDK.

    Samples at each injected latency are averaged before the fit; the mean of
    the per-latency CVs drives the confidence. Rows are independent: each
    fit is bitwise what fitting that VMDK alone gives. A mean sample at or
    above ``MAX_MEAN_LATENCY_US`` would break that and raises ValueError.
    """
    latencies = samples.injected_latencies_us
    if len(set(latencies)) < 2:
        raise ValueError("regression needs at least two distinct injected latencies")
    l = samples.values.shape[1]
    order = np.argsort(latencies, kind="stable")
    xs = np.asarray(latencies)[order]
    cv = compute_cv(samples.values)[:, order]
    means = samples.values.mean(axis=-1)[:, order]
    # Left to right from 0.0, as a per-VMDK loop adds; .sum() pairs terms
    # differently and would move the last bits.
    cv_total = 0.0
    for column in cv.T:
        cv_total = cv_total + column
    mean_cv = cv_total / l
    # One polyfit with a column per VMDK; each column comes out bitwise as
    # if fitted alone. A closed-form slope/intercept differs in the last bits.
    m, b = np.polyfit(xs, means.T, 1)
    fits = CalibrationFits(
        vmdk_ids=samples.vmdk_ids,
        m=m,
        b=b,
        confidence=compute_confidence(mean_cv, floor),
        mean_cv=mean_cv,
    )
    too_slow = (means >= MAX_MEAN_LATENCY_US).any(axis=1)
    if too_slow.any():
        row = int(too_slow.argmax())
        limit = f"the calibration limit of {MAX_MEAN_LATENCY_US} us"
        raise ValueError(f"VMDK {samples.vmdk_ids[row]!r}: mean sampled latency reaches {limit}")
    return fits


def estimate_avg_lat(
    fits: CalibrationFits,
    tier_row: Sequence[int],
    base_latency_us: np.ndarray,
) -> np.ndarray:
    """(T, N) predicted average latency of each VMDK if hosted on each tier.

    Rows follow ``base_latency_us``, the (T,) base latency of each tier row
    (``Roster.base_latency_us``); columns follow ``fits.vmdk_ids``, and
    ``tier_row`` gives each VMDK's hosting tier row. On the hosting tier the
    prediction is the fitted intercept exactly. A prediction may be
    non-positive when the target tier is much faster than the fit can
    extrapolate; callers treat that as "prediction out of range".
    """
    delta = base_latency_us[:, None] - base_latency_us[tier_row]
    hosting = np.arange(len(base_latency_us))[:, None] == tier_row
    return np.where(hosting, fits.b, fits.prediction_slope * delta + fits.b)
