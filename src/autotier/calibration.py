"""Tier speed sensitivity calibration, batched over every VMDK.

At each monitor epoch a calibration injects a small set of synthetic
latencies into the I/O path of every VMDK and samples the resulting average
latency several times per injected value. The samples form one dense
``(N, L, S)`` grid: VMDKs × injected latencies in plan order × samples. Each
(VMDK, latency) mean, computed once, gives its CV and a point of one
least-squares line per VMDK, which predicts the VMDK's latency on any other
tier from the difference of tier base latencies, without migrating anything.
Every plan is fitted one way: ``np.polyfit``'s degree-1 steps, set up once
per plan and solved for all rows at once. A plan the fit cannot scale, and
a row whose samples it cannot take, are refused with a ValueError that says
which. The fits are ``(N,)`` arrays (``CalibrationFits``) and the
predictions a ``(T, N)`` grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np
from numpy.exceptions import RankWarning

from .model import CalibrationFits, latency_norm

# A probe answers: (N, L, S) average I/O latencies (us) of all N VMDKs it
# serves, one row each in its own fixed order, under each extra injected
# latency, S samples each. The simulator's device model provides one per run.
SampleProbe = Callable[[Sequence[float], int], np.ndarray]

# Largest mean sampled latency (us) a fit accepts: near 5e291 us the shared
# least-squares solve rescales, moving every other VMDK's fit by an ulp.
MAX_MEAN_LATENCY_US = 1e290


@dataclass(frozen=True, eq=False)
class CalibrationSamples:
    """Raw samples of one calibration round.

    ``values`` is (N, L, S): rows follow ``vmdk_ids``, the latency axis
    follows ``injected_latencies_us`` in plan order, then S samples each.
    A record equals and hashes as itself alone, as ``values`` gives no
    single truth value.
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
        if self.values.size and not self.values.min() > 0:
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
    """Run one calibration round against a probe; ``vmdk_ids`` label its rows.

    The probe carries its own noise source; for a fixed seed the round is
    deterministic because samples are drawn in (VMDK, plan order, sample)
    order.
    """
    latencies = tuple(map(float, injected_latencies_us))
    return CalibrationSamples(tuple(vmdk_ids), latencies, probe(latencies, samples_per_latency))


def _mean_and_cv(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and CV along the last axis: one mean, then sigma by ``np.std``'s own steps.

    Each mean is ``np.add.reduce`` over the axis divided by its length, the
    reduction and division ``ndarray.mean`` makes, without its Python wrapper.
    """
    n = arr.shape[-1]
    if n == 0:
        raise ValueError("cannot compute CV of an empty sample list")
    mean = np.add.reduce(arr, axis=-1) / n
    if (mean == 0.0).any():
        raise ValueError("cannot compute CV when the sample mean is 0")
    dev = arr - mean[..., None]
    with np.errstate(over="ignore"):  # an inf square gives an inf CV, which the fit refuses
        dev *= dev
    return mean, np.sqrt(np.add.reduce(dev, axis=-1) / n) / mean


def compute_confidence(mean_cv: np.ndarray | float, floor: float = 0.05) -> np.ndarray:
    """Map each mean CV to an estimation confidence in [floor, 1]."""
    mean_cv = np.asarray(mean_cv, dtype=float)
    if (mean_cv < 0).any():
        raise ValueError("meanCv must be non-negative")
    # fmax, like Python's max(floor, x), yields floor where x is NaN.
    return np.where(mean_cv >= 1.0, floor, np.fmax(floor, 1.0 - mean_cv))


@lru_cache(maxsize=8)
def _fit_plan(latencies: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``np.polyfit``'s degree-1 set-up for one injected-latency plan, built once.

    Returns the plan's stable ascending order, the column-scaled Vandermonde
    ``lhs``, its ``scale`` and ``rcond``, by polyfit's own steps; the arrays
    are read-only. The latency column's norm comes from ``latency_norm``,
    which sums it as polyfit does and raises ValueError where it is 0.0 or
    inf. A tiny latency that underflows once squared or scaled is ignored
    whatever the caller's error state, as polyfit's default error state
    ignores it. Plans equal as tuples (0.0 and -0.0 alike) share an entry:
    they sort the same, and polyfit's ``+ 0.0`` makes their x values
    identical.
    """
    order = np.argsort(latencies, kind="stable")
    xs = np.asarray(latencies)[order] + 0.0
    scale = np.array([latency_norm(xs.tolist()), math.sqrt(len(xs))])
    with np.errstate(under="ignore"):
        lhs = np.vander(xs, 2) / scale
    for array in (order, lhs, scale):
        array.flags.writeable = False
    return order, lhs, scale, len(xs) * np.finfo(xs.dtype).eps


def regress_latency_curve(samples: CalibrationSamples, floor: float = 0.05) -> CalibrationFits:
    """Least-squares fit of per-latency mean sample vs injected latency, per VMDK.

    Samples at each injected latency are averaged before the fit; the mean of
    the per-latency CVs drives the confidence. Rows are independent: each
    fit is bitwise what fitting that VMDK alone gives. The first row whose
    mean sample reaches ``MAX_MEAN_LATENCY_US``, which would break that, or
    whose mean CV is not finite (its squared deviations overflow) raises
    ValueError naming that VMDK, before anything is fitted.
    """
    latencies = samples.injected_latencies_us
    if len(set(latencies)) < 2:
        raise ValueError("regression needs at least two distinct injected latencies")
    order, lhs, scale, rcond = _fit_plan(tuple(latencies))
    means, cv = _mean_and_cv(samples.values)
    means, cv = means[:, order], cv[:, order]
    # One column at a time, left to right, as a per-VMDK loop adds; .sum()
    # may pair terms differently and would move the last bits. A loop's start
    # at 0.0 would change only a -0.0, which no CV is.
    mean_cv = reduce(np.add, cv.T) / len(latencies)
    if not (means.max(initial=0.0) < MAX_MEAN_LATENCY_US and mean_cv.max(initial=0.0) < math.inf):
        too_slow = (means >= MAX_MEAN_LATENCY_US).any(axis=1)
        bad = too_slow | ~np.isfinite(mean_cv)
        if bad.any():
            row = int(bad.argmax())
            limit = f"the calibration limit of {MAX_MEAN_LATENCY_US} us"
            cause = (f"mean sampled latency reaches {limit}" if too_slow[row]
                     else f"mean CV of its samples is not finite, got {mean_cv[row]}")
            raise ValueError(f"VMDK {samples.vmdk_ids[row]!r}: {cause}")
    # np.polyfit's own solve with a column per VMDK, on the plan's cached
    # scaled Vandermonde matrix: each column comes out bitwise as if fitted
    # alone, and as polyfit fits it. A closed-form slope/intercept differs in
    # the last bits.
    c, _, rank, _ = np.linalg.lstsq(lhs, means.T + 0.0, rcond)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", RankWarning, stacklevel=2)
    m, b = (c.T / scale).T
    return CalibrationFits(m=m, b=b, confidence=compute_confidence(mean_cv, floor), mean_cv=mean_cv)


def latency_grids(tier_row: Sequence[int], base_latency_us: np.ndarray) -> tuple[np.ndarray, ...]:
    """``estimate_avg_lat``'s (T, N) base latencies less the hosting tier's, and hosting mask."""
    delta = base_latency_us[:, None] - base_latency_us[tier_row]
    hosting = np.arange(len(base_latency_us))[:, None] == tier_row
    return delta, hosting


def estimate_avg_lat(
    fits: CalibrationFits,
    tier_row: Sequence[int],
    base_latency_us: np.ndarray,
    grids: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """(T, N) predicted average latency of each VMDK if hosted on each tier.

    Rows follow ``base_latency_us``, the (T,) base latency of each tier row
    (``Roster.base_latency_us``); columns follow the rows of ``fits``, and
    ``tier_row`` gives each VMDK's hosting tier row. ``grids`` is
    ``latency_grids(tier_row, base_latency_us)``, built here when not given.
    On the hosting tier the prediction is the fitted intercept exactly. A
    prediction may be non-positive when the target tier is much faster than
    the fit can extrapolate; callers treat that as "prediction out of range".
    """
    delta, hosting = latency_grids(tier_row, base_latency_us) if grids is None else grids
    return np.where(hosting, fits.b, fits.prediction_slope * delta + fits.b)
