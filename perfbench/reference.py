"""Host-speed probe: a small fixed kernel timed inside and around measured runs.

On a shared 2-vCPU x86_64 virtual machine without CPU pinning, vCPU speed
drifts by 10-25% within a second and the drift is not shared between
cores, so raw seconds of identical runs spread by 10-20%. A ``SpeedProbe``
passed as the ``on_plan`` callback of ``autotier.run_scenario`` runs the
kernel at every migration epoch, spread over the run; the run's seconds
minus the probe's, scaled by NOMINAL_S over the probe's mean kernel
seconds, is the run's normalized time. The kernel mixes the two kinds of work the simulator does:
Python objects in dicts and sorted lists (serving, packing) and scalar numpy
calls on tiny arrays (calibration). It does not use autotier, so a change to
the program cannot move it, and it reads nothing the callback is given.
"""

from __future__ import annotations

import random
import time

import numpy as np

# Normalized seconds = measured seconds * NOMINAL_S / mean kernel seconds:
# the time on a host that runs the kernel in NOMINAL_S. The kernel takes
# about this long on the shared 2-vCPU x86_64 machine the bounds in
# BENCHMARK.json were set on, so normalized and raw figures are close there.
NOMINAL_S = 0.0035

_OBJECTS = 500
_DRAWS = 1000
_X = np.array([0.0, 500.0, 1000.0, 2000.0, 4000.0])


class _Item:
    __slots__ = ("key", "a", "b")

    def __init__(self, key: str, a: float, b: float):
        self.key = key
        self.a = a
        self.b = b


def kernel() -> float:
    r = random.Random(1)
    items = [_Item(f"v{i:05d}", r.random(), r.random()) for i in range(_OBJECTS)]
    by_key = {item.key: item for item in items}
    items.sort(key=lambda item: (-item.a, item.key))
    total = 0.0
    for item in items:
        total += by_key[item.key].b * item.a if item.a > 0.1 else 0.0

    rng = np.random.default_rng(0)
    for i in range(_DRAWS):
        x = float(rng.standard_normal())
        total += x * x
        if i % 50 == 0:
            s = rng.standard_normal(10)
            total += float(np.std(s)) / (float(np.mean(s)) + 10.0)
            total += float(np.polyfit(_X, _X * 0.5 + total % 7, 1)[0])
    return total


class SpeedProbe:
    """Callable that times one kernel per call; pass it as ``on_plan``."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def __call__(self, *_: object) -> None:
        start = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - start)


def reference_seconds(cover_s: float = 0.02) -> float:
    """Mean seconds of one kernel, repeated until the kernels cover ``cover_s``."""
    probe = SpeedProbe()
    while sum(probe.times) < cover_s:
        probe()
    return sum(probe.times) / len(probe.times)
