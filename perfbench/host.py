"""Host-speed probe: turns wall time on a shared host into host-seconds.

The benchmark runs on a small virtual machine whose neighbours slow it
by up to 2x, in stretches lasting from a second to minutes.  The guest
sees no steal time, so CPU time slows with wall time, and medians over
one run cannot remove a slow stretch that covers the whole run.

So a fixed probe is timed every PERIOD_S, between units of work.  It
does the same kinds of work as the program (frozen-dataclass updates,
4x4 matrix products, a 3x3 inverse and condition number, a small
assignment problem), so a busy neighbour slows the probe and the
program alike: in 90-second trials of the online loops, a 60-iteration
version of it tracked the loops' speed with correlation 0.96-0.97.  Wall time spent
while the probe costs k times PROBE_REF_S counts as 1/k host-seconds.
The probe is benchmark code, not program code, so no change to the
program moves it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
from scipy.optimize import linear_sum_assignment

PROBE_REF_S = 1.0e-3   # probe cost on an uncontended 2-vCPU Xeon guest
PERIOD_S = 0.05

_F = np.eye(4) * 1.001
_S = np.eye(3) * 2.0 + 0.1
_W = np.arange(25.0).reshape(5, 5) % 7


@dataclass(frozen=True)
class _State:
    x: float
    P: np.ndarray


def probe() -> _State:
    s = _State(0.0, _F)
    for _ in range(40):
        s = replace(s, x=math.hypot(s.x, 1.0), P=_F @ s.P @ _F.T)
        linear_sum_assignment(_W)
        np.linalg.inv(_S)
        np.linalg.cond(_S)
    return s


def probe_cost(repeats: int = 3) -> float:
    """Median wall seconds of `repeats` probes run back to back."""
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        probe()
        costs.append(perf_counter() - t0)
    return sorted(costs)[repeats // 2]


class HostSpeed:
    """Probe samples over one run, and the conversions they allow."""

    def __init__(self):
        self.mid = array("d")
        self.cost = array("d")
        self.last = 0.0
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self.mid.append(0.5 * (t0 + t1))
        self.cost.append(t1 - t0)
        self.last = t1

    def factor(self, t) -> np.ndarray:
        """Host-seconds per wall second at perf_counter times t."""
        cost = np.asarray(self.cost)
        if len(cost) >= 3:
            # each sample averaged with its neighbours: one probe can
            # land on a single hiccup
            padded = np.concatenate(([cost[0]], cost, [cost[-1]]))
            cost = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
        return PROBE_REF_S / np.interp(t, np.asarray(self.mid), cost)

    def seconds(self, start: float, end: float) -> float:
        """Host-seconds in the wall interval [start, end], less the
        probes that ran inside it."""
        mid = np.asarray(self.mid)
        inside = (mid > start) & (mid < end)
        t = np.concatenate(([start], mid[inside], [end]))
        f = self.factor(t)
        area = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t)))
        probes = float(np.sum(np.asarray(self.cost)[inside] * f[1:-1]))
        return max(area - probes, 0.0)

    def median_factor(self) -> float:
        return float(PROBE_REF_S / np.median(np.asarray(self.cost)))
