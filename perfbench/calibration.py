"""Host-speed calibration for the end-to-end times.

The 2-core host this benchmark was written on changes speed by 20-100% from
one ten-second stretch to the next (other tenants share its cores and
caches), so one unit of work can take half as long again as the identical
unit before it.  Every timed piece of a run (a set-up, a unit, a
run_experiment call, a rollout, a batch of single-state calls, a training
phase) is therefore bracketed by two readings of fixed numpy kernels that
never touch cbfforge, and its time is multiplied by REFERENCE_S / the mean
of the two readings.  A reading is the fastest of READING_REPEATS runs of
the kernels, so a pause that hits one run does not mis-scale a piece.  A piece that contains timed pieces adds their scaled times to
its own remainder scaled by its own readings.  A reported time is seconds
at the reference host speed: at that speed it equals the raw time, and a
change to cbfforge moves it exactly as it moves the raw time.

Kernel kinds:

* "numpy_calls": many calls on 8-element arrays, like the filters; used for
  the filter workload and the filter metrics.
* "all": that, plus a 512x512 matrix product (the 512^3 nets), an MLP-sized
  product with a sigmoid (the margin nets) and an indexed gather from
  arrays beyond L2 (value iteration); used for everything else.

Measured over eight 15-second windows on the reference host, bracketing
cut the spread of window medians from 0.12 to 0.06 for single cbf_filter
calls (numpy_calls) and from 0.09-0.11 to 0.03 for margin iterations and
value-iteration sweeps (all).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel times on the reference host (Xeon, 2 vCPUs, numpy 2.4,
# OpenBLAS on one thread) in an uncontended period.
REFERENCE_S = {"numpy_calls": 0.0021, "all": 0.018}
READING_REPEATS = 3


class HostSpeed:
    """Reads the calibration kernels and scales the times measured between
    readings; `spent` is the total time the readings took."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self._small = rng.random((8, 3))
        self._weights8 = rng.random((8, 8))
        self._square = rng.random((512, 512))
        self._batch = rng.random((512, 64))
        self._weights64 = rng.random((64, 64)) / 8.0
        self._table = rng.random(2_000_000)
        self._index = rng.integers(0, self._table.size, (8, 50_000))
        self.readings: dict[str, list[float]] = {kind: [] for kind in REFERENCE_S}
        self.spent = 0.0
        self._open: list[list[float]] = []  # per open piece: [raw, scaled] of its inner pieces

    def _numpy_calls(self):
        for _ in range(150):
            a = np.asarray(self._small, dtype=float)
            b = np.clip(a[:, 0], -1.0, 1.0)
            np.einsum("cn,cn->n", self._weights8, self._weights8)
            c = np.empty_like(a)
            c[:, 0] = np.mod(b + 1.0, 2.0)
            np.minimum(b, np.broadcast_to(np.asarray(0.5), (8,))).max()

    def _others(self):
        self._square @ self._square
        for _ in range(10):
            h = self._batch @ self._weights64.T
            s = 1.0 / (1.0 + np.exp(-h))
            ((h * s) @ self._weights64).sum(axis=0)
        np.einsum("cn,cn->n", self._table[self._index], self._table[self._index])

    def measure(self, kind: str) -> float:
        fastest = float("inf")
        for _ in range(READING_REPEATS):
            start = time.perf_counter()
            self._numpy_calls()
            if kind == "all":
                self._others()
            elapsed = time.perf_counter() - start
            self.spent += elapsed
            fastest = min(fastest, elapsed)
        self.readings[kind].append(fastest)
        return fastest

    def timed(self, kind: str, fn):
        """Run fn between two readings.

        Returns (fn's result, its time at the reference speed, the scale
        factor of its own readings).  Readings taken inside fn are not
        counted in its time.
        """
        before = self.measure(kind)
        spent = self.spent
        self._open.append([0.0, 0.0])
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            inner_raw, inner_scaled = self._open.pop()
        elapsed = time.perf_counter() - start - (self.spent - spent)
        factor = REFERENCE_S[kind] / (0.5 * (before + self.measure(kind)))
        scaled = (elapsed - inner_raw) * factor + inner_scaled
        if self._open:
            self._open[-1][0] += elapsed
            self._open[-1][1] += scaled
        return out, scaled, factor

    def slowdown(self) -> dict[str, float]:
        """Median reading over the reference per kind; > 1 on a slow host."""
        return {k: statistics.median(v) / REFERENCE_S[k] for k, v in self.readings.items() if v}
