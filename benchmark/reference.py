"""A fixed reference computation that measures the machine's current speed.

On a shared host the speed of all code changes in steps, by up to 1.7×
within seconds: every kind of op slows or speeds by a similar factor at
once.  The runner times this reference between ops
(outside the timed interval) and scales each op's latency by
``REFERENCE_MS`` over the reference's recent time, so that the reported
timings read as if the reference always took ``REFERENCE_MS``.  A change to
asymkit moves the scaled timings; a change in the machine's speed moves the
reference with them and cancels out.

The reference never calls asymkit.  It mixes the kinds of work asymkit does:
Python loops over a group table, dict updates, a JSON round trip, small
complex matmuls, an einsum over group elements, a Hermitian eigensolve and
many small-array numpy calls.  It takes about 2 ms.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REFERENCE_MS = 2.0  # the reference time that scaled timings are expressed at
INTERVAL_S = 0.1  # time one reference at most this often between ops
WINDOW = 9  # the speed at an op is the median of the last WINDOW references
WARMUP = 20


class Reference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        self._h = self._a + self._a.conj().T
        self._b = rng.normal(size=(24, 12, 12)) + 1j * rng.normal(size=(24, 12, 12))
        self._doc = {"rows": [[float(x), float(-x)] for x in rng.normal(size=200)]}
        self._mul = [[(g * h + g) % 24 for h in range(24)] for g in range(24)]
        self.times: list[float] = []  # seconds, every reference run so far
        self._last = float("-inf")
        for _ in range(WARMUP):
            self._run()
        self.times.clear()

    def _run(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for row in self._mul:
            for x in row:
                s += row[x % 24] * x
        counts: dict[int, int] = {}
        for i in range(600):
            counts[i % 31] = counts.get(i % 31, 0) + i
        json.loads(json.dumps(self._doc))
        for _ in range(4):
            self._a @ self._a
        np.einsum("gij,gjk->gik", self._b, self._b)
        np.linalg.eigh(self._h)
        for g in range(60):
            np.array([[g, 1j], [0, 1]]).conj().T.sum()
        end = time.perf_counter()
        self.times.append(end - t0)
        self._last = end
        return end - t0

    def scale(self) -> float:
        """The factor that takes a wall time to the reference speed, at this moment.

        Runs the reference first if it last ran more than INTERVAL_S ago.
        """
        if time.perf_counter() - self._last >= INTERVAL_S:
            self._run()
        return REFERENCE_MS * 1e-3 / statistics.median(self.times[-WINDOW:])

    def around(self, fn) -> tuple[float, float]:
        """Call ``fn()``; return its wall time and the scale over the call.

        The scale comes from the median of WINDOW references run just before
        the call and WINDOW just after it.
        """
        first = len(self.times)
        for _ in range(WINDOW):
            self._run()
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        for _ in range(WINDOW):
            self._run()
        return wall, REFERENCE_MS * 1e-3 / statistics.median(self.times[first:])
