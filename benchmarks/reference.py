"""A fixed reference computation, timed next to every request.

The speed of the shared host drifts by up to 1.5x over seconds, so a
latency in milliseconds says as much about the host as about isocurv.  The
benchmark therefore times this computation just before and just after
every request and reports each latency in multiples of the mean of the two
(unit ``ref``): a slower host slows both alike, and the ratio moves only
when isocurv does.

The computation mixes what isocurv's requests spend their time on:
interpreted Python arithmetic, small numpy tensor contractions, and JSON
encoding and decoding.  It uses only numpy and the standard library, and
its inputs are fixed, so the unit does not change with the workload seed
or with library code.
"""

from __future__ import annotations

import json
import time

import numpy as np


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.tensor = rng.standard_normal((12,) * 4)
        self.vectors = rng.standard_normal((48, 12))
        self.floats = rng.standard_normal(1000).tolist()

    def __call__(self) -> float:
        """Run the computation once; return its duration in seconds."""
        t = time.perf_counter()
        s = 0
        for i in range(18000):
            s += i * i
        for v in self.vectors:
            np.tensordot(np.tensordot(self.tensor, v, axes=(0, 0)), v, axes=(0, 0)).sum()
        json.loads(json.dumps(self.floats))
        return time.perf_counter() - t

