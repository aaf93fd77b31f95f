"""The CPU speed probe that run.py scales job times by.

The host's virtual CPUs change speed by up to 1.8x: the speed flips about
once a second, and the share of time spent slow drifts over minutes.  Over a
run, a pure-Python loop slows with it about as much as a dercat job does.
`sample()` times a fixed piece of work of the same kind as dercat's (Gaussian
elimination over Fractions, in pure Python) in the driver process, after
every job and on the same CPU.  It never imports dercat, so no change to the
package can move it.

REF_S is about the mean elimination time on the machine the baseline in
README.md was taken on.  A run's times are multiplied by REF_S / (mean of its samples):
they are its times at that speed.
"""

import time
from fractions import Fraction

REF_S = 0.0140
SIZE = 14
REPEAT = 5


def _eliminate():
    n = SIZE
    m = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3) for j in range(n)]
         for i in range(n)]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, n) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def sample():
    """Seconds of each of REPEAT eliminations of the fixed matrix."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        _eliminate()
        times.append(time.perf_counter() - start)
    return times
