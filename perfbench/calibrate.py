"""A fixed piece of work that gauges how fast the host runs at the moment.

    python3 perfbench/calibrate.py

A shared host can change speed by up to half for seconds to minutes at a
time (a shared 2-vCPU Xeon did), which moves every timing of the program
with it. The benchmark times this calibration next to the requests and scales
each timing by REF / (calibration time near it): a timing is reported in
the time it would take on a host where the calibration takes exactly REF.
The work is pure Python with exact rationals, as zetacomb's is, and does
not touch zetacomb, so a change to the program cannot move it.

SPAWN_REF_S is for the spawned form (a fresh interpreter that runs `work`
SPAWN_REPEATS times), which pairs with cold requests and set-up; CALL_REF_S
is for one in-process call of `work`, which pairs with session calls.
"""
from __future__ import annotations

from fractions import Fraction

SIZE = 40
SPAWN_REPEATS = 10
SPAWN_REF_S = 0.1
CALL_REF_S = 0.005


def work() -> Fraction:
    """Bernoulli number B_SIZE by the Akiyama-Tanigawa recurrence."""
    a = [Fraction(0)] * (SIZE + 1)
    for m in range(SIZE + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


if __name__ == "__main__":
    for _ in range(SPAWN_REPEATS):
        work()
