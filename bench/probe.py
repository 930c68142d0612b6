"""The reference probe whose running time is the unit `ref`.

Every time the benchmark reports is an operation's wall time divided by
the mean of two runs of the probe, one just before the operation and one
just after, so a slower or faster machine moves both alike.  The probe is
pure Python and mixes what pathint's operations do: exact `Fraction`
arithmetic, a dict of a few thousand tuple keys built and walked once (a
working set beyond the first-level caches), and label formatting and
splitting.  A probe of Fraction arithmetic alone tracked the operations
less well: between the fastest and the slowest quarter of a two-minute
stretch, operation/probe ratios moved by 4-8 %, against 0.5-3 % with this
mix.  It takes about 4-9 ms on a shared 2-core x86-64 machine.  The
garbage collector is paused while it runs, so that the unit tracks the
machine and not how many objects the operations before it left alive.
Never change this file: a different probe is a different unit, and
figures measured in the two cannot be compared.
"""

import gc
from fractions import Fraction
from time import perf_counter


def probe() -> Fraction:
    table = {}
    total = Fraction(0)
    for i in range(400):
        x = Fraction(i % 13 + 1, i % 5 + 2)
        total += x * table.get((i % 61, i % 7), 1)
        table[(i % 61, i % 7)] = x
    big = {(i, i % 97, str(i % 31)): (i, i * 3) for i in range(5000)}
    s = 0
    for k, v in big.items():
        s += v[1] - k[1]
    text = ",".join(f"v{i}->v{i + 1}" for i in range(1500))
    parts = [p.partition("->") for p in text.split(",")]
    return total + s + len(parts)


def timed_probe() -> float:
    """Seconds one probe takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        probe()
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()
