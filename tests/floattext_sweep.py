"""Fixed-seed sweep of perilib.floattext against CPython, 10^6 values a layout
or more.

    PYTHONPATH=src python tests/floattext_sweep.py [SEED]

Each family of values is formatted by both layouts: csv_table against
'%.17g' % v and json_list against json.dumps of the floats.  The families
are random 64-bit patterns, powers of ten and their neighbours, dyadic ties
(small odd multiples of 2^e, and 100 + odd multiples of 2^-15), integers
near 10^16 ... 10^17 and eighths of integers near 10^15 ... 10^16.  The
script exits with status 1 at the first value whose text differs, naming
it, and with 0 after the whole sweep.  It checks bytes, not time.
"""

import json
import sys

import numpy as np

from perilib import floattext

BATCH = 100_000  # values a comparison, to keep the reference strings small


def families(rng):
    """(name, float64 array) pairs, 1.2 million values in all."""
    bits = rng.integers(0, 2**64, size=400_000, dtype=np.uint64, endpoint=False)
    p = 10.0 ** rng.integers(-330, 309, size=50_000)
    steps = rng.integers(-3, 4, size=p.size)
    near = p.copy()
    for k in range(3):
        near = np.where(steps > k, np.nextafter(near, np.inf), near)
        near = np.where(steps < -k, np.nextafter(near, -np.inf), near)
    odd = 2 * rng.integers(0, 2**20, size=200_000) + 1.0
    dyadic = np.ldexp(odd, rng.integers(-80, 40, size=odd.size))
    hundred = 100 + np.ldexp(2 * rng.integers(0, 2**14, size=50_000) + 1.0, -15)
    ints = rng.integers(10**16, 10**17, size=200_000).astype(np.float64)
    eighths = rng.integers(10**15, 10**16, size=200_000) + rng.integers(0, 8, size=200_000) / 8
    return [("random bit patterns", bits.view(np.float64)), ("powers of ten", p),
            ("neighbours of powers of ten", near), ("dyadic ties", dyadic),
            ("100 + odd / 2^15", hundred), ("integers 1e16 ... 1e17", ints),
            ("eighths near 1e15 ... 1e16", eighths),
            ("signs flipped", -np.concatenate([p[:25_000], dyadic[:25_000]]))]


def first_mismatch(got, expect, sep):
    """Index of the first differing field of two sep-joined texts."""
    for i, (a, b) in enumerate(zip(got.split(sep), expect.split(sep))):
        if a != b:
            return i, a, b
    return None


def main(argv):
    seed = int(argv[1]) if len(argv) > 1 else 2024
    rng = np.random.default_rng(seed)
    total = 0
    for name, values in families(rng):
        for i in range(0, values.size, BATCH):
            batch = values[i:i + BATCH]
            floats = batch.tolist()
            checks = [
                ("%.17g", floattext.csv_table(batch[:, None]),
                 "".join(["%.17g\n" % v for v in floats]), "\n"),
                ("json", floattext.json_list(batch)[1:-1], json.dumps(floats)[1:-1], ", "),
            ]
            for layout, got, expect, sep in checks:
                if got != expect:
                    j, a, b = first_mismatch(got, expect, sep)
                    print("MISMATCH %s, %s: %r gives %r, Python %r"
                          % (layout, name, floats[j], a, b))
                    return 1
        total += values.size
        print("%-30s %9d values: both layouts match" % (name, values.size))
    print("%d values a layout, seed %d: no mismatch" % (total, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
