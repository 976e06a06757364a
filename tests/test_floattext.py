"""perilib.floattext against CPython's own formatting, value by value."""

import json
import subprocess
import sys
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perilib import floattext

# the values the vector path must decide, or hand to Python, exactly:
# signed zeros, the least subnormal, 1e-12 (x = 1e16 - 0.2 at k = -12),
# 1e16, 1e17, 1e23 (9.9999999999999992e+22), exact ties 2**-25 and
# 100 + 2**-15, and the non-finite values
PINNED = [0.0, -0.0, 5e-324, 1e-12, 1e16, 1e17, 1e23, 2.0**-25, 100 + 2.0**-15]
SPECIAL = [float("nan"), float("inf"), float("-inf")]


def percent_rows(table):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def pinned(test):
    for v in PINNED + SPECIAL:
        test = example(values=[v, -v])(test)
    return example(values=PINNED + SPECIAL)(test)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), max_size=40))
@pinned
def test_csv_field_is_percent_17g(values):
    table = np.array(values, np.float64).reshape(-1, 1)
    assert floattext.csv_table(table) == percent_rows(table)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), max_size=40))
@pinned
def test_json_list_is_json_dumps(values):
    assert floattext.json_list(np.array(values, np.float64)) == json.dumps(values)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(bits):
    values = np.array(bits, np.uint64).view(np.float64)
    assert floattext.csv_table(values[:, None]) == percent_rows(values[:, None])
    assert floattext.json_list(values) == json.dumps(values.tolist())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chunks_blocks_and_inserts(data):
    # small chunks and gather blocks, so that rows, inserts and the values
    # left to Python fall on and across their edges
    cols = data.draw(st.integers(1, 5))
    rows = data.draw(st.integers(0, 12))
    pool = data.draw(st.lists(st.floats(), min_size=1, max_size=8)) + PINNED[-2:]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = np.array(pool)[rng.integers(len(pool), size=(rows, cols))]
    at = sorted(data.draw(st.lists(st.integers(0, rows), max_size=4)))
    inserts = [(r, "# insert %d\n" % i) for i, r in enumerate(at)]
    expect = [",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()]
    for (r, text) in reversed(inserts):
        expect.insert(r, text)
    chunk, block = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 4))
    with mock.patch.object(floattext, "CHUNK", chunk), mock.patch.object(floattext, "BLOCK", block):
        assert floattext.csv_table(table, inserts) == "".join(expect)
        assert floattext.json_list(table.ravel()) == json.dumps(table.ravel().tolist())


def test_families_near_the_edges():
    # powers of ten and their neighbours, dyadic ties and integers near
    # 10^16 - 10^17, the families where a wrong k, a wrong tie or a
    # float64 digit count shows
    p = 10.0 ** np.arange(-300, 301)
    ints = np.arange(10**16 - 50, 10**16 + 50, dtype=np.int64)
    values = np.concatenate([
        p, np.nextafter(p, 0), np.nextafter(p, np.inf),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        np.ldexp(np.arange(1, 200, 2.0), -25), 100 + np.ldexp(np.arange(1, 64, 2.0), -15),
        ints.astype(np.float64), (ints * 10).astype(np.float64),
        -np.array(PINNED), SPECIAL,
    ])
    assert floattext.csv_table(values[:, None]) == percent_rows(values[:, None])
    assert floattext.json_list(values) == json.dumps(values.tolist())


def test_tables_are_built_on_first_use():
    # importing the CLI builds none of the lookup tables
    code = ("import perilib.cli, perilib.floattext as f; "
            "assert not any(t.cache_info().currsize for t in (f._pow10, f._tables, f._layout))")
    subprocess.run([sys.executable, "-c", code], check=True)
