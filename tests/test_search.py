"""The predict-then-certify index search, the cutoff built on it, and the
absence of retained state."""

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibgreedy import FIBONACCI, LUCAS, SequenceParams, bad_interval, classify, xi
from fibgreedy.sequences import index_below, seq_terms

# every valid pair of seeds with a1 < 30
SEEDS = [
    SequenceParams(a0, a1)
    for a1 in range(1, 30)
    for a0 in range(1, a1 + 1)
    if a0 * a0 + a1 * a0 - a1 * a1 > 0
]

# positive integers of every size up to 10^800
BIG = st.integers(min_value=0, max_value=800).flatmap(
    lambda e: st.integers(min_value=1, max_value=10**e)
)


def linear_index_below(params, num, den, start):
    # Reference: walk the recurrence one index at a time from a_0.
    a, b = params.a0, params.a1
    for _ in range(start):
        a, b = b, a + b
    n = start
    while num * a <= den:
        n, a, b = n + 1, b, a + b
    return n, a, b


def guessed_index(num, den, start, a_start):
    # The documented bit-length guess, clamped at start.
    k = (den.bit_length() - num.bit_length() - a_start.bit_length() - 2) * 10000 // 6943
    return start + max(k, 0)


def scanned_xi(params, n):
    # The cutoff as a plain integer scan over recurrence terms.
    a = seq_terms(params, 2 * n + 4)
    bound = a[2 * n + 2] * a[2 * n + 3] * a[2 * n + 4]
    s = 0
    while a[-1] * params.chi <= bound:
        a.append(a[-1] + a[-2])
        s += 1
    return s


def test_seed_set():
    assert len(SEEDS) == 181


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SEEDS), st.integers(min_value=0, max_value=300), BIG, BIG)
def test_index_below_matches_linear_scan(params, start, num, den):
    a, b = seq_terms(params, start + 1)[start:]
    found = index_below(params, num, den, start, a, b)
    assert found == linear_index_below(params, num, den, start)
    assert found[0] - guessed_index(num, den, start, a) <= 8


def test_index_below_start_already_below():
    # 1/a_5 = 1/8 < 1/2: the search answers at start without moving
    assert index_below(FIBONACCI.params, 1, 2, 5, 8, 13) == (5, 8, 13)


def test_xi_matches_integer_scan():
    mismatches = [
        (p.a0, p.a1, n)
        for p in SEEDS
        for n in range(61)
        if xi(p, n).xi != scanned_xi(p, n)
    ]
    assert mismatches == []


@pytest.mark.parametrize("n", [5000, 20000])
def test_xi_closed_forms_far_out(n):
    # fibonacci at n = 20000: 80004
    assert xi(FIBONACCI.params, n).xi == bad_interval(FIBONACCI.params, n).xi == 4 * n + 4
    assert xi(LUCAS.params, n).xi == 4 * n + 6


def test_no_state_retained():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        xi(FIBONACCI.params, 5000)
        classify(FIBONACCI.params, Fraction(7, 10**3000))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    assert not hasattr(bad_interval, "cache_info")
