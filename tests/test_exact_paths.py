"""The integer-only classify pipeline against a Fraction reference.

The reference below is the Fraction form of the same algorithms: linear
scans for g1, g2 and every oracle partner, Fraction remainders, sums and
comparisons, and a window test that builds the BadInterval and calls
``covers``. It takes its terms from the recurrence and nothing from the
package but the result types, so the integer cross-products in
``greedy_two_term``, ``oracle_best`` and ``classify`` must reproduce it
exactly: the same indices and the same reduced values. The reference oracle
scans a fixed REF_DEPTH first indices past g1 rather than using the
package's stop rule, so a wrong stop shows as a different winner.
``verification.xi_literal``, which tests the cutoff's Fibonacci-factor form
by integer cross-products, is held to the same form over Fractions.
"""

from fractions import Fraction
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    BadInterval,
    Classification,
    GreedyResult,
    SequenceParams,
    TwoTermSum,
    classify,
    greedy_two_term,
    oracle_best,
)
from fibgreedy.verification import xi_literal

REF_DEPTH = 10

# every valid pair of seeds with a1 < 30
SEEDS = [
    SequenceParams(a0, a1)
    for a1 in range(1, 30)
    for a0 in range(1, a1 + 1)
    if a0 * a0 + a1 * a0 - a1 * a1 > 0
]


def terms_from(params, start):
    # (n, a_n) for n = start, start + 1, ... by the recurrence from a_0
    n, a, b = 0, params.a0, params.a1
    while True:
        if n >= start:
            yield n, a
        n, a, b = n + 1, b, a + b


def ref_below(params, x, start):
    # smallest n >= start with 1/a_n < x, scanning one index at a time
    for n, a in terms_from(params, start):
        if Fraction(1, a) < x:
            return n, a


def ref_greedy(params, theta):
    g1, a = ref_below(params, theta, 1)
    first = Fraction(1, a)
    g2, c = ref_below(params, theta - first, g1)
    return GreedyResult(g1, g2, first + Fraction(1, c))


def ref_oracle_best(params, theta):
    """The best of the greedy pair and the first indices g1+1..g1+REF_DEPTH."""
    gr = ref_greedy(params, theta)
    best = TwoTermSum(gr.g1, gr.g2, gr.value)
    for m, a in islice(terms_from(params, gr.g1 + 1), REF_DEPTH):
        first = Fraction(1, a)
        n, c = ref_below(params, theta - first, m + 1)
        value = first + Fraction(1, c)
        if value > best.value:
            best = TwoTermSum(m, n, value)
    return best


def ref_window(params, n):
    # xi is the smallest s >= 0 with a_{2n+4+s} * chi > a_{2n+2} a_{2n+3} a_{2n+4}
    a = [t for _, t in islice(terms_from(params, 0), 2 * n + 5)]
    bound = a[2 * n + 2] * a[2 * n + 3] * a[2 * n + 4]
    s = 0
    while a[-1] * params.chi <= bound:
        a.append(a[-1] + a[-2])
        s += 1
    left = Fraction(1, a[2 * n + 3]) + Fraction(1, a[2 * n + 4])
    right = Fraction(1, a[2 * n + 2]) + Fraction(1, a[2 * n + 3 + s])
    return BadInterval(n, left, right, s)


def ref_xi_literal(params, n):
    # largest s with a_{2n+2} F(s) + a_{2n+3} F(s+1) <= a_{2n+2} a_{2n+3} a_{2n+4} / chi
    a = [t for _, t in islice(terms_from(params, 0), 2 * n + 5)]
    rhs = Fraction(a[2 * n + 2] * a[2 * n + 3] * a[2 * n + 4], params.chi)
    s, f, g = -1, 0, 1  # f, g = F(s + 1), F(s + 2)
    while a[2 * n + 2] * f + a[2 * n + 3] * g <= rhs:
        s, f, g = s + 1, g, f + g
    return s


def ref_classify(params, theta):
    gr = ref_greedy(params, theta)
    if gr.g1 % 2 == 0:
        window = ref_window(params, gr.g1 // 2 - 1)
        if window.covers(theta):
            n = window.n
            return Classification(
                theta, gr, False, window, TwoTermSum(2 * n + 3, 2 * n + 4, window.left)
            )
    return Classification(theta, gr, True, None, None)


def assert_same_as_reference(params, theta):
    assert greedy_two_term(params, theta) == ref_greedy(params, theta)
    assert classify(params, theta) == ref_classify(params, theta)
    report = oracle_best(params, theta)
    assert report.best == ref_oracle_best(params, theta)
    assert 1 <= report.candidates_examined <= 2


@st.composite
def big_thetas(draw):
    # p/q in (0, 1]: q of 1 to 300 digits, p of 1 up to as many digits as q
    e = draw(st.integers(min_value=1, max_value=300))
    q = draw(st.integers(min_value=10 ** (e - 1), max_value=10**e - 1))
    d = draw(st.integers(min_value=1, max_value=e))
    return Fraction(draw(st.integers(min_value=10 ** (d - 1), max_value=min(q, 10**d - 1))), q)


@st.composite
def edge_thetas(draw, params):
    """theta = 1, theta = 1/a_n, or an endpoint of window 0..40, exactly or
    10^-30 to either side."""
    kind = draw(st.sampled_from(["one", "reciprocal", "endpoint"]))
    if kind == "one":
        return Fraction(1)
    if kind == "reciprocal":
        n = draw(st.integers(min_value=1, max_value=60))
        return Fraction(1, next(terms_from(params, n))[1])
    window = ref_window(params, draw(st.integers(min_value=0, max_value=40)))
    end = draw(st.sampled_from([window.left, window.right]))
    return end + draw(st.sampled_from([Fraction(0), Fraction(1, 10**30), Fraction(-1, 10**30)]))


@settings(max_examples=200, deadline=None)
@given(params=st.sampled_from(SEEDS), theta=big_thetas())
def test_big_targets_match_reference(params, theta):
    assert_same_as_reference(params, theta)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), params=st.sampled_from(SEEDS))
def test_edge_targets_match_reference(data, params):
    assert_same_as_reference(params, data.draw(edge_thetas(params)))


@settings(max_examples=300, deadline=None)
@given(params=st.sampled_from(SEEDS), n=st.integers(min_value=0, max_value=60))
def test_xi_literal_matches_reference(params, n):
    assert xi_literal(params, n) == ref_xi_literal(params, n)


def test_named_edges_match_reference():
    # theta = 1 on every seed, including seeds (3, 4), where the greedy pair
    # repeats index 1 (1/4 + 1/4); fibonacci at both ends of window 0,
    # (8/15, 23/42]
    for params in SEEDS:
        assert_same_as_reference(params, Fraction(1))
    assert greedy_two_term(LUCAS.params, Fraction(1)) == GreedyResult(1, 1, Fraction(1, 2))
    for theta in (Fraction(8, 15), Fraction(23, 42)):
        assert_same_as_reference(FIBONACCI.params, theta)
    assert not classify(FIBONACCI.params, Fraction(23, 42)).is_best
    assert classify(FIBONACCI.params, Fraction(8, 15)).is_best
