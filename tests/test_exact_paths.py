"""The integer-only classify pipeline against a Fraction reference.

The reference below is the Fraction form of the same algorithms: linear
scans for g1, g2 and every oracle partner (each tests 1/a_n < x as
a_n > floor(1/x)), Fraction remainders, sums and comparisons, and a window
test that builds the BadInterval and calls ``covers``. It takes its terms
from the recurrence and nothing from the package but the result types, so
the integer cross-products in ``greedy_two_term``, ``oracle_best`` and
``classify`` must reproduce it exactly: the same indices and the same
reduced values. The reference oracle scans a fixed REF_DEPTH first indices
past g1 rather than using the package's stop rule, so a wrong stop shows as
a different winner. ``greedy_prefix``, which keeps its remainder as an
unreduced integer pair, is held to the same scans for up to
DEFAULT_TERM_LIMIT terms, and ``verification.xi_literal``, which tests the
cutoff's Fibonacci-factor form against bound // chi, to the same form over
Fractions.
"""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    DEFAULT_TERM_LIMIT,
    BadInterval,
    Classification,
    GreedyPrefix,
    GreedyResult,
    SequenceParams,
    TwoTermSum,
    bad_interval,
    classify,
    greedy_prefix,
    greedy_two_term,
    oracle_best,
    xi,
)
from fibgreedy import sequences
from fibgreedy.rationals import _PRODUCT_FORM_BITS
from fibgreedy.sequences import _NEAR_TIE_BITS
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
    # smallest n >= start with 1/a_n < x, scanning one index at a time; for
    # x > 0, 1/a < x exactly when a > floor(1/x), a comparison of integers
    # with no product
    floor = x.denominator // x.numerator
    for n, a in terms_from(params, start):
        if a > floor:
            return n, a


def ref_greedy(params, theta):
    g1, a = ref_below(params, theta, 1)
    first = Fraction(1, a)
    g2, c = ref_below(params, theta - first, g1)
    return GreedyResult(g1, g2, first + Fraction(1, c))


def ref_prefix(params, theta, k):
    """k greedy terms, each the first index from the previous one whose
    reciprocal fits strictly under theta minus the Fraction sum so far."""
    indices, denominators, total, n = [], [], Fraction(0), 1
    for _ in range(k):
        n, a = ref_below(params, theta - total, n)
        indices.append(n)
        denominators.append(a)
        total += Fraction(1, a)
    return GreedyPrefix(tuple(indices), total, tuple(denominators))


def ref_oracle_best(params, theta, gr):
    """The best of the greedy pair gr and the first indices
    g1+1..g1+REF_DEPTH."""
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


def ref_classify(params, theta, gr):
    if gr.g1 % 2 == 0:
        window = ref_window(params, gr.g1 // 2 - 1)
        if window.covers(theta):
            n = window.n
            return Classification(
                theta, gr, False, window, TwoTermSum(2 * n + 3, 2 * n + 4, window.left)
            )
    return Classification(theta, gr, True, None, None)


def assert_same_as_reference(params, theta):
    gr = ref_greedy(params, theta)
    assert greedy_two_term(params, theta) == gr
    assert classify(params, theta) == ref_classify(params, theta, gr)
    report = oracle_best(params, theta)
    assert report.best == ref_oracle_best(params, theta, gr)
    assert 1 <= report.candidates_examined <= 2


@st.composite
def big_thetas(draw):
    # p/q in (0, 1]: q of 1 to 300 digits, p of 1 up to as many digits as q
    e = draw(st.integers(min_value=1, max_value=300))
    q = draw(st.integers(min_value=10 ** (e - 1), max_value=10**e - 1))
    d = draw(st.integers(min_value=1, max_value=e))
    return Fraction(draw(st.integers(min_value=10 ** (d - 1), max_value=min(q, 10**d - 1))), q)


def near_reciprocal(params, n, k):
    # k/(k*a_n - 1) lies about 1/(k*a_n^2) above 1/a_n, so g1 = n and the
    # greedy gap g2 - g1 is about n: the greedy value 1/a_g1 + 1/a_g2 then
    # has F(g2 - g1) about as large as a_g1, the index-gap reduction's
    # worst case for its gcd
    return Fraction(k, k * next(terms_from(params, n))[1] - 1)


@st.composite
def edge_thetas(draw, params):
    """theta = 1, theta = 1/a_n, k/(k*a_n - 1) for k = 2 or 7, or an endpoint
    of window 0..40, exactly or 10^-30 to either side."""
    kind = draw(st.sampled_from(["one", "reciprocal", "above_reciprocal", "endpoint"]))
    if kind == "one":
        return Fraction(1)
    if kind == "reciprocal":
        n = draw(st.integers(min_value=1, max_value=60))
        return Fraction(1, next(terms_from(params, n))[1])
    if kind == "above_reciprocal":
        return near_reciprocal(
            params,
            draw(st.integers(min_value=2, max_value=800)),
            draw(st.sampled_from([2, 7])),
        )
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
@given(
    params=st.sampled_from(SEEDS),
    theta=st.just(Fraction(1)) | big_thetas(),
    k=st.integers(min_value=1, max_value=DEFAULT_TERM_LIMIT),
)
def test_prefix_matches_reference(params, theta, k):
    # theta = 1 repeats an index on some seeds (3, 4 starts 1/4 + 1/4)
    assert greedy_prefix(params, theta, k) == ref_prefix(params, theta, k)


@pytest.mark.parametrize("params", [FIBONACCI.params, SequenceParams(4, 5)], ids=["fibonacci", "4,5"])
def test_prefix_factored_steps_match_reference(monkeypatch, params):
    # greedy_prefix's steps whose remainder numerator passes _NEAR_TIE_BITS,
    # which index_below compares by leading bits: at 7/10^1000 from the
    # second step on, and inside window 1500 at k/(a_{2m+2}*k - 1) for the
    # smallest k, whose first remainder is 1/(q*a_g1), at the third step
    calls = []
    leading = sequences._leading_exceeds

    def counted(xs, ys):
        calls.append(len(ys))
        return leading(xs, ys)

    monkeypatch.setattr(sequences, "_leading_exceeds", counted)
    m = 1500
    window = bad_interval(params, m)
    a = next(terms_from(params, 2 * m + 2))[1]
    x = a - 1 / window.right
    inside = near_reciprocal(params, 2 * m + 2, x.denominator // x.numerator + 1)
    assert window.covers(inside) and inside.numerator * a - inside.denominator == 1
    for theta, k in ((Fraction(7, 10**1000), 4), (inside, 3)):
        calls.clear()
        assert greedy_prefix(params, theta, k) == ref_prefix(params, theta, k)
        assert calls


@settings(max_examples=300, deadline=None)
@given(params=st.sampled_from(SEEDS), n=st.integers(min_value=0, max_value=60))
def test_xi_literal_matches_reference(params, n):
    assert xi_literal(params, n) == ref_xi_literal(params, n)


def test_named_edges_match_reference():
    # theta = 1 on every seed, including seeds (3, 4), where the greedy pair
    # repeats index 1 (1/4 + 1/4); fibonacci at both ends of window 0,
    # (8/15, 23/42]; targets just above 1/a_n
    for params in SEEDS:
        assert_same_as_reference(params, Fraction(1))
    assert greedy_two_term(LUCAS.params, Fraction(1)) == GreedyResult(1, 1, Fraction(1, 2))
    for theta in (Fraction(8, 15), Fraction(23, 42)):
        assert_same_as_reference(FIBONACCI.params, theta)
    assert not classify(FIBONACCI.params, Fraction(23, 42)).is_best
    assert classify(FIBONACCI.params, Fraction(8, 15)).is_best
    # targets just above 1/a_n at first indices n = 2m+2, whose greedy values
    # fall on both sides of the product form's size
    for params in (FIBONACCI.params, LUCAS.params, SequenceParams(4, 5), SequenceParams(2, 2)):
        for m in (3, 20, 400, 800):
            for k in (2, 7):
                theta = near_reciprocal(params, 2 * m + 2, k)
                assert_same_as_reference(params, theta)
                pick = greedy_two_term(params, theta)
                assert pick.g1 == 2 * m + 2 and pick.g1 < pick.g2 - pick.g1 < pick.g1 + 8
                a_g2 = next(terms_from(params, pick.g2))[1]
                assert (a_g2.bit_length() > _PRODUCT_FORM_BITS) == (m >= 400)


def test_inside_a_window_g2_is_the_cutoff_index():
    # classify reads its window off the greedy pick: inside window m the
    # greedy second index is 2m+4+xi(m), and the witness must be the window
    # bad_interval places from the seeds' offset (t*, n*), with no search of
    # its own. At both edges and 10^-30 to either side, and at the midpoint,
    # over every seed and m <= 40.
    tiny = Fraction(1, 10**30)
    inside = 0
    for params in SEEDS:
        for m in range(41):
            window = bad_interval(params, m)
            g2 = 2 * m + 4 + xi(params, m).xi
            ends = [end + d for end in (window.left, window.right) for d in (-tiny, 0, tiny)]
            for theta in (*ends, (window.left + window.right) / 2):
                cls = classify(params, theta)
                if window.covers(theta):
                    inside += 1
                    assert greedy_two_term(params, theta).g2 == g2
                    assert cls.witness_interval == window
                else:
                    assert cls.witness_interval is None
    assert inside > 2 * len(SEEDS) * 41


def test_big_windows_match_reference():
    # Windows 1500 and 3000, whose terms are past _NEAR_TIE_BITS: at both
    # ends and the midpoint the greedy search, the window test and the
    # oracle run the factored comparisons of sequences._exceeds. At an end
    # the remainder ties chi/bound exactly, and the oracle's candidate ties
    # the greedy value to within about 1/a_g1^2, so the full products decide.
    # The cutoff must equal the independent walk of xi_literal, and its bound
    # the product of the recurrence's terms (compared as a flag, since a
    # failing report could not print the integers).
    for params in (FIBONACCI.params, LUCAS.params, SequenceParams(4, 5), SequenceParams(2, 2)):
        for n in (1500, 3000):
            window = bad_interval(params, n)
            assert window == ref_window(params, n)
            a2, a3 = [a for _, a in islice(terms_from(params, 2 * n + 2), 2)]
            assert a2.bit_length() > _NEAR_TIE_BITS
            res = xi(params, n)
            assert (res.xi, res.bound == a2 * a3 * (a2 + a3)) == (xi_literal(params, n), True)
            for theta in (window.left, (window.left + window.right) / 2, window.right):
                assert_same_as_reference(params, theta)
