"""The predict-then-certify index search, the window cutoff from the seeds'
offset (t*, n*), the terms the classifier and the search take from the
greedy pick, and the absence of retained state."""

import gc
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    SequenceParams,
    bad_interval,
    classify,
    greedy_prefix,
    oracle_best,
    xi,
)
from fibgreedy import greedy, optimality, oracle, sequences
from fibgreedy.errors import SelfCheckError
from fibgreedy.greedy import GreedyResult
from fibgreedy.sequences import (
    _NEAR_TIE_BITS,
    _STEP_JUMP,
    _exceeds,
    _lead,
    fib,
    index_below,
    seq_pair,
    seq_terms,
)
from fibgreedy.verification import disagreement, xi_literal

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
    # Reference: walk the recurrence one index at a time from a_0; for
    # positive integers num*a <= den exactly when a <= den // num.
    a, b = params.a0, params.a1
    for _ in range(start):
        a, b = b, a + b
    n, floor = start, den // num
    while a <= floor:
        n, a, b = n + 1, b, a + b
    return n, a, b


def checked(found, num, den):
    # index_below's (n, a_n, a_{n+1}), once its fourth value is checked: the
    # remainder num*a_n - den wherever the walk formed it, else None
    n, a, b, rem = found
    assert rem is None or rem == num * a - den
    return n, a, b


def guessed_index(num, den, start, a_start):
    # The documented bit-length guess, clamped at start.
    k = (den.bit_length() - num.bit_length() - a_start.bit_length() - 2) * 1000000 // 694242
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
@given(
    st.sampled_from(SEEDS),
    st.integers(min_value=0, max_value=300),
    BIG,
    st.lists(BIG, min_size=1, max_size=2).map(prod),
    st.one_of(st.just(1), BIG),
)
def test_index_below_matches_linear_scan(params, start, num, q, r):
    # the denominator as q*r, with r = 1 as a one-factor bound passes it and
    # r of any size; past _NEAR_TIE_BITS in r, the guess takes the bit length
    # of q*r up to one low
    a, b = seq_terms(params, start + 1)[start:]
    den = q * r
    found = checked(index_below(params, num, q, r, start, a, b), num, den)
    assert found == linear_index_below(params, num, den, start)
    assert found[0] - guessed_index(num, den, start, a) <= 8


def test_index_below_start_already_below():
    # 1/a_5 = 1/8 < 1/2: the search answers at start without moving
    assert index_below(FIBONACCI.params, 1, 2, 1, 5, 8, 13) == (5, 8, 13, None)


def test_index_below_skips_an_exact_reciprocal():
    # den == num*a_n: 1/a_n equals num/den rather than sitting strictly below
    # it, so the answer is n + 1. From start 1 to a far n the bit-length
    # guess is taken and checked (its proof puts it below n, since
    # num*a_guess < den); from start n only the walk runs, and its first
    # comparison is the equality.
    #
    # The cutoff's equality a_{2n+3+s}*chi == a_{2n+2}*a_{2n+3}*a_{2n+4}
    # has no known input: a search over all 430 175 valid seeds with
    # a1 < 1500 at n <= 12 found none. Flipping classify's a_g2*chi > bound
    # to >= therefore stays unkillable by any known input: the two differ
    # only at that equality, so the flip is equivalent on every known input.
    # verification.xi_literal tests z_s against bound // chi instead, where a
    # flip differs whenever z_s equals that floor, a wider boundary with
    # known inputs (test_xi_literal_counts_a_shift_at_the_floor).
    guessed = walked = 0
    for params in SEEDS:
        terms = seq_terms(params, 62)
        for n in (1, 2, 5, 20, 60):
            for num in (1, 3, 2**40 + 1):
                den = num * terms[n]
                for start in (1, n):
                    a, b = terms[start], terms[start + 1]
                    found = checked(index_below(params, num, den, 1, start, a, b), num, den)
                    assert found == (n + 1, terms[n + 1], terms[n + 2])
                    if guessed_index(num, den, start, a) > start:
                        guessed += 1
                    else:
                        walked += 1
    assert guessed and walked


@pytest.mark.parametrize("params", [FIBONACCI.params, LUCAS.params, SequenceParams(4, 5)])
def test_index_below_at_an_exact_reciprocal_of_a_large_term(params):
    # Terms of at least 20 000 bits: num*a_n == den must step past n, and
    # den one less must stop at n. There bits(num) + bits(a_n) reaches
    # bits(den), so the walk must multiply rather than skip the product.
    n = 28900
    terms = seq_terms(params, n + 2)
    assert terms[n].bit_length() >= 20000
    # a numerator past _NEAR_TIE_BITS, with terms past it too, takes the
    # factored walk, where num*a_n == den is a near-tie only the exact
    # difference decides. The terms are too long for a readable assertion
    # report, so the index is asserted first, then the bit lengths, then
    # the terms themselves.
    assert (3**1300).bit_length() > _NEAR_TIE_BITS
    for num in (1, 3, 2**40 + 1, 3**1300):
        for den, answer in ((num * terms[n], n + 1), (num * terms[n] - 1, n)):
            expected = (answer, terms[answer], terms[answer + 1])
            got = [linear_index_below(params, num, den, 0)]
            for start in (1, n - 3, n):
                a, b = terms[start], terms[start + 1]
                got.append(checked(index_below(params, num, den, 1, start, a, b), num, den))
            for found in got:
                assert found[0] == answer
                assert [x.bit_length() for x in found[1:]] == [x.bit_length() for x in expected[1:]]
                assert found == expected
    # past the switch the walk settles num*a_n > num*a_n - 1 on a near-tie,
    # by the difference it forms, and hands that remainder back
    num, a, b = 3**1300, terms[n], terms[n + 1]
    assert index_below(params, num, num * a - 1, 1, n - 3, *terms[n - 3 : n - 1]) == (n, a, b, 1)


def test_index_below_steps_a_short_jump_from_the_pair_it_holds(monkeypatch):
    # Every seed with a1 < 30, from starts below the Fibonacci table's 93,
    # near 2000 bits and past them, to answers 1 to 700 indices on: the
    # bound 1/(a_n - 1) puts the answer at n, and 1/a_n (an exact
    # reciprocal) at n + 1. A guess k with 0 < k <= _STEP_JUMP steps from
    # (a_start, a_{start+1}) by F(k-1) and F(k), so it evaluates no F past
    # F(k+1), and a jump below start none at or above start; a longer guess
    # evaluates a_{start+k} afresh.
    calls = []
    fib_pair = sequences._fib_pair

    def recorded(n):
        calls.append(n)
        return fib_pair(n)

    monkeypatch.setattr(sequences, "_fib_pair", recorded)
    paths = set()
    for params in SEEDS:
        for start in (30, 90, 2880, 5760):  # a_2880 has 1999-2004 bits
            a, b = seq_pair(params, start)
            for gap in (1, 4, 29, 200, 700):
                a_n = seq_pair(params, start + gap)[0]
                for den, answer in ((a_n - 1, start + gap), (a_n, start + gap + 1)):
                    k = guessed_index(1, den, start, a) - start
                    scan = start, a, b  # the plain scan up the recurrence
                    while scan[1] <= den:
                        scan = scan[0] + 1, scan[2], scan[1] + scan[2]
                    assert scan[0] == answer
                    calls.clear()
                    assert checked(index_below(params, 1, den, 1, start, a, b), 1, den) == scan
                    if 0 < k <= _STEP_JUMP:
                        assert max(calls) <= k, (params, start, k)
                        paths.add("step below start" if k < start else "step")
                    elif k > 0:
                        assert start + k in calls, (params, start, k)
                        paths.add("afresh")
    assert paths == {"step below start", "step", "afresh"}


# positive integers of every size up to 10^3000, one to three per side
FACTOR = st.integers(min_value=0, max_value=3000).flatmap(
    lambda e: st.integers(min_value=1, max_value=10**e)
)
FACTORS = st.lists(FACTOR, min_size=1, max_size=3).map(tuple)


def leading_bounds_overlap(xs, ys):
    # the leading-bit bounds of the two products overlap, so only the full
    # products can decide
    _, lo_x, hi_x, sx = _lead(xs)
    _, lo_y, hi_y, sy = _lead(ys)
    return lo_x << sx <= hi_y << sy and lo_y << sy <= hi_x << sx


@settings(max_examples=400, deadline=None)
@given(FACTORS, FACTORS)
def test_exceeds_matches_products(xs, ys):
    assert _exceeds(xs, ys) == (prod(xs) > prod(ys))
    assert _exceeds(ys, xs) == (prod(ys) > prod(xs))


@settings(max_examples=400, deadline=None)
@given(FACTORS, st.data())
def test_exceeds_on_factors_with_the_same_leading_bits(xs, data):
    # each factor moved by a random amount of up to its own size, so the
    # products share many, some or none of their leading bits
    ys = []
    for x in xs:
        step = data.draw(st.integers(min_value=0, max_value=x.bit_length()))
        ys.append(max(1, x + data.draw(st.integers(min_value=-(2**step), max_value=2**step))))
    ys = tuple(ys)
    assert _exceeds(xs, ys) == (prod(xs) > prod(ys))
    assert _exceeds(ys, xs) == (prod(ys) > prod(xs))


@settings(max_examples=300, deadline=None)
@given(st.lists(FACTOR, min_size=2, max_size=3).map(tuple), st.sampled_from([-1, 0, 1]))
def test_exceeds_on_near_ties(xs, delta):
    # equal products grouped differently, and a product one away: the
    # leading bits cannot decide, and the full products must
    total = prod(xs)
    regrouped = (xs[0] * xs[1], *xs[2:])
    assert not _exceeds(xs, regrouped) and not _exceeds(regrouped, xs)
    if total + delta > 0:
        near = (total + delta,)
        assert _exceeds(xs, near) == (delta < 0)
        assert _exceeds(near, xs) == (delta > 0)


def test_exceeds_near_ties_reach_the_full_products():
    # products of up to 10^3000 that tie or differ by one, whose leading-bit
    # bounds overlap; one side ending in many zero bits, so its bounds are
    # exact and the other side's upper bound alone separates them
    u, v = 3**4000 + 1, 7**2500 << 300
    assert min(u.bit_length(), v.bit_length()) > 6000
    cases = [
        ((u, v), (u * v,)),
        ((u, v), (u * v + 1,)),
        ((u, v), (u * v - 1,)),
        ((u * v + 1,), (u, v)),
        ((v,), (v + 1,)),
        ((v + 1,), (v,)),
        ((2 * u, v), (u, 2 * v)),
        ((u, v, 3), (3 * u, v + 1)),
    ]
    for xs, ys in cases:
        assert leading_bounds_overlap(xs, ys)
        assert _exceeds(xs, ys) == (prod(xs) > prod(ys))
        assert _exceeds(ys, xs) == (prod(ys) > prod(xs))


def bits(n):
    # an n-bit integer that is not a power of two
    return (1 << (n - 1)) + 3


NT = _NEAR_TIE_BITS


def remainder_near_a_term(gap):
    # A remainder p/q - 1/a just above zero, in the form greedy_two_term and
    # oracle_best pass it: num = p*a - q over (q, a), with a below the switch,
    # num past it and bits(q*a) - bits(num) = gap, so the answer's term has
    # about gap bits.
    a, p = bits(NT - 100), 3 << (NT - 1)
    num = bits((p * a * a).bit_length() - gap)
    q = p * a - num
    assert num.bit_length() > NT and (q * a).bit_length() - num.bit_length() == gap
    return num, q, a


# (num, q, r, factored) on each side of the switch for each shape a caller
# passes: factored when r, or num and the answer's term (about q*r/num)
# both, have more than _NEAR_TIE_BITS bits. A one-factor bound (q, 1), as
# greedy's first pick and greedy_prefix's steps pass it: num and the answer's
# term across the switch, and a num past it with a term of about 10 bits, as
# in the last steps of a 64-term expansion, which stay plain. The
# remainder's (q, a): a across the switch, with a small answer term; and a
# remainder just above zero, with a below the switch and num past it.
SWITCH_CASES = [
    *[
        (bits(nb), bits(nb + gap), 1, nb > NT and gap > NT)
        for nb in (NT, NT + 1)
        for gap in (NT, NT + 1)
    ],
    (7, bits(2 * NT + 5), 1, False),
    (bits(NT + 1), bits(NT + 11), 1, False),
    *[(3 * bits(ab) - 1000, 1000, bits(ab), ab > NT) for ab in (NT, NT + 1)],
    *[(*remainder_near_a_term(gap), gap > NT) for gap in (NT, NT + 1)],
]


def bit_lengths(num, q, r):
    den = q.bit_length() if r == 1 else f"{q.bit_length()}x{r.bit_length()}"
    return f"{num.bit_length()}-over-{den}-bits"


@pytest.mark.parametrize("params", [FIBONACCI.params, SequenceParams(4, 5)])
@pytest.mark.parametrize(
    "num, q, r, factored", SWITCH_CASES, ids=[bit_lengths(*case[:3]) for case in SWITCH_CASES]
)
def test_index_below_takes_the_factored_walk_only_past_the_switch(
    monkeypatch, params, num, q, r, factored
):
    calls = []
    leading = sequences._leading_exceeds

    def counted(xs, ys):
        calls.append(len(ys))
        return leading(xs, ys)

    monkeypatch.setattr(sequences, "_leading_exceeds", counted)
    for start in (1, 40):
        a, b = seq_terms(params, start + 1)[start:]
        calls.clear()
        found = checked(index_below(params, num, q, r, start, a, b), num, q * r)
        assert found == linear_index_below(params, num, q * r, start)
        assert bool(calls) == factored
        # a factored walk compares against (q, r) alone, never q*r formed whole
        if factored:
            assert set(calls) == {2}


OVERSHOOT_CASES = [(1, bits(3000), 1)] + [case[:3] for case in SWITCH_CASES if case[3]]


@pytest.mark.parametrize(
    "num, q, r", OVERSHOOT_CASES, ids=[bit_lengths(*case) for case in OVERSHOOT_CASES]
)
def test_index_below_refuses_a_guess_that_overshoots(monkeypatch, num, q, r):
    # terms from 20 indices past the one asked for put the guess past the
    # answer, on the plain walk and on each factored one, whether the guess
    # is evaluated afresh or stepped to: (F(n+20), F(n+21)) stand in for
    # (F(n), F(n+1)), from a loop that does not recurse through the patch
    def shifted(n):
        f, g = 0, 1
        for _ in range(n + 20):
            f, g = g, f + g
        return f, g

    monkeypatch.setattr(sequences, "_fib_pair", shifted)
    with pytest.raises(SelfCheckError, match="overshoots"):
        index_below(FIBONACCI.params, num, q, r, 1, 1, 2)


def test_oracle_compares_factored_only_past_the_switch_in_a_g2(monkeypatch):
    # The oracle's one flag reads a_g2. At both ends of windows 478 and 479,
    # a_g1 has under 700 bits while a_g2 crosses _NEAR_TIE_BITS between them,
    # so the stop rule goes through _exceeds (and the candidate test through
    # _beats) at 479 alone, and both must give what the multiplied-out tests
    # give there.
    cases = []
    for params in (FIBONACCI.params, LUCAS.params, SequenceParams(4, 5)):
        for n in (478, 479):
            window = bad_interval(params, n)
            cases += [(params, window.left), (params, window.right)]
    monkeypatch.setattr(oracle, "_NEAR_TIE_BITS", 10**9)
    plain = [oracle_best(*case) for case in cases]
    monkeypatch.undo()
    calls = []
    exceeds = oracle._exceeds

    def counted(xs, ys):
        calls.append(len(xs))
        return exceeds(xs, ys)

    monkeypatch.setattr(oracle, "_exceeds", counted)
    paths = []
    for case, expected in zip(cases, plain):
        params, theta = case
        _, (x, _, y, _, _) = greedy._search(params, theta.numerator, theta.denominator)
        assert x.bit_length() < 700
        calls.clear()
        assert oracle_best(*case) == expected
        assert bool(calls) == (y.bit_length() > NT)
        paths.append(bool(calls))
    assert paths == [False, False, True, True] * 3


def test_xi_literal_counts_a_shift_at_the_floor():
    # For seeds (53, 56) at n = 0, bound = 109*165*274 = 4927890 and chi =
    # 2641: z_5 = 1865 equals bound // chi with z_5*chi < bound, so shift 5
    # still fits. Seeds with a1 < 400 at n <= 12 give five such inputs, all
    # at n = 0; a1 < 30 at n <= 60 gives none.
    #
    # An exact tie, chi*a_k == bound, is a different input, and only a
    # window below the seeds' n* can hold one: _cutoff proves
    # chi*a_{3j+t*-1} < bound < chi*a_{3j+t*+1} in every window, and from n*
    # on, _offset's n* puts chi*a_{3j+t*} strictly above the bound, so only
    # chi*a_{3j+t*} below n* could meet it. Every window below n* of every
    # valid seed with a1 < 2000 (47 371 windows on 764 550 seeds, n <= 6)
    # holds no tie, so flipping classify's a_g2*chi > bound to >= stays
    # unkillable by any known input (test_index_below_skips_an_exact_reciprocal).
    params = SequenceParams(53, 56)
    a2, a3 = seq_pair(params, 2)
    bound = a2 * a3 * (a2 + a3)
    assert (bound, params.chi) == (4927890, 2641)
    assert bound // params.chi == 1865 and 1865 * params.chi < bound
    assert xi_literal(params, 0) == xi(params, 0).xi == scanned_xi(params, 0) == 5


def test_classify_and_oracle_evaluate_no_term_again(monkeypatch):
    # Both take every term they need from the greedy search, which at 27/50
    # walks up from a_1 with no bit-length guess: no fast-doubling
    # evaluation runs at all.
    calls = []
    fib_pair = sequences._fib_pair

    def counted(n):
        calls.append(n)
        return fib_pair(n)

    monkeypatch.setattr(sequences, "_fib_pair", counted)
    seq_pair(FIBONACCI.params, 10)
    assert calls  # the counter sees an evaluation
    calls.clear()
    theta = Fraction(27, 50)
    assert not classify(FIBONACCI.params, theta).is_best
    assert calls == []
    assert oracle_best(FIBONACCI.params, theta).candidates_examined == 2
    assert calls == []


def test_classify_searches_only_for_the_greedy_pick(monkeypatch):
    # classify reads its window off the greedy pick, so wherever the target
    # lies it makes exactly greedy_two_term's two index searches and places
    # no cutoff: neither _cutoff's terms nor the seeds' offset are evaluated.
    # Inside a window, just above one, and at an odd first index.
    optimality._offset(FIBONACCI.params)  # so that bad_interval probes nothing
    calls = []

    def counted(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)

        return call

    monkeypatch.setattr(greedy, "index_below", counted("search", index_below))
    monkeypatch.setattr(optimality, "seq_pair", counted("term", seq_pair))
    monkeypatch.setattr(optimality, "seq_term", counted("term", sequences.seq_term))
    window = bad_interval(FIBONACCI.params, 30)
    assert calls == ["term"] * 2  # the counters see bad_interval's terms
    optimality._offset.cache_clear()  # a probe for the offset would count too
    targets = [Fraction(27, 50), Fraction(23, 42) + Fraction(1, 10**30), Fraction(1, 2)]
    targets += [(window.left + window.right) / 2, window.right + Fraction(1, 10**90)]
    for theta in targets:
        calls.clear()
        classify(FIBONACCI.params, theta)
        assert calls == ["search"] * 2


def test_a_pick_built_elsewhere_gives_the_same_answers(monkeypatch):
    # A GreedyResult built directly carries no terms of its search; classify
    # and oracle_best then evaluate a_g1, a_{g1+1}, a_g2 and a_{g2+1}
    # themselves.
    targets = [Fraction(k, 97) for k in range(1, 98)]
    cases = [(params, theta) for params in SEEDS[::9] for theta in targets]
    expected = [(classify(*case), oracle_best(*case)) for case in cases]
    real = greedy.greedy_two_term

    def rebuilt(params, theta):
        return GreedyResult(*real(params, theta))

    monkeypatch.setattr(optimality, "greedy_two_term", rebuilt)
    monkeypatch.setattr(oracle, "greedy_two_term", rebuilt)
    assert [(classify(*case), oracle_best(*case)) for case in cases] == expected


def test_a_pick_built_elsewhere_gets_its_terms_and_remainder_afresh():
    # _terms_of's fallback gives what the search found, the first
    # remainder's numerator r1 = p*a_g1 - q included, on either side of
    # _NEAR_TIE_BITS, inside a window and outside every one
    cases = [(FIBONACCI.params, Fraction(27, 50)), (SequenceParams(4, 5), Fraction(7, 10**1000))]
    cases.append((FIBONACCI.params, window_middle(1500)))
    for params, theta in cases:
        p, q = theta.numerator, theta.denominator
        pick, terms = greedy._search(params, p, q)
        assert terms[4] == p * terms[0] - q > 0
        assert greedy._terms_of(params, p, q, GreedyResult(*pick)) == terms


def window_middle(n):
    window = bad_interval(FIBONACCI.params, n)
    return (window.left + window.right) / 2


@pytest.mark.parametrize(
    "theta",
    [
        lambda: window_middle(3),
        lambda: Fraction(7, 10**30),
        lambda: window_middle(1500),
        lambda: Fraction(7, 10**1000),
    ],
    ids=["inside-small", "outside-small", "inside-past-near-tie", "outside-past-near-tie"],
)
def test_classify_and_oracle_search_for_the_greedy_pick_once(monkeypatch, theta):
    # oracle_best finds the pick classify asked for in greedy's memo, so the
    # pair makes greedy_two_term's two index searches once, not twice. Inside
    # a window and out of every window, with a_g1 under and past
    # _NEAR_TIE_BITS (window 1500's a_g1 has 2084 bits, 10^1000's about 3320).
    theta = theta()
    calls = []

    def counted(*args):
        calls.append(args)
        return index_below(*args)

    monkeypatch.setattr(greedy, "index_below", counted)
    classify(FIBONACCI.params, theta)
    oracle_best(FIBONACCI.params, theta)
    assert len(calls) == 2


def test_greedy_memo_keys_on_the_seeds_and_the_reduced_target(monkeypatch):
    # 1, Fraction(1) and Fraction(2, 2) are one target and share one entry;
    # other seeds are another key, and replace it.
    calls = []

    def counted(*args):
        calls.append(args[0])
        return index_below(*args)

    monkeypatch.setattr(greedy, "index_below", counted)
    first = greedy.greedy_two_term(FIBONACCI.params, 1)
    assert greedy.greedy_two_term(FIBONACCI.params, Fraction(1)) is first
    assert greedy.greedy_two_term(FIBONACCI.params, Fraction(2, 2)) is first
    assert calls == [FIBONACCI.params] * 2
    calls.clear()
    greedy.greedy_two_term(SequenceParams(2, 2), Fraction(2, 2))
    assert calls == [SequenceParams(2, 2)] * 2
    assert greedy.greedy_two_term(FIBONACCI.params, 1) == first
    assert len(calls) == 4  # the entry for fibonacci was replaced
    assert greedy._search.cache_info().currsize == 1


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


def exact_cutoff(params, n):
    # The cutoff by one index search from 2n+4 against the formed bound:
    # (a_{2n+2}, a_{2n+3}, xi(n), bound, a_{2n+3+xi(n)})
    a2, a3 = seq_pair(params, 2 * n + 2)
    bound = a2 * a3 * (a2 + a3)
    end, a, b, _ = index_below(params, params.chi, bound, 1, 2 * n + 4, a2 + a3, a2 + 2 * a3)
    return a2, a3, end - (2 * n + 4), bound, b - a


def mismatched_windows(cases):
    # (a0, a1, n) wherever xi or bad_interval differs from the exact search;
    # the terms are too long for a readable assertion report
    wrong = []
    for params, n in cases:
        a2, a3, x, bound, a_cut = exact_cutoff(params, n)
        window = optimality._window(params, n, a2, a3, a2 + a3, x, a_cut)
        if xi(params, n) != (n, x, bound, params.chi) or bad_interval(params, n) != window:
            wrong.append((params.a0, params.a1, n))
    return wrong


def phi_sign(x, y):
    # The sign of x + y*phi from exact rational brackets: F(k+1)/F(k) and
    # F(k+2)/F(k+1) lie on either side of phi, so x + y*phi lies between
    # x + y*F(k+1)/F(k) and x + y*F(k+2)/F(k+1), whose signs are those of
    # x*F(k) + y*F(k+1) and x*F(k+1) + y*F(k+2); k grows until both agree.
    if x == y == 0:
        return 0
    f, g, h = 1, 1, 2  # F(k), F(k+1), F(k+2) from k = 1
    while True:
        ends = (x * f + y * g, x * g + y * h)
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        f, g, h = g, h, g + h


def times_phi(x, y):
    # (a + b*phi)(c + d*phi) in Z[phi], from phi^2 = phi + 1
    (a, b), (c, d) = x, y
    return a * c + b * d, a * d + b * c + b * d


def plain_t_star(params):
    # t* from the definitions: A^2 multiplied out in Z[phi], and a scan up
    # from t = -2 over E_t = 5*chi*phi^t - A^2 with its sign from phi_sign
    chi = params.chi
    a = (params.a1 - params.a0, params.a0)
    a_sq = times_phi(a, a)
    t, power = -2, (2, -1)  # phi^-2 = 2 - phi
    while phi_sign(5 * chi * power[0] - a_sq[0], 5 * chi * power[1] - a_sq[1]) <= 0:
        t, power = t + 1, times_phi(power, (0, 1))
    assert t >= -1
    return t


def scanned_offset(params):
    # (t*, n*) with t* from plain_t_star and n* the first window, scanned up
    # from n = 0, where xi_literal's walk, which knows no offset, gives
    # 4n + 5 + t*
    t = plain_t_star(params)
    n = 0
    while xi_literal(params, n) != 4 * n + 5 + t:
        n += 1
    return t, n


def near_phi_seeds(top):
    # (F(k), F(k+1)) for k <= top wherever chi > 0: a1/a0 tends to phi, chi
    # stays 1 and t* = 2k - 3 grows without bound
    return [
        SequenceParams(fib(k), fib(k + 1))
        for k in range(1, top + 1)
        if fib(k) ** 2 + fib(k) * fib(k + 1) - fib(k + 1) ** 2 > 0
    ]


FAR = (FIBONACCI.params, LUCAS.params, SequenceParams(4, 5))


def counted_probes(monkeypatch):
    # _offset evaluates a term through optimality.seq_term only for its
    # probe, one comparison of chi*a_{6n+9+t*} with the window's bound
    calls = []
    term = optimality.seq_term

    def counted(*args):
        calls.append("probe")
        return term(*args)

    monkeypatch.setattr(optimality, "seq_term", counted)
    return calls


@pytest.mark.parametrize("params", [SequenceParams(1, 1), SequenceParams(3, 4), SequenceParams(89, 144)])
def test_offset_identity_holds_in_z_phi(params):
    # _offset's identity in integers: with A^3 = P + Q*phi and c_t =
    # 5*chi*a_t - Q, the phi part of A*E_t, it reads 5*(chi*a_{3j+t} -
    # bound) = A*E_t*F(3j) + c_t*psi^(3j) - 2*chi*a_j, and 5*bound =
    # P*F(3j) + Q*F(3j+1) + 2*chi*a_j, exactly, with psi^(3j) = F(3j+1) -
    # F(3j)*phi: the phi part of the right side vanishes.
    a0, a1, chi = params.a0, params.a1, params.chi
    a = (a1 - a0, a0)
    a_sq = times_phi(a, a)
    p, q = times_phi(a_sq, a)
    terms = seq_terms(params, 3 * 15 + 12)
    for j in range(3, 16, 2):
        bound = terms[j - 1] * terms[j] * terms[j + 1]
        f3j, f3j1 = fib(3 * j), fib(3 * j + 1)
        assert 5 * bound == p * f3j + q * f3j1 + 2 * chi * terms[j]
        psi = (f3j1, -f3j)
        for t in range(-2, 11):
            e = (5 * chi * fib(t - 1) - a_sq[0], 5 * chi * fib(t) - a_sq[1])
            c_t = 5 * chi * (a0 * fib(t - 1) + a1 * fib(t)) - q
            x, y = times_phi(times_phi(a, e), (f3j, 0))
            x, y = x + c_t * psi[0] - 2 * chi * terms[j], y + c_t * psi[1]
            assert (x, y) == (5 * (chi * terms[3 * j + t] - bound), 0)


def test_positive_matches_rational_brackets():
    small = [(x, y) for x in range(-30, 31) for y in range(-30, 31)]
    # s*psi^k + dx + dy*phi, with psi^k = F(k+1) - F(k)*phi: within a few
    # units of zero, and for dx = dy = 0 within |psi|^k of it
    near = [
        (s * fib(k + 1) + dx, -s * fib(k) + dy)
        for k in range(1, 400, 7)
        for s in (-1, 1, 3)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
    ]
    wrong = [(x, y) for x, y in small + near if optimality._positive(x, y) != (phi_sign(x, y) > 0)]
    assert wrong == []


def test_offset_matches_a_plain_scan(monkeypatch):
    # (t*, n*) for every seed with a1 < 30 and the near-phi seeds up to
    # k = 200 (t* up to 397, n* = 0); the walk from t*'s bit-length guess
    # takes at most three steps, and the doubling and bisection for n* at
    # most 2*bits(n*) + 1 probes
    positives = []
    positive = optimality._positive

    def counted(x, y):
        positives.append((x, y))
        return positive(x, y)

    monkeypatch.setattr(optimality, "_positive", counted)
    probes = counted_probes(monkeypatch)
    steps, wrong = [], []
    for params in SEEDS + near_phi_seeds(200) + [SequenceParams(269, 335)]:
        positives.clear()
        probes.clear()
        optimality._offset.cache_clear()  # so that each call walks
        t, n_star = optimality._offset(params)
        assert (t, n_star) == scanned_offset(params), params
        steps.append(len(positives) - 1)
        if len(probes) > 2 * n_star.bit_length() + 1:
            wrong.append(params)
    assert max(steps) <= 3
    assert wrong == []
    assert optimality._offset(FIBONACCI.params) == (-1, 0)
    assert optimality._offset(LUCAS.params) == (1, 0)
    assert optimality._offset(SequenceParams(15, 16)) == (-1, 1)
    assert optimality._offset(SequenceParams(269, 335)) == (0, 5)


def e2_positive(a0, a1):
    # E_2 = 5*chi*phi^2 - A^2 > 0, with phi^2 = 1 + phi and A^2 = u + v*phi
    chi = a0 * a0 + a1 * a0 - a1 * a1
    u, v = (a1 - a0) ** 2 + a0 * a0, a0 * (2 * a1 - a0)
    return optimality._positive(5 * chi - u, 5 * chi - v)


# a0 = 10^30 and a1 - a0 the largest e with E_2 > 0: E_{t*} is as small as
# seeds of this size allow, so the offset alone holds only from window 33 on
BIG_N_STAR = SequenceParams(10**30, 1459336969024328691631953268896)


def largest_e(a0):
    # the largest e with E_2 > 0 at seeds (a0, a0 + e), by bisection
    lo, hi = 0, a0
    while hi - lo > 1:
        lo, hi = ((lo + hi) // 2, hi) if e2_positive(a0, a0 + (lo + hi) // 2) else (lo, (lo + hi) // 2)
    return lo


def test_offset_of_a_seed_with_a_large_n_star():
    a0, a1 = BIG_N_STAR
    assert e2_positive(a0, a1) and not e2_positive(a0, a1 + 1)
    assert a0 + largest_e(a0) == a1
    optimality._offset.cache_clear()
    assert optimality._offset(BIG_N_STAR) == (2, 33)
    # xi_literal's walk, which knows no offset, takes the offset plus one at
    # exactly n < 33
    literal = [xi_literal(BIG_N_STAR, n) - (4 * n + 5 + 2) for n in range(36)]
    assert literal == [1] * 33 + [0] * 3
    assert [xi(BIG_N_STAR, n).xi for n in range(36)] == [4 * n + 7 + d for n, d in enumerate(literal)]


# (t*, n*) of the seeds (10^d, 10^d + e - less), e the largest with E_2 > 0:
# n* grows by about 1.2 per decimal digit of the seeds
LARGE_N_STAR = {
    (100, 0): (2, 117),
    (100, 1): (2, 116),
    (300, 0): (2, 356),
    (300, 1): (2, 356),
    (1000, 0): (2, 1195),
    (1000, 1): (2, 1193),
}


@pytest.mark.parametrize("d, less", list(LARGE_N_STAR), ids=[f"d{d}-e{-less or ''}" for d, less in LARGE_N_STAR])
def test_offset_at_a_large_n_star(monkeypatch, d, less):
    # the [n < n*] term across n* in the hundreds and thousands: xi and
    # xi_literal's walk agree on either side of n*, the doubling and
    # bisection stay within their probe bound, and the classifier and the
    # search agree in the last window at the offset plus one and the first
    # at the offset
    a0 = 10**d
    params = SequenceParams(a0, a0 + largest_e(a0) - less)
    probes = counted_probes(monkeypatch)
    optimality._offset.cache_clear()
    t, n_star = optimality._offset(params)
    assert (t, n_star) == LARGE_N_STAR[d, less]
    assert len(probes) <= 2 * n_star.bit_length() + 1
    for n in (n_star - 1, n_star, n_star + 1):
        assert xi_literal(params, n) == xi(params, n).xi == 4 * n + 5 + t + (n < n_star), n
    for n in (n_star - 1, n_star):
        window = bad_interval(params, n)
        for theta in (window.left, (window.left + window.right) / 2, window.right):
            assert disagreement(params, theta, classify(params, theta), oracle_best(params, theta)) is None, n


def n_star_bound(params):
    # the first n with 100*F(4n+7) > 1719*chi*a0^2, which _offset's
    # docstring proves is no smaller than n*
    rhs = 1719 * params.chi * params.a0**2
    n, f, g = 0, fib(7), fib(8)
    while 100 * f <= rhs:
        n, f, g = n + 1, 2 * f + 3 * g, 3 * f + 5 * g  # F(k+4), F(k+5)
    return n


def test_offset_within_its_proven_bound():
    # n* against the docstring's bounds, the integer test and
    # ceil(1.45*bits(a0)), on every seed with a1 < 30 and on the seeds
    # (10^d, 10^d + e), e the largest with E_2 > 0, whose n* is as large as
    # seeds of their size allow
    family = {10: 10, 30: 33, 100: 117, 300: 356, 1000: 1195}
    cases = [(params, None) for params in SEEDS]
    cases += [(SequenceParams(10**d, 10**d + largest_e(10**d)), n) for d, n in family.items()]
    wrong = []
    for params, expected in cases:
        _, n_star = optimality._offset(params)
        assert expected in (None, n_star), params
        if not n_star <= n_star_bound(params) or 20 * n_star > 29 * params.a0.bit_length() + 19:
            wrong.append(params)
    assert wrong == []


def phi_brackets(k):
    # F(k+1)/F(k) below phi and F(k+2)/F(k+1) above it, for odd k; phi is the
    # positive root of x^2 = x + 1, so a positive x lies below it exactly
    # when x^2 < x + 1
    lo, hi = Fraction(fib(k + 1), fib(k)), Fraction(fib(k + 2), fib(k + 1))
    assert lo * lo < lo + 1 and hi * hi > hi + 1
    return lo, hi


def test_constants_of_the_cutoff_proofs():
    # each numeric fact _offset's and _cutoff's proofs rest on, in exact
    # rationals, with each side bounded by the bracket end that is worse for
    # it; phi^9 = 76.01 leaves the thinnest margin
    lo, hi = phi_brackets(41)
    assert hi - lo < Fraction(1, 10**16)
    two_sqrt5 = (4 * lo - 2, 4 * hi - 2)  # 2*sqrt(5) = 4*phi - 2
    # _offset: |Ebar| < 8.5*a0^2 and |w| < 0.12*chi*a0 <= 0.04*chi*a_j, so
    # 4.43*chi*a_j < Y(n) < 4.52*chi*a_j; X grows by phi^6 and Y by under 3.1
    assert 5 * hi + 1 / lo**2 < Fraction(17, 2)
    assert lo**9 > 76
    assert Fraction(17, 2) / 76 < Fraction(12, 100)
    assert Fraction(12, 100) / 3 <= Fraction(4, 100)
    assert two_sqrt5[0] - Fraction(4, 100) > Fraction(443, 100)
    assert two_sqrt5[1] + Fraction(4, 100) < Fraction(452, 100)
    assert lo**6 > Fraction(179, 10)
    assert 3 * Fraction(452, 100) / Fraction(443, 100) < Fraction(31, 10) < Fraction(179, 10)
    # _offset's bound on n*: 8.5*4.52/sqrt(5) < 17.19, and phi^5.8 > 2^4 with
    # phi^6 > 17.9 > 17.19
    assert Fraction(17, 2) * Fraction(452, 100) / (2 * lo - 1) < Fraction(1719, 100)
    assert lo**29 > 2**20
    # _cutoff, at t* - 1: |Ebar_t| < 14*a0^2, and the psi term under a fifth
    assert 5 * hi**2 + 1 / lo**2 < 14
    assert Fraction(14, 76) < Fraction(1, 5)
    # _cutoff, at t* + 1: 2/phi^5 < 0.19, the psi term under A^3/12 and
    # under A^3*phi^8/500, and both together under the first term
    assert 2 / lo**5 < Fraction(19, 100)
    assert Fraction(6, 76) < Fraction(1, 12)
    assert lo**8 > Fraction(500, 12)
    assert Fraction(19, 100) + Fraction(1, 500) < 1


def test_identity_on_every_small_seed():
    # a_{k-1}*a_{k+1} - a_k^2 = (-1)^(k+1)*chi, with chi = a0*(a0 + a1) -
    # a1^2 as the oracle forms it, for every seed with a1 < 30, and the CI
    # seeds past it, for k <= 200
    wrong = []
    for params in SEEDS + [SequenceParams(89, 144), SequenceParams(269, 335), BIG_N_STAR]:
        chi = params.a0 * (params.a0 + params.a1) - params.a1**2
        terms = seq_terms(params, 201)
        for k in range(1, 201):
            if terms[k - 1] * terms[k + 1] - terms[k] ** 2 != (chi if k % 2 else -chi):
                wrong.append((params, k))
    assert wrong == []


@pytest.mark.parametrize("k", [1001, 5001])
def test_offset_of_near_phi_seeds_takes_one_probe(monkeypatch, k):
    # The seeds (F(k), F(k+1)) have n* = 0, so the doubling stops at its
    # first probe, n = 0
    probes = counted_probes(monkeypatch)
    optimality._offset.cache_clear()
    assert optimality._offset(SequenceParams(fib(k), fib(k + 1))) == (2 * k - 3, 0)
    assert probes == ["probe"]


def test_offset_is_kept_for_the_last_few_seeds():
    # a repeated seed is answered from the cache, with the same constants,
    # and the cache never holds more than eight seeds
    optimality._offset.cache_clear()
    for params in SEEDS[:20]:
        assert optimality._offset(params) == scanned_offset(params)
    assert optimality._offset.cache_info().currsize == 8
    hits = optimality._offset.cache_info().hits
    assert optimality._offset(SEEDS[19]) == scanned_offset(SEEDS[19])
    assert optimality._offset.cache_info().hits == hits + 1


def test_cutoff_evaluates_no_term_past_a_2n_3(monkeypatch):
    # Every seed with a1 < 30 at n = 0..60, and window 3000 on three seeds:
    # with the seeds' offset at hand, _cutoff evaluates the pair (a_{2n+2},
    # a_{2n+3}) and nothing else, its cutoff is 4n + 5 + t* + [n < n*]
    # from the plain scan, and xi and bad_interval equal the exact search.
    offsets = {params: scanned_offset(params) for params in SEEDS + list(FAR)}
    cases = [(params, n) for params in SEEDS for n in range(61)]
    cases += [(params, 3000) for params in FAR]
    assert sum(n < offsets[params][1] for params, n in cases) == 3
    calls = []

    def counted(name, function):
        def call(params, index):
            calls.append((name, index))
            return function(params, index)

        return call

    monkeypatch.setattr(optimality, "seq_pair", counted("pair", seq_pair))
    monkeypatch.setattr(optimality, "seq_term", counted("term", sequences.seq_term))
    path_wrong, offset_wrong = [], []
    for params, n in cases:
        optimality._offset(params)  # the cached offset, so that _cutoff probes nothing
        calls.clear()
        x = optimality._cutoff(params, n)[2]
        if calls != [("pair", 2 * n + 2)]:
            path_wrong.append((params, n))
        t, n_star = offsets[params]
        if x != 4 * n + 5 + t + (n < n_star):
            offset_wrong.append((params, n))
    assert path_wrong == []
    assert offset_wrong == []
    monkeypatch.undo()
    assert mismatched_windows(cases) == []


def test_cutoff_on_near_phi_seeds_takes_the_offset():
    # The seeds (F(k), F(k+1)), odd k up to 199, have n* = 0: xi equals
    # xi_literal's walk and 4n + 5 + t* at n = 0 and 1, and at n = k - 4
    # and k - 3, where the window index is as large as the seeds' own
    for k in range(1, 200, 2):
        params = SequenceParams(fib(k), fib(k + 1))
        t = plain_t_star(params)
        assert t == 2 * k - 3
        for n in {n for n in (0, 1, k - 4, k - 3) if n >= 0}:
            assert xi(params, n).xi == xi_literal(params, n) == 4 * n + 5 + t, (k, n)
    assert optimality._offset(SequenceParams(89, 144)) == (19, 0)


def test_cutoff_is_the_offset_plus_one_exactly_below_n_star():
    # The census behind xi(n) = 4n + 5 + t* + [n < n*]: every valid seed
    # with a1 < 200 (7701 seeds) at every window n <= n* + 2, the cutoff
    # taken from xi_literal's walk, which knows no offset; xi agrees with it
    # at each, and it exceeds 4n + 5 + t* by one below n* and by nothing
    # from n* on.
    seeds = [
        SequenceParams(a0, a1)
        for a1 in range(1, 200)
        for a0 in range(1, a1 + 1)
        if a0 * a0 + a1 * a0 - a1 * a1 > 0
    ]
    windows, plus, wrong = 0, [], []
    for params in seeds:
        t, n_star = optimality._offset(params)
        deltas = []
        for n in range(n_star + 3):
            x = xi_literal(params, n)
            deltas.append(x - (4 * n + 5 + t))
            if xi(params, n).xi != x:
                wrong.append((params.a0, params.a1, n))
        if deltas != [1] * n_star + [0] * 3:
            wrong.append((params.a0, params.a1, deltas))
        windows += len(deltas)
        plus += [(params.a0, params.a1)] * n_star
    assert wrong == []
    assert (len(seeds), windows, len(plus), len(set(plus))) == (7701, 23557, 454, 395)


def test_no_state_retained():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        xi(FIBONACCI.params, 5000)
        bad_interval(FIBONACCI.params, 5000)
        theta = Fraction(7, 10**3000)
        classify(FIBONACCI.params, theta)
        oracle_best(FIBONACCI.params, theta)
        greedy_prefix(FIBONACCI.params, theta, 8)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        # greedy's memo keeps the big target's pick until the next target
        # replaces it with a small one
        classify(FIBONACCI.params, Fraction(27, 50))
        gc.collect()
        held_after_small = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    assert greedy._search.cache_info().currsize == 1
    assert held_after_small < 4 << 10
    assert not hasattr(bad_interval, "cache_info")


def test_offset_cache_stays_small_at_the_seed_size_limit():
    # eight seeds of 4300 digits, the most the CLI reads (chi = 0.19*a1^2 > 0),
    # fill the cache; it keeps two small integers a seed beyond the seeds
    seeds = [SequenceParams(7 * (10**4299 + i) // 10, 10**4299 + i) for i in range(8)]
    optimality._offset.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for params in seeds:
            optimality._offset(params)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert optimality._offset.cache_info().currsize == 8
    optimality._offset.cache_clear()
    assert held < 16 << 10
