import sys

import pytest

from fibgreedy import greedy, rationals


@pytest.fixture(autouse=True)
def fresh_greedy_memo():
    """Start every test with greedy's one-entry memo empty, so a test that
    counts calls or patches the search's internals never reads a pick an
    earlier test left there."""
    greedy._search.cache_clear()


@pytest.fixture
def unlimited_int_strings():
    """Lift the interpreter's 4300-digit guard on int/str conversion for one
    test and restore it afterwards; every other test runs under the default."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture
def fib_pair_calls(monkeypatch):
    """The index of every _fib_pair call that rationals makes during one test,
    in order: which F(k) _reciprocal_sum evaluated tells its route."""
    calls = []
    fib_pair = rationals._fib_pair

    def recorded(k):
        calls.append(k)
        return fib_pair(k)

    monkeypatch.setattr(rationals, "_fib_pair", recorded)
    return calls


@pytest.fixture
def gcd_calls(monkeypatch):
    """The arguments of every gcd call that rationals makes during one test,
    in order: how large they are tells the reduction's route."""
    calls = []
    gcd = rationals.gcd

    def recorded(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(rationals, "gcd", recorded)
    return calls
