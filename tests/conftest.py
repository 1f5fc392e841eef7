import sys

import pytest


@pytest.fixture
def unlimited_int_strings():
    """Lift the interpreter's 4300-digit guard on int/str conversion for one
    test and restore it afterwards; every other test runs under the default."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)
