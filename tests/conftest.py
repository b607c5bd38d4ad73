"""Shared fixtures."""
import sys

import pytest


@pytest.fixture
def big_int_text():
    """Lift the interpreter's integer digit limit for one test, so that it
    can ``int()`` the longest decimal strings in a report, and restore the
    previous limit afterwards.  The library itself never changes it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def default_digit_limit():
    """Run one test at the interpreter's default integer digit limit,
    whatever limit the process was started with, and restore it afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
