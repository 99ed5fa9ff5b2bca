"""``read_int``, the one reader of integers in input text, and ``shown``,
the one way an error message quotes input.

``read_int`` must read what ``int`` reads, spelling for spelling, and
refuse what ``int`` refuses; it differs only past 640 digits, where it
refuses a number whatever digit limit the interpreter is run with.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import diskfill  # noqa: E402
from diskfill import MAX_DIGITS, read_int, shown  # noqa: E402
from diskfill.errors import InputError  # noqa: E402

from test_parsers import LINE_EDITS  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def outcome(read, token):
    """("read", value), or ("refused",) for a ValueError of ``int`` or the
    ``bad ...`` InputError of ``read_int``."""
    try:
        return "read", read(token)
    except ValueError:
        return ("refused",)
    except InputError as exc:
        assert str(exc) == f"bad {shown(token)}"
        return ("refused",)


def read(token):
    return read_int(token, shown(token))


@pytest.mark.parametrize("edit", sorted(LINE_EDITS))
def test_the_parser_mutations_read_as_int_reads_them(edit):
    # the last token of an edited ``K 1`` line: +3, 03, Arabic-Indic and
    # fullwidth digits, a bad integer, a comment word, and so on
    token = LINE_EDITS[edit]("K 1").split()[-1]
    assert outcome(read, token) == outcome(int, token)


spellings = st.builds(
    lambda space, sign, zeros, n, digits: f"{space}{sign}{'0' * zeros}{digits(n)}{space}",
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "+", "-", "+-", "--"]),
    st.integers(0, 3),
    st.integers(0, 10**30),
    st.sampled_from([
        str,
        lambda n: f"{n:_}",
        lambda n: str(n).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
        lambda n: str(n).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
        lambda n: f"{n}x",
        lambda n: f"{n}.0",
        lambda n: f"_{n}",
    ]),
)


@PROPERTY
@given(spellings)
def test_every_short_spelling_reads_as_int_reads_it(token):
    assert outcome(read, token) == outcome(int, token)


@PROPERTY
@given(st.integers(-10**6, 10**6), st.integers(-3, 3), st.integers(0, 3))
def test_bounds(value, lo, width):
    hi = lo + width
    token = str(value)
    if lo <= value <= hi:
        assert read_int(token, "n", lo, hi) == value
    else:
        with pytest.raises(InputError, match=rf"^n outside {lo}\.\.{hi}$"):
            read_int(token, "n", lo, hi)


def test_past_640_digits():
    assert MAX_DIGITS == 640
    assert read_int("9" * 640, "n") == int("9" * 640)
    assert read_int("-" + "0" * 5000 + "42", "n") == -42  # leading zeros are no digits
    assert read_int("0" * 700 + "_5", "n") == 5
    assert read_int(" +" + "0" * 700 + " ", "n") == 0
    with pytest.raises(InputError, match="^n has more than 640 digits$"):
        read_int("9" * 641, "n")
    with pytest.raises(InputError, match="^n has more than 640 digits$"):
        read_int("-0" + "1_2" * 400, "n")
    with pytest.raises(InputError, match=r"^n outside -5\.\.5$"):  # bounded: out of range
        read_int("9" * 5000, "n", -5, 5)
    with pytest.raises(InputError, match="^bad n$"):  # not a number, however long
        read_int("9" * 5000 + "x", "n")
    with pytest.raises(InputError, match="^bad n$"):
        read_int("x" * 5000, "n")


# (token, what read_int(token, "n") prints as below) under any digit limit
TOKENS = [
    ("1" * 640, "111"),
    ("1" * 641, "InputError n has more than 640 digits"),
    ("0" * 700 + "1", "1"),
    ("-" + "0_" * 2200 + "7", "993"),
    ("7" * 5000, "InputError n has more than 640 digits"),
    ("1_" * 400 + "1", "111"),  # 801 characters, 401 digits
    ("0" * 700 + "x", "InputError bad n"),
    ("x" * 700, "InputError bad n"),
]


@pytest.mark.parametrize("limit", ["640", "4300", "0"])
def test_the_interpreter_digit_limit_decides_nothing(limit):
    probe = ("import sys; from diskfill import read_int\n"
             "for token in sys.stdin.read().split():\n"
             "    try: print(read_int(token, 'n') % 1000)\n"
             "    except Exception as exc: print(type(exc).__name__, exc)\n")
    src = str(Path(diskfill.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], input=" ".join(t for t, _ in TOKENS),
                            text=True, capture_output=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": limit})
    assert result.stdout.splitlines() == [printed for _, printed in TOKENS], result.stderr


def test_shown():
    assert shown("x" * 60) == repr("x" * 60)
    assert shown("it's") == repr("it's")
    assert shown("") == "''"
    assert shown("1" * 61) == "'" + "1" * 59 + "... (61 characters)"
    assert shown("\x00" * 5000) == repr("\x00" * 15)[:60] + "... (5000 characters)"
    assert len(shown(" " * 10**6)) < 90
