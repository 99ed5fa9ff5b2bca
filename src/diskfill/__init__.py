"""diskfill: invariants and certificates for ribbon-disk fillings.

The pieces fit together like this: ``groups`` holds presentations of
disk-exterior fundamental groups and their abelianizations, ``fox``
turns a presentation plus a weight map into an Alexander polynomial over
the exact Laurent ring in ``laurent``, ``front`` models Legendrian front
diagrams with their filling moves and certificate checker, and
``kauffman`` computes the two-variable Kauffman polynomial of a PD-coded
diagram together with the Thurston-Bennequin upper bound it implies.
``cli`` wires everything to the command line; bundled data files live in
``diskfill/data``.  Every input file format shares one comment rule:
``#`` starts a comment, and a line blank without it is skipped.  They
share one integer rule too, ``read_int``, which also reads the integers
of the command line, and an error quotes input through ``shown`` and a
number that may be long through ``shown_int``.

Every record is a named tuple.  What one derives from its fields (a
``LinkDiagram``'s dart map, a ``cached_property``) lives in its instance
dict, outside equality, hash and repr.
"""

import math
import re
from pathlib import Path

from .errors import InputError

__version__ = "0.1.0"

_DATA = Path(__file__).with_name("data")


def data_path(name):
    """Filesystem path of a bundled data file, looked up by its bare file
    name: a name with a directory part is never found."""
    path = _DATA / name
    if path.name != name or not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


def content_lines(text):
    """(line number from 1, line) for each line of an input file that is
    not blank once its ``#`` comment is cut and whitespace stripped.

    A list, not a generator: resuming a generator once per line costs
    more on the long fronts and certificates a replay reads.
    """
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


MAX_DIGITS = 640  # the least limit an interpreter may set on what int() reads
_LEADING_ZEROS = re.compile(r"^(?:0_?)+(?=\d)")  # as int() reads them: 0_0_7 is 7


def read_int(token, what, lo=None, hi=None):
    """``int(token)``, in ``lo..hi`` when bounds are given, or an InputError:
    ``bad {what}``, ``{what} outside lo..hi`` (``below lo`` if no hi), or
    ``{what} has more than 640 digits`` past its sign and leading zeros
    (outside lo..hi when bounded).  A longer token loses those zeros first,
    so that the interpreter's own digit limit never decides."""
    if len(token) > MAX_DIGITS:
        body = token.strip()
        sign = body[:1] if body[:1] in ("+", "-") else ""
        digits = _LEADING_ZEROS.sub("", body[len(sign):])
        if len(digits) - digits.count("_") > MAX_DIGITS and digits.replace("_", "").isdecimal():
            raise InputError(f"{what} outside {lo}..{hi}" if hi is not None
                             else f"{what} has more than {MAX_DIGITS} digits")
        token = sign + digits
    try:
        value = int(token)
    except ValueError:
        raise InputError(f"bad {what}") from None
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise InputError(f"{what} outside {lo}..{hi}" if hi is not None else f"{what} below {lo}")
    return value


def shown(text):
    """How an error quotes input: ``repr``, cut after 60 characters and
    followed by the length of a longer text."""
    return repr(text) if len(text) <= 60 else f"{repr(text)[:60]}... ({len(text)} characters)"


def digit_count(n):
    """The decimal digits of ``abs(n)``, counted without ``str``."""
    n = abs(n)
    digits = int((n.bit_length() - 1) * math.log10(2)) + 1  # the count, or one short
    return digits + (n >= 10**digits)


def shown_int(n):
    """``str(n)`` up to 60 digits, else ``<N digits>`` as ``cli.main`` prints
    a longer number, which the interpreter's digit limit cannot refuse."""
    digits = digit_count(n)
    return str(n) if digits <= 60 else f"{'-' * (n < 0)}<{digits} digits>"


def comment_header(header):
    """The ``# `` comment lines a rendered file starts with, one per line
    of ``header``; none for None."""
    return [] if header is None else [f"# {line}" for line in header.splitlines()]
