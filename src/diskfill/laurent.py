"""Exact integer Laurent polynomials in one variable (t) and two (a, z).

One sparse implementation carries both rings; two named types over it keep
them apart.  ``IntLaurent`` models Z[t, t^-1] and carries Alexander
polynomials and abelianized Fox derivatives; its terms are keyed by int
exponents.  ``BiLaurent`` models Z[a^±1, z^±1] for skein computations;
its terms are keyed by ``(ea, ez)`` exponent pairs.  A finished knot
polynomial has only z-exponents >= 0 but intermediate skein values may
not.  Ints coerce into either type; mixing the two types in arithmetic
raises ``TypeError``, and a value of one never equals a value of the other.

Terms are stored sparsely as key -> coefficient maps with no zero
entries, so two values are equal exactly when their term maps agree.
Coefficients are Python ints: arithmetic is exact and arbitrary
precision, so overflow cannot occur.  Values are immutable and hashable;
operations return fresh values and are safe to share across threads.

The text format used by the CLI and golden files writes terms in
descending exponent order with ``^`` for exponents and ``*`` between
factors, e.g. ``4*t^2 - 4*t + 1`` and ``a + a^-2*z``.  ``parse`` accepts
the same grammar with arbitrary whitespace and optional ``*``.
"""

from __future__ import annotations

import operator
import re
from math import gcd as _int_gcd

from . import read_int, shown
from .errors import BudgetError, InputError

__all__ = [
    "IntLaurent",
    "BiLaurent",
    "normalize_unit",
    "unit_equivalent",
    "substitute_inverse",
    "laurent_gcd",
    "div_exact",
    "min_deg_a",
]

MAX_DENSE_SPAN = 1_000_000  # exponents one dense coefficient list may span


def _clean(items):
    terms = {}
    for exp, coeff in items:
        terms[exp] = terms.get(exp, 0) + coeff
    return {exp: coeff for exp, coeff in terms.items() if coeff}


class _Laurent:
    """The sparse term map and ring operations shared by both named types.

    A subclass names its variables (``_VARIABLES``), the key of its
    constant term (``_ONE``) and how two keys add under multiplication
    (``_add_keys``).  Values of different subclasses never mix.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _clean(terms)

    @classmethod
    def _make(cls, terms):
        """Wrap a term map that already has no zero coefficients."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    def _coerce(self, other):
        if isinstance(other, int):
            return self.constant(other)
        return other if isinstance(other, type(self)) else None

    @classmethod
    def constant(cls, c):
        return cls({cls._ONE: c})

    @property
    def terms(self):
        return dict(self._terms)

    def coefficient(self, key):
        return self._terms.get(key, 0)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its int, so it must hash like it
        constant = self._terms.get(self._ONE, 0)
        if len(self._terms) == (1 if constant else 0):
            return hash(constant)
        return hash(frozenset(self._terms.items()))

    def __neg__(self):
        return self._make({key: -c for key, c in self._terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for key, c in other._terms.items():
            c += terms.get(key, 0)
            if c:
                terms[key] = c
            else:
                del terms[key]
        return self._make(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        add_keys = self._add_keys
        acc = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = add_keys(k1, k2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return self._make({key: c for key, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = self.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self):
        return _render(self._terms.items(), self._VARIABLES)

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    @classmethod
    def parse(cls, text):
        return cls(_parse_terms(text, cls._VARIABLES))


class IntLaurent(_Laurent):
    """An integer Laurent polynomial in the variable t, keyed by int exponents."""

    __slots__ = ()
    _VARIABLES = ("t",)
    _ONE = 0
    _add_keys = staticmethod(operator.add)
    # bound here, not inherited: perfbench/tracing.py wraps each type's own __mul__
    __mul__ = __rmul__ = _Laurent.__mul__

    @classmethod
    def t(cls, power=1):
        return cls({power: 1})

    def min_exp(self):
        if not self._terms:
            raise ValueError("the zero polynomial has no minimal exponent")
        return min(self._terms)

    def max_exp(self):
        if not self._terms:
            raise ValueError("the zero polynomial has no maximal exponent")
        return max(self._terms)

    def shifted(self, k):
        """Multiply by t^k."""
        return self._make({e + k: c for e, c in self._terms.items()})


class BiLaurent(_Laurent):
    """An integer Laurent polynomial in a and z, keyed by (ea, ez) pairs."""

    __slots__ = ()
    _VARIABLES = ("a", "z")
    _ONE = (0, 0)
    _add_keys = staticmethod(lambda k1, k2: (k1[0] + k2[0], k1[1] + k2[1]))
    # bound here, not inherited: perfbench/tracing.py wraps each type's own __mul__
    __mul__ = __rmul__ = _Laurent.__mul__

    @classmethod
    def a(cls, power=1):
        return cls({(power, 0): 1})

    @classmethod
    def z(cls, power=1):
        return cls({(0, power): 1})

    def min_z_exp(self):
        if not self._terms:
            raise ValueError("the zero polynomial has no z-degree")
        return min(ez for (_, ez) in self._terms)


# -- rendering and parsing ------------------------------------------------
#
# A one-variable key is the bare exponent; a key in several variables is the
# tuple of their exponents, in the order of ``variables``.

def _render(items, variables):
    items = sorted(items, key=lambda item: item[0], reverse=True)
    if not items:
        return "0"
    pieces = []
    for key, coeff in items:
        exps = key if len(variables) > 1 else (key,)
        factors = [
            var if exp == 1 else f"{var}^{exp}" for var, exp in zip(variables, exps) if exp
        ]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<int>\d+)|(?P<var>[A-Za-z])(?:\^(?P<exp>-?\d+))?|(?P<mul>\*))")


def _parse_terms(text, variables):
    """Parse a polynomial string into (key, coefficient) items."""
    text = text.strip()
    quoted = shown(text)
    pos, n = 0, len(text)
    items = []
    sign, coeff, exps, in_term = 1, None, None, False
    dangling = False  # a sign or '*' waits for the factor after it

    def flush():
        nonlocal sign, coeff, exps, in_term
        if in_term:
            key = tuple(exps) if len(variables) > 1 else exps[0]
            items.append((key, sign * (1 if coeff is None else coeff)))
        sign, coeff, exps, in_term = 1, None, None, False

    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise InputError(f"cannot parse polynomial near {shown(text[pos:pos + 12])}")
        pos = m.end()
        operator = m.group("sign") or m.group("mul")
        if operator and dangling:
            raise InputError(f"a sign or '*' with no factor after it in {quoted}")
        dangling = bool(operator)
        if operator == "*" and not in_term:
            raise InputError(f"a '*' with no factor before it in {quoted}")
        if m.group("sign"):
            if in_term:
                flush()
            sign = -sign if m.group("sign") == "-" else sign
        elif m.group("int"):
            if in_term and coeff is not None:
                raise InputError(f"two bare integers in one term of {quoted}")
            if exps is None:
                exps = [0] * len(variables)
            coeff = read_int(m.group("int"), f"coefficient in {quoted}")
            in_term = True
        elif m.group("var"):
            var = m.group("var")
            if var not in variables:
                raise InputError(f"unknown variable {shown(var)} in {quoted}")
            if exps is None:
                exps = [0] * len(variables)
            exp = read_int(m.group("exp") or "1", f"exponent in {quoted}")
            exps[variables.index(var)] += exp
            in_term = True
        # '*' tokens just separate factors
    if dangling:
        raise InputError(f"a sign or '*' with no factor after it in {quoted}")
    flush()
    if not items and text.strip() not in ("", "0"):
        raise InputError(f"cannot parse polynomial {quoted}")
    return items


# -- unit normalization and equivalence -----------------------------------

def normalize_unit(p):
    """Canonical representative of p up to multiplication by ±t^k.

    The minimal exponent is shifted to 0 and the sign is fixed so the
    constant coefficient is positive.  Rejects the zero polynomial.
    """
    if not p:
        raise ValueError("the zero polynomial has no unit normalization")
    q = p.shifted(-p.min_exp())
    if q.coefficient(0) < 0:
        q = -q
    return q


def substitute_inverse(p):
    """Apply t -> t^-1."""
    return IntLaurent({-e: c for e, c in p.terms.items()})


def unit_equivalent(p, q, allow_inversion=False):
    """True when p and q agree up to units ±t^k.

    With ``allow_inversion`` the comparison also quotients by the ring
    involution t -> t^-1.  Zero is equivalent only to zero.
    """
    if not p or not q:
        return not p and not q
    if normalize_unit(p) == normalize_unit(q):
        return True
    if allow_inversion:
        return normalize_unit(p) == normalize_unit(substitute_inverse(q))
    return False


# -- division and gcd ------------------------------------------------------
#
# Both routines work on dense integer coefficient lists (low -> high) and
# never leave Z.  Exact division is long division that gives up at the first
# leading coefficient the divisor's lead does not divide, which over Z is
# exactly when the quotient over Q is not integral.  The gcd runs a primitive
# pseudo-remainder sequence (each remainder scaled to stay integral, then
# divided by its content); by Gauss's lemma its last nonzero term times the
# gcd of the two inputs' contents is the gcd in Z[t].

def _dense(p):
    """Return (min_exp, coefficient list low->high) for a nonzero p.

    The list holds one entry per exponent in the span, so a span past
    ``MAX_DENSE_SPAN`` is refused before anything is allocated."""
    lo, hi = p.min_exp(), p.max_exp()
    if hi - lo > MAX_DENSE_SPAN:
        raise BudgetError(f"a polynomial spans {hi - lo} exponents, past the "
                          f"{MAX_DENSE_SPAN} that exact division and gcd handle")
    return lo, [p.coefficient(e) for e in range(lo, hi + 1)]


def _from_dense(lo, coeffs):
    return IntLaurent({lo + i: c for i, c in enumerate(coeffs) if c})


def div_exact(p, q):
    """Return p / q when q divides p in Z[t, t^-1], else None."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return IntLaurent()
    plo, rem = _dense(p)
    qlo, qc = _dense(q)
    if len(rem) < len(qc):
        return None
    top = len(qc) - 1
    lead = qc[-1]
    quot = [0] * (len(rem) - top)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + top]
        if not c:
            continue
        f, r = divmod(c, lead)
        if r:
            return None
        quot[k] = f
        for i, d in enumerate(qc):
            rem[k + i] -= f * d
    if any(rem[:top]):
        return None
    return _from_dense(plo - qlo, quot)


def _content(coeffs):
    g = 0
    for c in coeffs:
        g = _int_gcd(g, c)
    return g


def _primitive(coeffs):
    g = _content(coeffs)
    return [c // g for c in coeffs]


def _pseudo_rem(a, b):
    """A nonzero integer multiple of the remainder of a by b over Q."""
    rem = a[:]
    lead = b[-1]
    while len(rem) >= len(b):
        g = _int_gcd(rem[-1], lead)
        scale, f = lead // g, rem[-1] // g
        shift = len(rem) - len(b)
        rem = [c * scale for c in rem]
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        while rem and not rem[-1]:
            rem.pop()
    return rem


def laurent_gcd(p, q):
    """A gcd of p and q in Z[t, t^-1], in normalize_unit canonical form.

    t is a unit, so powers of t never appear as factors; the integer
    content does matter and is the gcd of the two contents.
    """
    if not p and not q:
        raise ValueError("gcd of two zero polynomials is undefined")
    if not p:
        return normalize_unit(q)
    if not q:
        return normalize_unit(p)
    _, pc = _dense(p)
    _, qc = _dense(q)
    content = _int_gcd(_content(pc), _content(qc))
    a, b = _primitive(pc), _primitive(qc)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return normalize_unit(_from_dense(0, [c * content for c in a]))


# -- BiLaurent helpers ------------------------------------------------------

def min_deg_a(f):
    """Least a-exponent carrying a nonzero coefficient."""
    if not f:
        raise ValueError("the zero polynomial has no a-degree")
    return min(ea for (ea, _) in f.terms)
