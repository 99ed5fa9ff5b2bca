"""Answer checks that do not use the package under test.

The benchmark parses the ``--machine`` output of every operation and
checks it against values derived here: the paper's values, closed forms
(torus-knot Alexander polynomials, pretzel determinants, the
specializations F(1, 2) = det^2 and F(1, -2) = (-2)^(c-1) of the
Kauffman polynomial), exact permutation arithmetic, and integer matrix
identities.  Checks that relate two operations (Tietze invariance,
trimmed versus full Wirtinger presentations, mirror pairs, tb bound
versus Kauffman polynomial) run over the whole run's results.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from fractions import Fraction


class CheckError(Exception):
    """An operation's answer is wrong."""


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def machine_fields(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def field(fields, key):
    expect(key in fields, f"missing field {key!r}")
    return fields[key]


# -- polynomials ------------------------------------------------------------------

_INT = re.compile(r"\d+")
_FACTOR = re.compile(r"\*?([a-z])(?:\^(-?\d+))?")


def parse_poly(text, variables):
    """Parse ``4*t^2 - 4*t + 1`` into {exponent tuple: coefficient}."""
    s = text.replace(" ", "")
    expect(s != "", "empty polynomial")
    if s == "0":
        return {}
    terms = {}
    pos = 0
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        m = _INT.match(s, pos)
        coeff = 1
        if m:
            coeff = int(m.group())
            pos = m.end()
        exps = [0] * len(variables)
        while True:
            m = _FACTOR.match(s, pos)
            if not m:
                break
            expect(m.group(1) in variables, f"unknown variable in {text!r}")
            exps[variables.index(m.group(1))] += int(m.group(2) or 1)
            pos = m.end()
        expect(pos == len(s) or s[pos] in "+-", f"cannot parse polynomial {text!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return {k: c for k, c in terms.items() if c}


def parse_t(text):
    return {k[0]: c for k, c in parse_poly(text, "t").items()}


def parse_az(text):
    return parse_poly(text, "az")


def canonical(p):
    """Shift to minimal exponent 0 and make the constant term positive."""
    expect(p, "zero polynomial")
    lo = min(p)
    sign = 1 if p[lo] > 0 else -1
    return tuple(sorted((e - lo, sign * c) for e, c in p.items()))


def invert(p):
    return {-e: c for e, c in p.items()}


def equivalent(p, q):
    """Equal up to units +-t^k and t -> t^-1."""
    return canonical(p) == canonical(q) or canonical(p) == canonical(invert(q))


def evaluate(p, x):
    return sum(c * Fraction(x) ** e for e, c in p.items())


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divide(num, den):
    num = num[:]
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        if r:
            raise ValueError("inexact division")
        quot[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    if any(num):
        raise ValueError("inexact division")
    return quot


def _t_power_minus_one(n):
    return [-1] + [0] * (n - 1) + [1]


def torus_alexander(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) as {exponent: coefficient}."""
    num = _mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    den = _mul(_t_power_minus_one(p), _t_power_minus_one(q))
    return {e: c for e, c in enumerate(_divide(num, den)) if c}


def fox_row(relator, weights):
    """Abelianized Fox derivatives of one relator, as {exponent: coefficient}."""
    row = [Counter() for _ in weights]
    prefix = 0
    for x in relator:
        g = abs(x) - 1
        if x > 0:
            row[g][prefix] += 1
            prefix += weights[g]
        else:
            prefix -= weights[g]
            row[g][prefix] -= 1
    return [{e: c for e, c in entry.items() if c} for entry in row]


def parse_row(text, parse):
    expect(text.startswith("[") and text.endswith("]"), f"bad row {text!r}")
    body = text[1:-1].strip()
    return [parse(x) for x in body.split(",")] if body else []


# -- Alexander answers ------------------------------------------------------------------

def check_alexander(out, pres, expected=None, det=None, with_map=True):
    """Check an ``alexander --machine`` answer; return the canonical polynomial.

    Without a map line in the input the program chooses the surjection
    onto Z itself, which is unique up to sign; the opposite sign turns
    the expected polynomial into its image under t -> t^-1.
    """
    gens, relators, weights = pres
    f = machine_fields(out)
    expect(field(f, "h1") == "Z", f"h1 {f.get('h1')!r}, expected Z")
    want_map = " ".join(f"{g}={w}" for g, w in zip(gens, weights))
    flipped = " ".join(f"{g}={-w}" for g, w in zip(gens, weights))
    if not with_map and field(f, "map") == flipped:
        weights = tuple(-w for w in weights)
        expected = None if expected is None else invert(expected)
    else:
        expect(field(f, "map") == want_map, f"map {f['map']!r}, expected {want_map!r}")
    for i, r in enumerate(relators, start=1):
        row = parse_row(field(f, f"matrix_row_{i}"), parse_t)
        expect(row == fox_row(r, weights), f"matrix row {i} differs from the Fox derivatives")
    expect(f"matrix_row_{len(relators) + 1}" not in f, "extra matrix rows")
    return check_polynomial(field(f, "polynomial"), expected, det)


def check_polynomial(text, expected=None, det=None):
    """A canonical-form Alexander polynomial of a group with H1 = Z.

    With ``det`` the group is a knot group: the polynomial must also be
    symmetric and satisfy |Delta(-1)| = det.
    """
    poly = parse_t(text)
    expect(poly, "zero Alexander polynomial")
    canon = canonical(poly)
    expect(tuple(sorted(poly.items())) == canon, f"{text!r} is not in canonical unit form")
    expect(abs(evaluate(poly, 1)) == 1, f"|Delta(1)| != 1 for {text!r}")
    if det is not None:
        expect(canon == canonical(invert(poly)), f"{text!r} is not symmetric")
        expect(abs(evaluate(poly, -1)) == det, f"|Delta(-1)| of {text!r} is not {det}")
    if expected is not None:
        expect(canon == canonical(expected), f"polynomial {text!r} differs from the expected one")
    return canon


def check_compare(out, expected_a, expected_b):
    """``compare`` prints no weights, so its polynomials are fixed only up to t -> t^-1."""
    f = machine_fields(out)
    a = check_polynomial(field(f, "polynomial_a"))
    b = check_polynomial(field(f, "polynomial_b"))
    expect(equivalent(dict(a), expected_a), "polynomial_a differs from the expected one")
    expect(equivalent(dict(b), expected_b), "polynomial_b differs from the expected one")
    expect(field(f, "equivalence") == "units and inversion", "wrong equivalence")
    verdict = "INDISTINGUISHABLE" if equivalent(dict(a), dict(b)) else "DISTINCT"
    expect(field(f, "verdict") == verdict, f"verdict {f['verdict']}, expected {verdict}")
    return a, b


# -- Kauffman answers ----------------------------------------------------------------------

def check_kauffman(out, det, components):
    """Check a ``kauffman --machine`` answer; return the polynomial as a dict."""
    f = machine_fields(out)
    poly = parse_az(field(f, "polynomial"))
    expect(poly, "zero Kauffman polynomial")
    at_two = sum(c * Fraction(2) ** ez for (_, ez), c in poly.items())
    at_minus_two = sum(c * Fraction(-2) ** ez for (_, ez), c in poly.items())
    expect(at_two == det * det, f"F(1, 2) = {at_two}, expected det^2 = {det * det}")
    expect(at_minus_two == (-2) ** (components - 1), f"F(1, -2) = {at_minus_two}")
    if components == 1:
        expect(min(ez for _, ez in poly) >= 0, "knot polynomial with negative z powers")
    expect(int(field(f, "min_deg_a")) == min(ea for ea, _ in poly), "min_deg_a mismatch")
    return poly


def a_mirror(poly):
    return {(-ea, ez): c for (ea, ez), c in poly.items()}


def check_tb_bound(out, expected=None):
    bound = int(field(machine_fields(out), "bound"))
    if expected is not None:
        expect(bound == expected, f"tb bound {bound}, expected {expected}")
    return bound


# -- fronts ------------------------------------------------------------------------------------

def check_accept(out, pinches, deaths):
    f = machine_fields(out)
    want = {"result": "ACCEPT", "pinches": str(pinches), "deaths": str(deaths),
            "euler": "1", "genus": "0", "tb": "-1", "tb_check": "ok"}
    for key, value in want.items():
        expect(field(f, key) == value, f"{key} {f.get(key)!r}, expected {value!r}")


def check_reject(err, step, reason):
    """A rejected certificate must name the step (or the reason) it failed at."""
    if step is None:
        expect(reason in err, f"rejection does not mention {reason!r}: {err.strip()!r}")
    else:
        prefix = f"verification failure: step {step} ("
        expect(err.startswith(prefix), f"rejection {err.strip()!r} is not at step {step}")


def check_tb(out):
    f = machine_fields(out)
    for key, value in (("components", "1"), ("tb_1", "-1"), ("rot_1", "0")):
        expect(field(f, key) == value, f"{key} {f.get(key)!r}, expected {value}")


def file_lines(path):
    lines = []
    for raw in open(path).read().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def check_connect(out, front_path, cert_path, events, steps, pinches, deaths):
    f = machine_fields(out)
    for key, value in (("result", "ACCEPT"), ("tb", "-1"), ("euler", "1")):
        expect(field(f, key) == value, f"{key} {f.get(key)!r}, expected {value}")
    expect(file_lines(front_path) == [f"{k} {p}" for k, p in events],
           "connected front differs from the splice")
    written = file_lines(cert_path)
    expect(written[0] == f"EXPECT {pinches} {deaths}", f"declared surface {written[0]!r}")
    expect(written[1:] == list(steps), "composed certificate differs")


# -- groups ---------------------------------------------------------------------------------------

def _compose(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _evaluate(word, images, n):
    acc = tuple(range(n))
    for x in word:
        p = images[abs(x) - 1]
        acc = _compose(acc, p if x > 0 else _inverse(p))
    return acc


def torus_hom_count(p, q, n):
    """#{(x, y) in S_n^2 : x^p = y^q}, by tallying powers."""
    def power(x, k):
        acc = tuple(range(n))
        for _ in range(k):
            acc = _compose(acc, x)
        return acc

    perms = list(itertools.permutations(range(n)))
    pth = Counter(power(x, p) for x in perms)
    qth = Counter(power(x, q) for x in perms)
    return sum(c * qth[z] for z, c in pth.items())


def parse_cycles(text, n):
    perm = list(range(n))
    for cycle in re.findall(r"\(([^()]*)\)", text):
        symbols = [int(s) - 1 for s in cycle.split()]
        for i, s in enumerate(symbols):
            perm[s] = symbols[(i + 1) % len(symbols)]
    return tuple(perm)


def check_homs(out, pres, n, count):
    """The count must match, and any witness must be a nonabelian hom."""
    gens, relators, _ = pres
    f = machine_fields(out)
    expect(int(field(f, "count")) == count, f"count {f['count']}, expected {count}")
    witness = field(f, "nonabelian_witness")
    factorial = len(list(itertools.permutations(range(n))))
    # H1 = Z here, so exactly n! homomorphisms have abelian image
    if count == factorial:
        expect(witness == "none", "witness reported for an abelian-only count")
        return
    expect(witness != "none", "no nonabelian witness although the count exceeds n!")
    parts = dict(re.findall(r"([^\s=]+)=((?:\([^()]*\))+)", witness))
    expect(list(parts) == list(gens), "witness generators do not match")
    images = [parse_cycles(parts[g], n) for g in gens]
    ident = tuple(range(n))
    expect(all(_evaluate(r, images, n) == ident for r in relators), "witness is not a hom")
    expect(any(_compose(a, b) != _compose(b, a) for a, b in itertools.combinations(images, 2)),
           "witness has abelian image")


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def int_det(m):
    """Determinant of a square integer matrix (fraction-free elimination)."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def check_snf(out, matrix, rank_h1_quotient):
    """u M v = d, u and v unimodular, d diagonal with a divisibility chain."""
    f = machine_fields(out)
    rows, cols = len(matrix), len(matrix[0])

    def block(name, count):
        return [parse_row(field(f, f"{name}_row_{i}"), int) for i in range(1, count + 1)]

    expect(block("matrix", rows) == matrix, "exponent matrix differs")
    d, u, v = block("d", rows), block("u", rows), block("v", cols)
    expect(_matmul(_matmul(u, matrix), v) == d, "u * M * v != d")
    expect(abs(int_det(u)) == 1 and abs(int_det(v)) == 1, "u or v is not unimodular")
    diag = [d[i][i] for i in range(min(rows, cols))]
    expect(all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j), "d not diagonal")
    expect(all(x >= 0 for x in diag), "negative invariant factor")
    for a, b in zip(diag, diag[1:]):
        expect((a == 0 and b == 0) or (a and b % a == 0), "divisibility chain broken")
    nonzero = [x for x in diag if x]
    expect(nonzero == [1] * rank_h1_quotient, f"invariant factors {nonzero}")
