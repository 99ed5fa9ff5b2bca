"""Fox free differential calculus and Alexander polynomials.

The free derivative d/dg of a word satisfies

    d(g) = 1,   d(g^-1) = -g^-1,   d(h^±1) = 0 for h != g,
    d(uv) = d(u) + u d(v),

and abelianizing it through a weight map (generator -> t^w) gives a
Laurent polynomial.  ``fox_row`` gets all of a relator's abelianized
derivatives from one walk: keep the t-exponent e of the prefix read so
far; a letter g adds t^e to column g and then e += w_g, and a letter
g^-1 first does e -= w_g and then subtracts t^e from column g.  That is
the rule above with every prefix abelianized as it is read.  No free
reduction is needed: a cancelling pair g g^-1 (or g^-1 g) leaves e where
it was before the pair and adds +t^e and -t^e to column g, so it
contributes nothing.

Each row of the Alexander matrix is one relator's walk.  The Alexander
polynomial of a presentation on n generators is the gcd of all
(n-1)-minors of that matrix, taken in canonical unit form:
``alexander_polynomial(alexander_matrix(pres, weights))``.

One minor per row subset is enough.  Fox's fundamental formula, with a
weight map that kills every relator, gives sum_j M_ij (t^{w_j} - 1) = 0
for each row i.  Fix n-1 rows and let D_j be the minor deleting column j;
then (t^{w_j} - 1) D_k = ±(t^{w_k} - 1) D_j, so D_k = 0 when w_k = 0.
Take j0 with the least nonzero |w_j0| (any nonzero one would do; the
least keeps the division small), and let g be the gcd of the weights.
The gcd of the t^|w_k| - 1 over nonzero w_k is t^g - 1, so the gcd of
the D_k is D_j0 (t^g - 1) / (t^|w_j0| - 1), and the gcd over all row
subsets is that of their D_j0 times the same factor.  The division is
exact, and for a weight ±1 the factor is 1.

Determinants of Laurent-polynomial matrices use fraction-free Bareiss
elimination, which stays in the ring and is exact; plain cofactor
expansion is fine for the bundled 2x3 instances but becomes unusable for
the Wirtinger-sized matrices the test suite throws at this module.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import InputError
from .groups import validate_abelianization
from .laurent import IntLaurent, div_exact, laurent_gcd, normalize_unit

__all__ = [
    "fox_row",
    "AlexanderMatrix",
    "alexander_matrix",
    "alexander_polynomial",
    "laurent_det",
]


def fox_row(word, weights):
    """The abelianized Fox derivatives of ``word``, one per generator.

    Column g of the result is d(word)/d(x_{g+1}) with each generator sent
    to t^weight, from one walk over the letters (see the module docstring).
    The word need not be freely reduced.
    """
    cols = [{} for _ in weights]
    e = 0
    for x in word:
        g = abs(x) - 1
        col = cols[g]
        if x > 0:
            col[e] = col.get(e, 0) + 1
            e += weights[g]
        else:
            e -= weights[g]
            col[e] = col.get(e, 0) - 1
    return tuple(IntLaurent(col) for col in cols)


# -- Alexander matrices and polynomials ----------------------------------------

class AlexanderMatrix(namedtuple("AlexanderMatrix", "entries weights")):
    """Abelianized Fox derivatives: rows are relators, columns generators;
    ``entries`` is a tuple of tuples of IntLaurent."""

    __slots__ = ()

    @property
    def nrows(self):
        return len(self.entries)


def alexander_matrix(pres, weights):
    if not validate_abelianization(pres, weights):
        raise InputError("weight map does not kill every relator")
    rows = tuple(fox_row(r, weights) for r in pres.relators)
    return AlexanderMatrix(rows, tuple(weights))


def laurent_det(rows):
    """Determinant of a square matrix of IntLaurent, by Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return IntLaurent.constant(1)
    m = [list(row) for row in rows]
    if any(len(row) != n for row in m):
        raise InputError("determinant needs a square matrix")
    sign = 1
    prev = IntLaurent.constant(1)
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return IntLaurent()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q = div_exact(num, prev)
                if q is None:
                    raise ArithmeticError("Bareiss division must be exact")
                m[i][j] = q
            m[i][k] = IntLaurent()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def alexander_polynomial(matrix):
    """Gcd of all (n-1)-minors of an Alexander matrix, canonical unit form.

    Requires a nonzero weight map and at least n-1 relators; when there are
    more, every row subset of size n-1 contributes one minor (see the
    module docstring).  A zero ideal comes back as the zero polynomial.
    """
    weights = matrix.weights
    n = len(weights)
    if n < 1:
        raise InputError("presentation needs at least one generator")
    if not any(weights):
        raise InputError("weight map is zero")
    k = n - 1
    if matrix.nrows < k:
        raise InputError(
            f"need at least {k} relators for {n} generators, have {matrix.nrows}"
        )
    j0 = min((j for j in range(n) if weights[j]), key=lambda j: abs(weights[j]))
    cols = [j for j in range(n) if j != j0]
    acc = IntLaurent()
    one = IntLaurent.constant(1)
    for rows in itertools.combinations(range(matrix.nrows), k):
        minor = laurent_det([[matrix.entries[i][j] for j in cols] for i in rows])
        if minor:
            acc = laurent_gcd(acc, minor)
            if acc == one:
                break
    t = IntLaurent.t()
    delta = div_exact(acc * (t ** math.gcd(*weights) - 1), t ** abs(weights[j0]) - 1)
    if delta is None:
        raise ArithmeticError("t^|w_j0| - 1 must divide the minor gcd times t^g - 1")
    return normalize_unit(delta) if delta else delta
