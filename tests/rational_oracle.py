"""Gauss-Jordan elimination over an exact field: the rational route of the
test oracles (resonance_oracle, matroid_oracle and the Steinberg and
vertex-weight checks of test_quantum_ring), which shares no elimination
with the package.  hypertoric.exact reads every answer off Hermite forms
over Z instead."""

from fractions import Fraction
from numbers import Rational


def rref(M, ncols=None):
    """Reduced row echelon form over any exact field: returns (R, pivots).

    ints and Fractions are promoted to Fraction; elements of any other
    exact field with +, -, *, / and bool (sympy's, say) pass through
    unchanged.  Pivots are chosen first-nonzero in column order among the
    first ncols columns (default all), so the result is deterministic.
    """
    R = [[Fraction(x) if isinstance(x, Rational) else x for x in row]
         for row in M]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    for c in range(n if ncols is None else ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        # rows r.. vanish left of c, so only columns c.. change
        inv = 1 / R[r][c]
        row = [x * inv for x in R[r][c:]]
        R[r][c:] = row
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i][c:] = [x - f * y for x, y in zip(R[i][c:], row)]
        pivots.append(c)
    return R, pivots


def solve_rational(M, b):
    """One exact solution x of M x = b over Q, or None if inconsistent.

    Deterministic: pivots as in rref and free variables set to 0.
    """
    n = len(M[0]) if M else 0
    R, pivots = rref([list(row) + [bv] for row, bv in zip(M, b)], ncols=n)
    if any(R[i][n] for i in range(len(pivots), len(R))):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = R[i][n]
    return x
