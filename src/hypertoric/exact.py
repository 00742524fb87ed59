"""Exact integer and rational linear algebra.

Everything here is deterministic and exact: integer matrices are lists of
lists of python ints, rational data uses fractions.Fraction.  There is one
elimination, hermite_normal_form over Z, and every answer is read off its
pivots by one of two substitutions (Cohen, GTM 138, section 2.4).
Conventions:

  * hermite_normal_form(M) returns (H, U) with H = U @ M, U unimodular.
    H is in row Hermite form: zero rows at the bottom, each pivot positive,
    entries above a pivot reduced into [0, pivot).  Callers that read only
    H (rank_rational, a canonical lattice basis) pass transform=False and
    keep no U.
  * forward_substitute(H, b) solves H^T y = b over Z, each step a
    divisibility check: solve_integer, and the iota coordinates of a
    circuit (iota^T is already a Hermite form, arrangement.py).
  * back_substitute(H, b) solves H x = b over Q with x = 0 off the pivot
    columns: the subspace part of lattice_membership, and the vertex
    positions of an arrangement (arrangement.py).
  * rank_rational takes integer matrices only and reads the rank off the
    Hermite form: the count of nonzero rows.
"""

from fractions import Fraction
from math import lcm


def _copy(M):
    return [list(row) for row in M]


def _identity(m):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def mat_vec(A, v):
    if A and len(A[0]) != len(v):
        raise ValueError("inner dimensions differ")
    return [sum(row[k] * v[k] for k in range(len(v))) for row in A]


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def hermite_normal_form(M, transform=True):
    """Row Hermite normal form with transformation: H = U @ M, U unimodular.

    With transform=False no U is kept, and (H, None) is returned, for
    callers that read only H."""
    H = _copy(M)
    m = len(H)
    # without a transform, U's rows are empty: the row operations on U
    # below then cost nothing
    U = _identity(m) if transform else [[] for _ in range(m)]
    n = len(H[0]) if m else 0
    r = 0
    for c in range(n):
        # gaussian gcd elimination below row r in column c
        while True:
            pivots = [i for i in range(r, m) if H[i][c] != 0]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: (abs(H[i][c]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            if len(pivots) == 1:
                break
            for i in range(r + 1, m):
                if H[i][c] != 0:
                    t = H[i][c] // H[r][c]
                    if t:
                        H[i] = [x - t * y for x, y in zip(H[i], H[r])]
                        U[i] = [x - t * y for x, y in zip(U[i], U[r])]
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            for i in range(r):
                t = H[i][c] // H[r][c]   # floor: entry lands in [0, pivot)
                if t:
                    H[i] = [x - t * y for x, y in zip(H[i], H[r])]
                    U[i] = [x - t * y for x, y in zip(U[i], U[r])]
            r += 1
        if r == m:
            break
    return H, (U if transform else None)


def _pivot_rows(H):
    """(row, pivot column) for the nonzero rows of a row Hermite form."""
    out = []
    for row in H:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            break
        out.append((row, c))
    return out


def forward_substitute(H, b):
    """y with H^T y = b over Z, for H in row Hermite form, or None.

    Forward along the pivots of H, each step a divisibility check, with
    y = 0 on the zero rows of H.
    """
    res = list(b)
    y = [0] * len(H)
    for i, (row, c) in enumerate(_pivot_rows(H)):
        t, r = divmod(res[c], row[c])
        if r:
            return None
        y[i] = t
        res = [x - t * h for x, h in zip(res, row)]
    return None if any(res) else y


def solve_integer(A, b):
    """One integer solution z of A z = b (A and b integral), or None.

    With H = U A^T from the row HNF, A z = b for z = U^T y reads H^T y = b,
    which forward substitution solves.
    """
    H, U = hermite_normal_form(transpose(A))
    y = forward_substitute(H, b)
    return None if y is None else mat_vec(transpose(U), y)


def back_substitute(H, b):
    """x with H x = b over Q on the nonzero rows of a row Hermite form H,
    and x = 0 off its pivot columns; the zero rows of H are not read.

    The pivot columns of an echelon form are the columns independent of
    the ones before them, whatever elimination made it, so x is the
    solution that Gauss-Jordan with its free variables set to 0 picks.
    """
    n = len(H[0]) if H else 0
    x = [Fraction(0)] * n
    for (row, c), t in reversed(list(zip(_pivot_rows(H), b))):
        x[c] = Fraction(t - sum(row[j] * x[j] for j in range(c + 1, n)),
                        row[c])
    return x


def rank_rational(M):
    """Rank over Q of an integer matrix: the number of nonzero rows of its
    row Hermite form."""
    return len(_pivot_rows(hermite_normal_form(M, transform=False)[0]))


def lattice_membership(v, subspace_gens):
    """Decide whether v lies in span_Q(subspace_gens) + Z^m, m = len(v).

    Rationals are allowed for v and the subspace generators.  Returns
    (found, w, z) where found is a bool and, when found, w are rational
    coefficients on the subspace generators (the columns of B) and z an
    integer vector with v = B w + z exactly.

    One Hermite form H = U B', the columns of B' the generators scaled to
    integer vectors, answers it.  The rows of U at the zero rows of H are
    a Z-basis of the integer annihilator of the subspace, saturated as U
    is unimodular, and a second Hermite form makes it a canonical K.  So
    K Z^m = Z^r: v lies in the sum exactly when K v is integral, and then
    K z = K v has an integer solution z.  w is read off H by back
    substitution on U (v - z), times each generator's denominator.
    """
    m = len(v)
    scaled, dens = [], []
    for g in subspace_gens:
        g = [Fraction(x) for x in g]
        den = lcm(*(x.denominator for x in g))
        scaled.append([int(x * den) for x in g])
        dens.append(den)
    H, U = hermite_normal_form([[g[i] for g in scaled] for i in range(m)])
    K, _ = hermite_normal_form([u for h, u in zip(H, U) if not any(h)],
                               transform=False)
    if K:
        b = mat_vec(K, [Fraction(x) for x in v])
        if any(x.denominator != 1 for x in b):
            return False, None, None
        z = solve_integer(K, [int(x) for x in b])
    else:
        z = [0] * m  # B spans Q^m: no lattice part
    w = back_substitute(H, mat_vec(U, [Fraction(x) - y
                                       for x, y in zip(v, z)]))
    return True, [t * den for t, den in zip(w, dens)], z
