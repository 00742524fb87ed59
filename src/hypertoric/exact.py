"""Exact integer and rational linear algebra.

Everything here is deterministic and exact: integer matrices are lists of
lists of python ints, rational data uses fractions.Fraction.  There is one
elimination routine per ring: rref over fields, hermite_normal_form over Z.
Conventions:

  * hermite_normal_form(M) returns (H, U) with H = U @ M, U unimodular.
    H is in row Hermite form: zero rows at the bottom, each pivot positive,
    entries above a pivot reduced into [0, pivot).  Callers that read only
    H (rank_rational, the canonical kernel basis) pass transform=False and
    keep no U.
  * integer_kernel_basis(M) returns columns spanning ker(M: Z^n -> Z^m)
    saturated (a full Z-basis of the kernel lattice), HNF-canonicalized so
    the result is unique.
  * solve_integer and lattice_membership read their lattice questions off
    the Hermite form.  rank_rational takes integer matrices only and reads
    the rank there too: the count of nonzero rows.  The circuits, bases
    and vertex positions of an arrangement are read off Hermite forms too
    (arrangement.py).
  * rref and solve_rational are kept for answers over Q: the subspace part
    of lattice_membership.
"""

from fractions import Fraction
from math import lcm
from numbers import Rational


def _copy(M):
    return [list(row) for row in M]


def _identity(m):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def mat_mul(A, B):
    """Exact matrix product; entries int or Fraction."""
    n = len(B)
    if A and len(A[0]) != n:
        raise ValueError("inner dimensions differ")
    p = len(B[0]) if n else 0
    return [[sum(row[k] * B[k][j] for k in range(n)) for j in range(p)]
            for row in A]


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


def solve_integer(A, b):
    """One integer solution z of A z = b (A and b integral), or None.

    With H = U A^T from the row HNF, A z = b for z = U^T y reads H^T y = b:
    y is found by forward substitution along the pivots of H, each step a
    divisibility check, with y = 0 on the zero rows of H (Cohen, GTM 138,
    section 2.4).
    """
    H, U = hermite_normal_form(transpose(A))
    res = list(b)
    y = [0] * len(H)
    for i, (row, c) in enumerate(_pivot_rows(H)):
        t, r = divmod(res[c], row[c])
        if r:
            return None
        y[i] = t
        res = [x - t * h for x, h in zip(res, row)]
    if any(res):
        return None
    return mat_vec(transpose(U), y)


def rref(M, ncols=None):
    """Reduced row echelon form over any exact field: returns (R, pivots).

    The package passes ints and Fractions (every Rational is promoted to
    Fraction); elements of any other exact field with +, -, *, / and bool
    pass through unchanged.  Pivots are chosen first-nonzero in column
    order among the first ncols columns (default all), so the result is
    deterministic.
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


def rank_rational(M):
    """Rank over Q of an integer matrix: the number of nonzero rows of its
    row Hermite form."""
    return len(_pivot_rows(hermite_normal_form(M, transform=False)[0]))


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


def integer_kernel_basis(M):
    """Saturated Z-basis of ker(M) as columns of an n x k integer matrix.

    Rows of the unimodular U from HNF(M^T) that map to zero rows of H span
    the kernel lattice exactly; a final row-HNF makes the basis canonical.
    """
    Mt = transpose(M)
    if not Mt:  # zero columns
        return []
    H, U = hermite_normal_form(Mt)
    kern_rows = [U[i] for i in range(len(H)) if all(x == 0 for x in H[i])]
    if not kern_rows:
        return [[] for _ in range(len(M[0]) if M else 0)]
    C, _ = hermite_normal_form(kern_rows)
    # as columns, in HNF row order
    return [list(col) for col in zip(*C)]


def lattice_membership(v, subspace_gens):
    """Decide whether v lies in span_Q(subspace_gens) + Z^m, m = len(v).

    Rationals are allowed for v and the subspace generators.  Returns
    (found, w, z) where found is a bool and, when found, w are rational
    coefficients on the subspace generators (the columns of B) and z an
    integer vector with v = B w + z exactly.  The rows of the saturated integer annihilator K
    of the subspace span a saturated lattice, so K Z^m = Z^r: v lies in the
    sum exactly when K v is integral, and then K z = K v has an integer
    solution z.
    """
    m = len(v)
    B = transpose(subspace_gens)
    # integer left kernel of B, rows k with k B = 0; scaling a generator to
    # an integer vector keeps the kernel
    if subspace_gens:
        scaled = []
        for g in subspace_gens:
            g = [Fraction(x) for x in g]
            den = lcm(*(x.denominator for x in g))
            scaled.append([int(x * den) for x in g])
        K = transpose(integer_kernel_basis(scaled))
    else:
        K = _identity(m)
    if not K:
        # B spans everything: w from solving B w = v, z = 0
        return True, solve_rational(B, v), [0] * m
    b = mat_vec(K, [Fraction(x) for x in v])
    if any(x.denominator != 1 for x in b):
        return False, None, None
    z = solve_integer(K, [int(x) for x in b])
    resid = [Fraction(x) - y for x, y in zip(v, z)]
    w = solve_rational(B, resid) if subspace_gens else []
    return True, w, z
