"""Exact integer and rational linear algebra.

Everything here is deterministic and exact: integer matrices are lists of
lists of python ints, rational data uses fractions.Fraction.  Conventions:

  * hermite_normal_form(M) returns (H, U) with H = U @ M, U unimodular.
    H is in row Hermite form: zero rows at the bottom, each pivot positive,
    entries above a pivot reduced into [0, pivot).
  * smith_normal_form(M) returns (D, S, T) with D = S @ M @ T, D diagonal,
    nonnegative, d_i | d_{i+1}.
  * integer_kernel_basis(M) returns columns spanning ker(M: Z^n -> Z^m)
    saturated (a full Z-basis of the kernel lattice), HNF-canonicalized so
    the result is unique.
"""

from fractions import Fraction
from math import gcd
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


def hermite_normal_form(M):
    """Row Hermite normal form with transformation: H = U @ M, U unimodular."""
    H = _copy(M)
    m = len(H)
    U = _identity(m)
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
    return H, U


def smith_normal_form(M):
    """Smith form with transforms: D = S @ M @ T, d_i | d_{i+1}, d_i >= 0."""
    D = _copy(M)
    m = len(D)
    n = len(D[0]) if m else 0
    S = _identity(m)
    T = _identity(n)

    def col_op(j, k, t):  # col_j -= t * col_k
        for row in D:
            row[j] -= t * row[k]
        for row in T:
            row[j] -= t * row[k]

    def col_swap(j, k):
        for row in D:
            row[j], row[k] = row[k], row[j]
        for row in T:
            row[j], row[k] = row[k], row[j]

    r = 0
    while r < m and r < n:
        # find a nonzero entry in the remaining block
        piv = None
        best = None
        for i in range(r, m):
            for j in range(r, n):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < best):
                    best = abs(D[i][j])
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != r:
            D[r], D[i0] = D[i0], D[r]
            S[r], S[i0] = S[i0], S[r]
        if j0 != r:
            col_swap(r, j0)
        while True:
            # clear column r below, then row r to the right; repeat until clean
            dirty = False
            for i in range(r + 1, m):
                if D[i][r] != 0:
                    t = D[i][r] // D[r][r]
                    if t:
                        D[i] = [x - t * y for x, y in zip(D[i], D[r])]
                        S[i] = [x - t * y for x, y in zip(S[i], S[r])]
                    if D[i][r] != 0:  # remainder smaller than pivot: swap up
                        D[r], D[i] = D[i], D[r]
                        S[r], S[i] = S[i], S[r]
                        dirty = True
            for j in range(r + 1, n):
                if D[r][j] != 0:
                    t = D[r][j] // D[r][r]
                    if t:
                        col_op(j, r, t)
                    if D[r][j] != 0:
                        col_swap(r, j)
                        dirty = True
            if not dirty:
                break
        if D[r][r] < 0:
            D[r] = [-x for x in D[r]]
            S[r] = [-x for x in S[r]]
        r += 1

    # enforce divisibility d_i | d_{i+1}
    k = min(m, n)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold b into position (i,i): standard 2x2 gcd step
                col_op(i, i + 1, -1)           # col_i += col_{i+1}
                # now D[i+1][i] = b; redo elimination on the 2x2 block
                t = D[i + 1][i] // D[i][i]
                D[i + 1] = [x - t * y for x, y in zip(D[i + 1], D[i])]
                S[i + 1] = [x - t * y for x, y in zip(S[i + 1], S[i])]
                while D[i + 1][i] != 0:
                    D[i], D[i + 1] = D[i + 1], D[i]
                    S[i], S[i + 1] = S[i + 1], S[i]
                    t = D[i + 1][i] // D[i][i]
                    D[i + 1] = [x - t * y for x, y in zip(D[i + 1], D[i])]
                    S[i + 1] = [x - t * y for x, y in zip(S[i + 1], S[i])]
                t = D[i][i + 1] // D[i][i]
                if t:
                    col_op(i + 1, i, t)
                while D[i][i + 1] != 0:
                    col_swap(i, i + 1)
                    t = D[i][i + 1] // D[i][i]
                    if t:
                        col_op(i + 1, i, t)
                if D[i][i] < 0:
                    D[i] = [-x for x in D[i]]
                    S[i] = [-x for x in S[i]]
                if D[i + 1][i + 1] < 0:
                    D[i + 1] = [-x for x in D[i + 1]]
                    S[i + 1] = [-x for x in S[i + 1]]
                changed = True
    return D, S, T


def det_unimodular(U):
    """Determinant of a square integer matrix via fraction-free elimination."""
    A = [[Fraction(x) for x in row] for row in U]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        inv = 1 / A[c][c]
        for i in range(c + 1, n):
            if A[i][c]:
                f = A[i][c] * inv
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return int(det) if det.denominator == 1 else det


def rref(M, ncols=None):
    """Reduced row echelon form over any exact field: returns (R, pivots).

    Entries may be rationals (promoted to Fraction) or elements of any
    field with +, -, *, / and bool, such as the parameter field.  Pivots are chosen
    first-nonzero in column order among the first ncols columns (default
    all), so the result is deterministic.
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
        inv = 1 / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


def rank_rational(M):
    """Rank over Q, or over the field of the entries."""
    return len(rref(M)[1])


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


def nullspace_rational(M):
    """Basis (list of Fraction vectors) of the rational kernel of M."""
    n = len(M[0]) if M else 0
    R, pivots = rref(M)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -R[i][f]
        basis.append(v)
    return basis


def primitive_integer_vector(v):
    """Scale a nonzero rational vector to a primitive integer vector.

    The sign is normalized so the first nonzero entry is positive.
    """
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive form")
    lcm = 1
    for x in fracs:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


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


def lattice_membership(v, subspace_gens, lattice_gens):
    """Decide whether v lies in span_Q(subspace_gens) + Z-span(lattice_gens).

    Vectors are given as sequences (rationals allowed for v and the subspace
    generators; lattice generators must be integral).  Returns (found, w, z)
    where found is a bool and, when found, w are rational coefficients on the
    subspace generators and z integer coefficients on the lattice generators
    with v = B w + L z exactly.
    """
    m = len(v)
    B = [list(col) for col in zip(*subspace_gens)] if subspace_gens else [[] for _ in range(m)]
    L = [list(col) for col in zip(*lattice_gens)] if lattice_gens else [[] for _ in range(m)]
    s = len(subspace_gens)
    p = len(lattice_gens)
    # rational left-kernel of B: rows k with k^T B = 0
    if s:
        K = nullspace_rational(transpose(B))
    else:
        K = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    if not K:
        # B spans everything: w from solving B w = v, z = 0
        w = solve_rational(B, v)
        return True, w, [0] * p
    # project: K (v - L z) = 0  <=>  (K L) z = K v, solved over Z
    A = []
    b = []
    for krow in K:
        arow = [sum(Fraction(krow[i]) * L[i][j] for i in range(m)) for j in range(p)]
        bval = sum(Fraction(krow[i]) * Fraction(v[i]) for i in range(m))
        den = bval.denominator
        for x in arow:
            den = den * x.denominator // gcd(den, x.denominator)
        A.append([int(x * den) for x in arow])
        b.append(bval * den)
    if any(x.denominator != 1 for x in b):
        raise AssertionError("scaling failed")  # unreachable
    b = [int(x) for x in b]
    # solve A z = b over Z via Smith: D = S A T
    if p == 0:
        if any(x != 0 for x in b):
            return False, None, None
        z = []
    else:
        D, S, T = smith_normal_form(A)
        Sb = mat_vec(S, b)
        y = [0] * p
        rows = len(A)
        for i in range(rows):
            d = D[i][i] if i < min(rows, p) else 0
            if d == 0:
                if Sb[i] != 0:
                    return False, None, None
            else:
                if Sb[i] % d != 0:
                    return False, None, None
                y[i] = Sb[i] // d
        z = mat_vec(T, y)
    resid = [Fraction(v[i]) - sum(L[i][j] * z[j] for j in range(p)) for i in range(m)]
    if s:
        w = solve_rational(B, resid)
        if w is None:
            return False, None, None
    else:
        if any(x != 0 for x in resid):
            return False, None, None
        w = []
    return True, w, z
