import random
from fractions import Fraction
from itertools import product

from det_oracle import maximal_minors_gcd
from hypothesis import given, settings, strategies as st

from hypertoric.exact import (
    hermite_normal_form,
    integer_kernel_basis,
    lattice_membership,
    mat_mul,
    mat_vec,
    rank_rational,
    rref,
    solve_integer,
    solve_rational,
    spans_lattice,
    transpose,
)


def is_row_hnf(H):
    pivots = []
    for row in H:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            pivots.append(None)
            continue
        if pivots and pivots[-1] is None:
            return False  # nonzero row below a zero row
        p = nz[0]
        if pivots and pivots[-1] is not None and p <= pivots[-1]:
            return False
        if row[p] <= 0:
            return False
        pivots.append(p)
    # entries above each pivot reduced into [0, pivot)
    for i, p in enumerate(pivots):
        if p is None:
            continue
        for i2 in range(i):
            if not (0 <= H[i2][p] < H[i][p]):
                return False
    return True


def test_hnf_trivial_examples():
    H, U = hermite_normal_form([[1, 1], [0, 0]])
    assert H == [[1, 1], [0, 0]]
    assert U == [[1, 0], [0, 1]]

    H, U = hermite_normal_form([[2], [4]])
    assert H == [[2], [0]]
    assert spans_lattice(U)
    assert mat_mul(U, [[2], [4]]) == H


def test_hnf_random_properties():
    rnd = random.Random(7)
    for _ in range(60):
        m = rnd.randint(1, 6)
        n = rnd.randint(1, 6)
        M = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        H, U = hermite_normal_form(M)
        assert mat_mul(U, M) == H
        assert spans_lattice(U)  # square, so unimodular
        assert is_row_hnf(H)
        # keeping no transform gives the same H
        assert hermite_normal_form(M, transform=False) == (H, None)


def test_hnf_idempotent_canonical():
    rnd = random.Random(11)
    for _ in range(30):
        m = rnd.randint(1, 5)
        n = rnd.randint(1, 5)
        M = [[rnd.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        H, _ = hermite_normal_form(M)
        H2, _ = hermite_normal_form(H)
        assert H2 == H


def test_spans_lattice_known():
    assert spans_lattice([[1, -1]])
    assert not spans_lattice([[2]])
    assert not spans_lattice([[2, 0], [0, 1]])
    assert spans_lattice([[2, 3]])               # gcd of the columns is 1
    assert not spans_lattice([[1, 1, 0], [0, 2, 2]])
    assert not spans_lattice([[1, 2], [2, 4]])   # rank 1
    assert not spans_lattice([[1], [0]])         # fewer columns than rows


def test_spans_lattice_matches_minors_oracle():
    rnd = random.Random(13)
    hits = 0
    for _ in range(200):
        m = rnd.randint(1, 3)
        n = rnd.randint(1, 5)
        M = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        expected = n >= m and maximal_minors_gcd(M) == 1
        assert spans_lattice(M) == expected, M
        hits += expected
    assert 20 < hits < 180  # both verdicts are exercised


def test_solve_integer_matches_box_search():
    rnd = random.Random(19)
    box = range(-3, 4)
    for _ in range(150):
        r = rnd.randint(1, 3)
        p = rnd.randint(1, 3)
        A = [[rnd.randint(-3, 3) for _ in range(p)] for _ in range(r)]
        if rnd.random() < 0.5:
            b = mat_vec(A, [rnd.choice(box) for _ in range(p)])
        else:
            b = [rnd.randint(-6, 6) for _ in range(r)]
        z = solve_integer(A, b)
        if z is not None:
            assert mat_vec(A, z) == b
        if any(mat_vec(A, list(zz)) == b for zz in product(box, repeat=p)):
            assert z is not None, (A, b)


@st.composite
def integer_matrices(draw):
    """m x n integer matrices, m and n from 0 to 6, entries up to 10^6 in
    absolute value; rows are new, zero, repeated or integer combinations
    of earlier rows."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat",
                                     "combination"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                         for j in range(n)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(M=integer_matrices())
def test_integer_rank_matches_rref(M):
    # the rank read off the Hermite form equals the field elimination's,
    # for M and for its transpose
    assert rank_rational(M) == len(rref(M)[1])
    assert rank_rational(M) == rank_rational(transpose(M))


def test_solve_rational():
    x = solve_rational([[1, 2], [3, 4]], [5, 6])
    assert x == [Fraction(-4), Fraction(9, 2)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
    # underdetermined: free variables pinned to 0
    x = solve_rational([[1, 1]], [3])
    assert x == [Fraction(3), Fraction(0)]


def test_kernel_basis_examples():
    # spec's T*P^1 and A~1 kernels
    assert integer_kernel_basis([[1, -1]]) == [[1], [1]]
    assert integer_kernel_basis([[1, 1]]) == [[1], [-1]]


def test_kernel_basis_saturated_and_canonical():
    rnd = random.Random(17)
    for _ in range(40):
        m = rnd.randint(1, 4)
        n = rnd.randint(1, 6)
        M = [[rnd.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        K = integer_kernel_basis(M)
        k = len(K[0]) if K else 0
        assert len(K) == n
        assert k == n - rank_rational(M)
        if k == 0:
            continue
        # M @ K == 0
        prod = mat_mul(M, K)
        assert all(all(x == 0 for x in row) for row in prod)
        # saturation: the rows of K (n x k) span Z^k
        assert spans_lattice(transpose(K))
        # canonical: recomputing from a row-shuffled generating set gives same basis
        rows = transpose(K)
        rnd.shuffle(rows)
        C, _ = hermite_normal_form(rows)
        assert [list(c) for c in zip(*C)] == K


def test_lattice_membership_basic():
    # v = (1/2, 1/2): subspace span{(1,1)} contains it; no lattice needed
    found, w, z = lattice_membership([Fraction(1, 2), Fraction(1, 2)], [[1, 1]], [])
    assert found and w == [Fraction(1, 2)]
    # v = (1/2, 0) not in span{(1,1)} + Z(0,1)
    found, _, _ = lattice_membership([Fraction(1, 2), 0], [[1, 1]], [[0, 1]])
    assert not found
    # pure lattice: (2, -4) in Z(1,-2)
    found, w, z = lattice_membership([2, -4], [], [[1, -2]])
    assert found and z == [2]
    found, _, _ = lattice_membership([2, -3], [], [[1, -2]])
    assert not found


def test_lattice_membership_witness_random():
    rnd = random.Random(23)
    for _ in range(40):
        m = rnd.randint(1, 4)
        s = rnd.randint(0, 2)
        p = rnd.randint(0, 3)
        Bg = [[rnd.randint(-3, 3) for _ in range(m)] for _ in range(s)]
        Lg = [[rnd.randint(-3, 3) for _ in range(m)] for _ in range(p)]
        # build a member and check the witness reproduces it
        w_true = [Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(s)]
        z_true = [rnd.randint(-3, 3) for _ in range(p)]
        v = [sum((w_true[a] * Bg[a][i] for a in range(s)), Fraction(0))
             + sum(z_true[b] * Lg[b][i] for b in range(p)) for i in range(m)]
        found, w, z = lattice_membership(v, Bg, Lg)
        assert found
        recon = [sum((w[a] * Bg[a][i] for a in range(s)), Fraction(0))
                 + sum(z[b] * Lg[b][i] for b in range(p)) for i in range(m)]
        assert recon == v


def test_lattice_membership_brute_force_agreement():
    # exhaustive cross-check on small instances
    rnd = random.Random(29)
    for _ in range(25):
        m = 2
        Bg = [[rnd.randint(-2, 2) for _ in range(m)]]
        Lg = [[rnd.randint(-2, 2) for _ in range(m)] for _ in range(2)]
        v = [Fraction(rnd.randint(-3, 3), rnd.choice([1, 2])) for _ in range(m)]
        found, w, z = lattice_membership(v, Bg, Lg)
        brute = False
        for z0 in range(-6, 7):
            for z1 in range(-6, 7):
                resid = [v[i] - z0 * Lg[0][i] - z1 * Lg[1][i] for i in range(m)]
                if solve_rational(transpose(Bg), resid) is not None:
                    brute = True
                    break
            if brute:
                break
        # brute force over a bounded window can only confirm membership;
        # if brute found it, lattice_membership must too
        if brute:
            assert found
        if found:
            # the witness reconstructs v exactly
            recon = [w[0] * Bg[0][i] + z[0] * Lg[0][i] + z[1] * Lg[1][i]
                     for i in range(m)]
            assert recon == v


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]
