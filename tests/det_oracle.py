"""Determinant oracles for the lattice tests, by permutation expansion:
independent of every elimination routine in hypertoric.exact.  Also two
questions read off a Hermite form that the package no longer asks on
their own, for the Hermite-form tests: spans_lattice, and
integer_kernel_basis, the canonical annihilator that
exact.lattice_membership takes inline."""

from itertools import combinations, permutations
from math import gcd, prod

from hypertoric.exact import hermite_normal_form, transpose


def det(M):
    """Leibniz expansion of a square integer matrix."""
    total = 0
    for perm in permutations(range(len(M))):
        inversions = sum(perm[i] > perm[j]
                         for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * prod(M[i][p] for i, p in enumerate(perm))
    return total


def maximal_minors_gcd(M):
    """gcd of the m x m minors of an m x n matrix (0 if there are none):
    1 exactly when the columns span Z^m."""
    m = len(M)
    g = 0
    for S in combinations(range(len(M[0])), m):
        g = gcd(g, det([[row[j] for j in S] for row in M]))
    return g


def spans_lattice(M):
    """Whether the columns of the integer matrix M span Z^m (m = rows of M).

    The nonzero rows of the row HNF of M^T are a basis of the column
    lattice; it is Z^m exactly when there are m of them and every pivot is
    1.  For square M this is |det M| = 1.
    """
    H, _ = hermite_normal_form(transpose(M), transform=False)
    pivots = [next(x for x in row if x) for row in H if any(row)]
    return len(pivots) == len(M) and all(x == 1 for x in pivots)


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
