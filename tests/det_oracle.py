"""Determinant oracles for the lattice tests, by permutation expansion:
independent of every elimination routine in hypertoric.exact."""

from itertools import combinations, permutations
from math import gcd, prod


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
