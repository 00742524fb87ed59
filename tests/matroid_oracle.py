"""The matroid layer by the rational route, as the oracle of the Hermite
form one: circuits from a Fraction nullspace scaled to a primitive integer
vector, iota coordinates and simplicity from Fraction solves, vertex
positions from a Fraction solve.  Whether a few columns of a are
independent is asked of their minors (det_oracle).  No Hermite normal
form is taken."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from det_oracle import maximal_minors_gcd
from rational_oracle import solve_rational
from resonance_oracle import nullspace_rational


def primitive_integer_vector(v):
    """Scale a nonzero rational vector to a primitive integer vector."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def _normals(td, S):
    """The columns a_i, i in S, as rows: the normals of the hyperplanes."""
    return [[row[i] for row in td.a] for i in S]


def _independent(td, S):
    return len(S) <= td.d and maximal_minors_gcd(_normals(td, S)) != 0


def circuits(td):
    """(support, plus, minus, beta, beta_k) per circuit, sorted by support,
    or None when theta_hat pairs to zero with some circuit."""
    found = []
    for size in range(1, td.n + 1):
        for S in combinations(range(td.n), size):
            if (any(set(c[0]) <= set(S) for c in found)
                    or _independent(td, S)):
                continue
            (ns,) = nullspace_rational([[row[i] for i in S] for row in td.a])
            beta = [0] * td.n
            for i, b in zip(S, primitive_integer_vector(ns)):
                beta[i] = b
            pairing = sum(t * b for t, b in zip(td.theta_hat, beta))
            if pairing == 0:
                return None
            if pairing < 0:
                beta = [-x for x in beta]
            x = solve_rational([list(r) for r in td.iota], beta)
            assert all(v.denominator == 1 for v in x)
            found.append((S, tuple(i for i in S if beta[i] > 0),
                          tuple(i for i in S if beta[i] < 0),
                          tuple(beta), tuple(int(v) for v in x)))
    return sorted(found)


def _offsets(td, S):
    return [-td.theta_hat[i] for i in S]


def simple(td):
    """No nonempty intersection of up to d + 1 hyperplanes has a
    codimension below its size."""
    for size in range(2, td.d + 2):
        for S in combinations(range(td.n), size):
            if (not _independent(td, S) and
                    solve_rational(_normals(td, S), _offsets(td, S))
                    is not None):
                return False
    return True


def vertices(td):
    """(basis, position) per independent d-subset of hyperplanes."""
    return [(S, tuple(solve_rational(_normals(td, S), _offsets(td, S))))
            for S in combinations(range(td.n), td.d) if _independent(td, S)]
