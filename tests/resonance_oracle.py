"""The brute-force resonance oracle: every saturated Q, every integer shift
in a box, tested by exact orthogonality to the rational nullspace of
Lin(Q^c), with none of the Hermite-normal-form route (lattice_membership)
that is_non_resonant takes."""

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from hypertoric.arrangement import enumerate_circuits
from hypertoric.errors import SearchBudgetExceeded
from hypertoric.exact import rref
from hypertoric.resonance import (is_saturated, lin_complement_generators,
                                  parameter_vector, split_circuit_sides)


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


def brute_force_resonant(td, hbar, cvals, window=2):
    """Independent resonance oracle for small instances.

    Sweeps every nonempty saturated Q (not only minimal ones), every
    integer shift z in a box, and tests v - z against Lin(Q^c) by exact
    orthogonality to the rational nullspace.  Exponential in n + d, and
    blind to resonances needing shifts outside the box, so it is only good
    for cross-checking verdicts on engineered parameters."""
    v = parameter_vector(td, hbar, cvals)
    n, d = td.n, td.d
    m = n + d
    if 2 * n > 12:
        raise SearchBudgetExceeded("brute force limited to 2n <= 12")
    sides = [split_circuit_sides(c, n) for c in enumerate_circuits(td)]
    box = list(product(range(-window, window + 1), repeat=m))
    for size in range(1, 2 * n + 1):
        for combo in combinations(range(2 * n), size):
            q_set = frozenset(combo)
            if not is_saturated(q_set, sides):
                continue
            gens = lin_complement_generators(td, q_set)
            kernel = (nullspace_rational(gens) if gens
                      else [[Fraction(int(i == j)) for j in range(m)]
                            for i in range(m)])
            if not kernel:
                return True  # Lin(Q^c) is everything
            kint, targets = [], []
            integral = True
            for k in kernel:
                den = lcm(*(x.denominator for x in k))
                ki = [int(x * den) for x in k]
                t = sum(Fraction(vv) * kk for vv, kk in zip(v, ki))
                if t.denominator != 1:
                    integral = False  # no integer z can match this row
                    break
                kint.append(ki)
                targets.append(int(t))
            if not integral:
                continue
            for z in box:
                if all(sum(zz * kk for zz, kk in zip(z, ki)) == t
                       for ki, t in zip(kint, targets)):
                    return True
    return False
