"""Non-resonance of equivariant parameters, decided exactly.

Ground set: the n hyperplane classes and n starred partners, indexed
0..n-1 and n..2n-1.  A circuit S with splitting S = S+ u S- contributes

    S^L = S+ u {i* : i in S-},    S^R = S- u {i* : i in S+}.

A subset Q is saturated when, for every circuit, Q meets S^L iff it meets
S^R.  For each minimal nonempty saturated Q, the linear span

    Lin(Q^c) = span{ e_i + a_i : i in Q^c } + span{ e_i : i* in Q^c }

sits in C^n + C^d, and parameters (hbar, c) are non-resonant when the
vector v = (hbar, ..., hbar, c_1, ..., c_d) avoids Lin(Q^c) + Z^{n+d} for
every minimal saturated Q.  Membership in subspace-plus-lattice is decided
exactly (exact.lattice_membership: one Hermite normal form of the
subspace's generators gives its saturated integer annihilator K and, by
back substitution, the rational coefficients of the witness; its integer
part solves K z = K v), so verdicts are proofs for rational parameters.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations

from .arrangement import enumerate_circuits
from .errors import SearchBudgetExceeded
from .exact import lattice_membership

MAX_GROUND = 24


def split_circuit_sides(circuit, n):
    """(S^L, S^R) in the doubled ground set {0..2n-1}."""
    left = frozenset(circuit.plus) | frozenset(n + i for i in circuit.minus)
    right = frozenset(circuit.minus) | frozenset(n + i for i in circuit.plus)
    return left, right


def is_saturated(q_set, sides):
    for left, right in sides:
        if bool(q_set & left) != bool(q_set & right):
            return False
    return True


@cache
def minimal_saturated(td):
    """All minimal nonempty saturated subsets of the doubled ground set.

    Plain subset enumeration in size order with superset pruning; the
    ground set has 2n elements, so this is capped at 2n <= MAX_GROUND,
    checked before the circuits are enumerated."""
    n = td.n
    if 2 * n > MAX_GROUND:
        raise SearchBudgetExceeded(
            f"ground set 2n = {2 * n} exceeds enumeration cap {MAX_GROUND}")
    sides = [split_circuit_sides(c, n) for c in enumerate_circuits(td)]
    found = []
    for size in range(1, 2 * n + 1):
        for combo in combinations(range(2 * n), size):
            q_set = frozenset(combo)
            if any(m <= q_set for m in found):
                continue
            if is_saturated(q_set, sides):
                found.append(q_set)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def lin_complement_generators(td, q_set):
    """Generators of Lin(Q^c) as rows of an integer matrix in Z^{n+d}."""
    n, d = td.n, td.d
    gens = []
    for x in range(2 * n):
        if x in q_set:
            continue
        row = [0] * (n + d)
        if x < n:
            row[x] = 1
            for j in range(d):
                row[n + j] = td.a[j][x]
        else:
            row[x - n] = 1
        gens.append(row)
    return gens


def _as_fraction(x, what):
    if isinstance(x, float):
        raise TypeError(
            f"{what} must be exact (Fraction / int / 'p/q' string), got float")
    return Fraction(x)


def parameter_vector(td, hbar, cvals):
    hb = _as_fraction(hbar, "hbar")
    cs = [_as_fraction(c, "c") for c in cvals]
    if len(cs) != td.d:
        raise ValueError(f"need {td.d} equivariant weights c, got {len(cs)}")
    return [hb] * td.n + cs


def is_non_resonant(td, hbar, cvals):
    """Exact verdict with a witness.

    Returns a report dict; when resonant, `witness` names the offending
    minimal saturated Q together with the exact decomposition
    v = (subspace combination) + (integer vector)."""
    v = parameter_vector(td, hbar, cvals)
    report = {"non_resonant": True, "witness": None,
              "minimal_saturated_count": 0}
    minimal = minimal_saturated(td)
    report["minimal_saturated_count"] = len(minimal)
    for q_set in minimal:
        gens = lin_complement_generators(td, q_set)
        member, w, z = lattice_membership(v, gens)
        if member:
            report["non_resonant"] = False
            report["witness"] = {
                "Q": sorted(q_set),
                "subspace_coefficients": [str(x) for x in w],
                "integer_part": [int(x) for x in z],
            }
            return report
    return report


def genericity_check(td):
    """dim(Lin(Q^c) cap V_n) < dim V_n = d + 1 for every minimal saturated Q,
    where V_n = {(x, ..., x, y)} is the parameter subspace; guarantees the
    non-resonant locus is a nonempty Zariski-open subset of parameters."""
    from .exact import rank_rational
    n, d = td.n, td.d
    v_basis = [[1] * n + [0] * d]
    for j in range(d):
        v_basis.append([0] * n + [0] * j + [1] + [0] * (d - 1 - j))
    report = {"pass": True, "per_Q": []}
    for q_set in minimal_saturated(td):
        gens = lin_complement_generators(td, q_set)
        r_lin = rank_rational(gens) if gens else 0
        r_sum = rank_rational(gens + v_basis)
        dim_int = r_lin + (d + 1) - r_sum
        ok = dim_int < d + 1
        report["per_Q"].append({"Q": sorted(q_set),
                                "intersection_dim": dim_int, "pass": ok})
        report["pass"] = report["pass"] and ok
    return report
