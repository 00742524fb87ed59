"""Classical and quantum equivariant cohomology ring presentations.

The quantum ring of smooth hypertoric data is the quotient of
Q(h, c)[u_1..u_n, q] by the linear relations sum_i a_ij u_i = c_j and one
relation per circuit S:

    prod_{S+} u_i prod_{S-} (h - u_i)  =  q^{beta_S} prod_{S+} (h - u_i) prod_{S-} u_i

with no shift in the deformation parameter.  The classical ring is the same
with every q^{beta_S} set to 0.  Both are presented by a reduced Groebner
basis over the parameter field; the staircase monomials form the working
basis of the underlying vector space, and its size equals the number of
vertices of the arrangement.

Steinberg operators L_S are recovered from the simple pole of a quantum
multiplication matrix at q^S = 1, where q^S = (-1)^{|S|} q^{beta_S}; the
divisor formula

    A_i(q) = A_i(0) + h sum_S (u_i, beta_S) (q^S / (1 - q^S)) L_S

is then an exact identity of matrices over Q(h, c, q).  Cohomology classes
(as opposed to operators) are represented throughout by their *classical*
normal forms on the common staircase; using quantum normal forms for the
product identities below is off by exactly 1/(1 - q^S).

ring(td) is the one object per instance that holds all of this: both
presentations over one field, each built once, on first use.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

from .arrangement import classify, enumerate_circuits
from .errors import (
    InconsistentExtraction,
    NotSmooth,
    ParameterDegeneracy,
    PoleOrderError,
)
from .exact import hermite_normal_form
from .params import ParamField
from .upoly import GrevlexOrder, UPoly, buchberger, normal_form, staircase

_VANISHING_CAP = 4   # largest circuit-free set M tried by the vanishing check


def make_field(td):
    return ParamField(td.d, td.k)


class RingPresentation:
    def __init__(self, td, mode, field, order, generators, gb, std, circuits):
        self.td = td
        self.mode = mode
        self.field = field
        self.order = order
        self.generators = generators
        self.gb = gb
        self.std = std
        self.circuits = circuits
        self._index = {m: i for i, m in enumerate(std)}
        self._mult = {}

    @property
    def rank(self):
        return len(self.std)

    def u(self, i):
        return UPoly.variable(i, self.td.n, self.field.one)

    def nf(self, p):
        return normal_form(p, self.gb, self.order)

    def nf_vector(self, p):
        """Coordinates of [p] on the staircase basis."""
        r = self.nf(p)
        vec = [self.field.zero] * len(self.std)
        for m, c in r.terms.items():
            vec[self._index[m]] = c
        return vec

    def multiplication_matrix(self, i):
        """Matrix of multiplication by u_i on the staircase basis (columns
        are images of basis monomials)."""
        M = self._mult.get(i)
        if M is None:
            cols = []
            ui = self.u(i)
            for m in self.std:
                p = ui * UPoly(self.td.n, {m: self.field.one})
                cols.append(self.nf_vector(p))
            M = [[cols[c][r] for c in range(len(self.std))]
                 for r in range(len(self.std))]
            self._mult[i] = M
        return M

    def multiplication_matrix_poly(self, p):
        cols = []
        for m in self.std:
            cols.append(self.nf_vector(p * UPoly(self.td.n, {m: self.field.one})))
        return [[cols[c][r] for c in range(len(self.std))]
                for r in range(len(self.std))]

    def relation_strings(self):
        names = [f"u{i + 1}" for i in range(self.td.n)]
        return [g.render(names, coeff_str=self.field.render) for g in self.gb]


def linear_generators(td, field):
    gens = []
    for j in range(td.d):
        terms = {}
        for i in range(td.n):
            if td.a[j][i]:
                exp = tuple(1 if t == i else 0 for t in range(td.n))
                terms[exp] = field.from_rational(td.a[j][i])
        p = UPoly(td.n, terms) - UPoly.constant(field.c[j], td.n)
        gens.append(p)
    return gens


def circuit_generator(td, field, circuit, qfactor):
    one = field.one
    h = field.h
    n = td.n

    def u(i):
        return UPoly.variable(i, n, one)

    def hmu(i):
        return UPoly.constant(h, n) - u(i)

    left = UPoly.constant(one, n)
    for i in circuit.plus:
        left = left * u(i)
    for i in circuit.minus:
        left = left * hmu(i)
    if not qfactor:
        return left
    right = UPoly.constant(qfactor, n)
    for i in circuit.plus:
        right = right * hmu(i)
    for i in circuit.minus:
        right = right * u(i)
    return left - right


@cache
def ring(td):
    """The ring object of smooth torus data td, one per value of td."""
    return QuantumRing(td)


def presentation(td, mode="quantum"):
    """Groebner presentation of the classical or quantum ring of td."""
    return ring(td).presentation(mode)


class QuantumRing:
    """One instance's quantum ring: the classical and quantum presentations
    over one parameter field, the connection family of the quantum one, and
    one compiled numeric connection per exact (h, c).  Each part is built on
    first use; only smoothness and the circuits are computed up front."""

    def __init__(self, td):
        rep = classify(td)
        if not rep["smooth"]:
            raise NotSmooth(f"arrangement is not smooth: {rep}")
        self.td = td
        self.field = make_field(td)
        self.circuits = enumerate_circuits(td)
        self._pres = {}
        self._family = None
        self._numeric = {}

    def presentation(self, mode):
        """The "quantum" presentation (Novikov factor q^{beta_S} on each
        circuit relation) or the "classical" one (factor 0)."""
        pres = self._pres.get(mode)
        if pres is None:
            if mode not in ("quantum", "classical"):
                raise ValueError(f"unknown mode {mode!r}")
            td, F = self.td, self.field
            order = GrevlexOrder(td.n)
            gens = linear_generators(td, F)
            for c in self.circuits:
                qf = F.q_monomial(c.beta_k) if mode == "quantum" else F.zero
                gens.append(circuit_generator(td, F, c, qf))
            gb = buchberger(gens, order)
            std = staircase(gb, order)
            pres = self._pres[mode] = RingPresentation(
                td, mode, F, order, gens, gb, std, self.circuits)
        return pres

    @property
    def quantum(self):
        return self.presentation("quantum")

    @property
    def classical(self):
        return self.presentation("classical")

    @property
    def family(self):
        """The ConnectionFamily of the quantum presentation."""
        if self._family is None:
            from .connection import ConnectionFamily
            self._family = ConnectionFamily(self.quantum)
        return self._family

    def numeric(self, hbar, cvals):
        """The NumericConnection at exact (hbar, cvals)."""
        key = (Fraction(hbar), tuple(Fraction(c) for c in cvals))
        nc = self._numeric.get(key)
        if nc is None:
            from .connection import NumericConnection
            nc = self._numeric[key] = NumericConnection(self.family, *key)
        return nc


# matrix helpers over a coefficient field (lists of lists of field elements)

def mat_add(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[x * c for x in row] for row in A]


def mat_apply(A, v):
    return [sum((x * y for x, y in zip(row, v)), row[0] * 0) for row in A]


def mat_is_zero(A):
    return all(not x for row in A for x in row)


def q_shift(field, circuit):
    """q^S = (-1)^{|S|} q^{beta_S} as a field element."""
    sign = field.from_rational((-1) ** circuit.size)
    return sign * field.q_monomial(circuit.beta_k)


def extract_steinberg(pres, circuit, seed=0):
    """Steinberg operator L_S from the simple pole of A_i at q^S = 1.

    The residue of A_i at q^S = 1 is h (u_i, beta_S) L_S.  It is read off
    the quantum multiplication matrices at a seeded point of the wall, the
    value at s = (-1)^{|S|} of the HNF-completed line q_l -> gamma_l
    s^{W[0][l]}, on which q^S = (-1)^{|S|} s.  Every factor of the wall
    polynomial q^{beta-} -+ q^{beta+} is divided out of each entry's
    denominator first: a factor of multiplicity above 1 raises
    PoleOrderError, and a point where the rest of a denominator vanishes
    is redrawn.  Extraction runs twice (two divisor choices and two point
    draws); disagreement raises InconsistentExtraction.  Entries are
    returned in pres.field (q-free).
    """
    if pres.mode != "quantum":
        raise ValueError("Steinberg extraction needs the quantum presentation")
    H, W = hermite_normal_form([[b] for b in circuit.beta_k])
    if H[0][0] != 1:
        raise AssertionError("circuit beta_k is not primitive")
    residues = _wall_residues(pres, circuit)
    first = _extract_once(pres, circuit, W, residues, seed)
    second = _extract_once(pres, circuit, W, residues, seed + 1)
    if first != second:
        raise InconsistentExtraction(
            f"extractions for circuit {circuit.support} disagree between draws")
    return first


def _wall_residues(pres, circuit):
    """(1 - q^S) A_i / (h beta_i) for the first two divisors of the
    support, with the wall factor cancelled by hand, so each entry's
    denominator is nonzero on the wall away from other singularities."""
    F = pres.field
    one_minus = F.one - q_shift(F, circuit)
    wall = one_minus.numer      # q^{beta-} -+ q^{beta+}, up to sign
    out = []
    for i in circuit.support[:2]:
        scale = (F.h * F.from_rational(circuit.beta[i])).numer
        M = []
        for row in pres.multiplication_matrix(i):
            out_row = []
            for f in row:
                rest, mult = f.denom, 0
                while True:
                    quo, rem = divmod(rest, wall)
                    if rem:
                        break
                    rest, mult = quo, mult + 1
                if mult > 1:
                    raise PoleOrderError(
                        f"pole of A_{i + 1} at q^S=1 is not simple for "
                        f"circuit {circuit.support}")
                numer = f.numer if mult else f.numer * wall
                out_row.append(
                    F.quotient(numer, rest * one_minus.denom * scale))
            M.append(out_row)
        out.append(M)
    return out


def _extract_once(pres, circuit, W, residues, seed):
    td = pres.td
    F = pres.field
    sign = Fraction((-1) ** circuit.size)
    rnd = random.Random(f"steinberg:{seed}:{circuit.support}")
    for _ in range(8):
        rs = [Fraction(rnd.randint(1, 19), rnd.randint(1, 19))
              for _ in range(td.k - 1)]
        point = []
        for l in range(td.k):
            ql = sign ** W[0][l]
            for m in range(1, td.k):
                ql *= rs[m - 1] ** W[m][l]
            point.append(ql)
        try:
            mats = [[[F.at_q(x, point) for x in row] for row in R]
                    for R in residues]
        except ZeroDivisionError:
            continue   # the point lies on another singularity: redraw
        if len(mats) == 2 and mats[0] != mats[1]:
            raise InconsistentExtraction(
                f"extractions for circuit {circuit.support} disagree "
                f"between divisors")
        return mats[0]
    raise ParameterDegeneracy(
        f"no generic wall point found for circuit {circuit.support}")


def verify_divisor_formula(td, seed=0):
    """Check A_i(q) = A_i(0) + h sum_S (u_i,beta_S) q^S/(1-q^S) L_S exactly.

    A_i(0) is the classical multiplication matrix on the shared staircase.
    Returns a report with one exactness flag per divisor.
    """
    r = ring(td)
    presq, presc = r.quantum, r.classical
    if presq.std != presc.std:
        raise ParameterDegeneracy("classical and quantum staircases differ")
    F = presq.field
    steins = [(c, extract_steinberg(presq, c, seed)) for c in presq.circuits]
    per_divisor = []
    for i in range(td.n):
        A = presq.multiplication_matrix(i)
        R = presc.multiplication_matrix(i)
        for c, L in steins:
            beta_i = c.beta[i]
            if not beta_i:
                continue
            qs = q_shift(F, c)
            ratio = qs / (F.one - qs)
            R = mat_add(R, mat_scale(L, F.h * F.from_rational(beta_i) * ratio))
        diff = mat_sub(A, R)
        per_divisor.append({"divisor": i + 1, "exact": mat_is_zero(diff)})
    return {
        "instance": td.describe(),
        "per_divisor": per_divisor,
        "all_exact": all(e["exact"] for e in per_divisor),
    }


def _product_poly(pres, factors):
    p = UPoly.constant(pres.field.one, pres.td.n)
    for f in factors:
        p = p * f
    return p


def verify_steinberg_identities(td, seed=0):
    """Exact checks of the vanishing and product identities for each circuit.

    With v_i = u_i on S+ and h - u_i on S-:
      product identity A:  h L_S prod_{i in S, i != i0} v_i
                              = (-1)^{|S|} prod_{i in S} (h - v_i)
      product identity B:  h L_S prod_{i in S, i != i0} (h - v_i)
                              = - prod_{i in S} (h - v_i)
      vanishing: L_S kills every monomial class u_{M+} (h-u)_{M-} where M is
      circuit-free and M u {i} is circuit-free for all i in S \\ M.
    Classes are represented by classical normal forms on the staircase.
    """
    r = ring(td)
    presq, presc = r.quantum, r.classical
    if presq.std != presc.std:
        raise ParameterDegeneracy("classical and quantum staircases differ")
    F = presq.field
    h = F.h
    n = td.n
    supports = [set(c.support) for c in presq.circuits]

    def u(i):
        return UPoly.variable(i, n, F.one)

    def hmu(i):
        return UPoly.constant(h, n) - u(i)

    report = {"circuits": [], "all_pass": True}
    for c in presq.circuits:
        L = extract_steinberg(presq, c, seed)
        v = {i: (u(i) if i in c.plus else hmu(i)) for i in c.support}
        hv = {i: (hmu(i) if i in c.plus else u(i)) for i in c.support}
        rhs_poly = _product_poly(presq, [hv[i] for i in c.support])
        rhs_vec = presc.nf_vector(rhs_poly)
        sign = F.from_rational((-1) ** c.size)
        prodA = prodB = True
        for i0 in c.support:
            argA = _product_poly(presq, [v[i] for i in c.support if i != i0])
            lhsA = [h * x for x in mat_apply(L, presc.nf_vector(argA))]
            if lhsA != [sign * x for x in rhs_vec]:
                prodA = False
            argB = _product_poly(presq, [hv[i] for i in c.support if i != i0])
            lhsB = [h * x for x in mat_apply(L, presc.nf_vector(argB))]
            if lhsB != [-x for x in rhs_vec]:
                prodB = False
        # vanishing lemma over admissible circuit-free M
        vanish = True
        S = set(c.support)
        for msize in range(0, min(_VANISHING_CAP, n) + 1):
            for M in combinations(range(n), msize):
                Mset = set(M)
                if any(sup <= Mset for sup in supports):
                    continue
                if any(any(sup <= Mset | {i} for sup in supports)
                       for i in S - Mset):
                    continue
                for split in range(1 << len(M)):
                    factors = []
                    for t, i in enumerate(M):
                        factors.append(u(i) if (split >> t) & 1 == 0 else hmu(i))
                    vec = presc.nf_vector(_product_poly(presq, factors))
                    img = mat_apply(L, vec)
                    if any(x for x in img):
                        vanish = False
                        break
                if not vanish:
                    break
            if not vanish:
                break
        entry = {
            "circuit": tuple(i + 1 for i in c.support),
            "product_identity_A": prodA,
            "product_identity_B": prodB,
            "vanishing": vanish,
        }
        report["circuits"].append(entry)
        report["all_pass"] &= prodA and prodB and vanish
    return report
