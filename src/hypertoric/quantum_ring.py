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
presentations over one WallRing, each built once, on first use, with the
multiplication matrices read off the reduced basis
(RingPresentation.column), with no division.  Numeric consumers at any q
(spectra, periods, transport) evaluate the same ring there
(QuantumRing.numeric): every division of a completed build is by h, the
q_l and the walls, so off the walls the ring at q has the symbolic
staircase and the symbolic matrices evaluated at q (Kalkbrener 1997), and
no ring is built at a point.

The GKZ operators are defined here too, since their symbols are the
defining relations (symbol_check).  The wall checks (wall_distance,
check_regular) read 1 - q^S from log q, and they alone import numpy, in
their bodies: the exact commands load none.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from .arrangement import classify, enumerate_circuits
from .errors import (
    InconsistentExtraction,
    NotSmooth,
    ParameterDegeneracy,
    PoleOrderError,
    SingularEvaluation,
)
from .exact import mat_vec
from .params import WallRing
from .upoly import (GrevlexOrder, UPoly, buchberger, normal_form,
                    staircase, sum_of_products)

WALL_TOL = 1e-8      # closest approach |1 - q^S| to a wall q^S = 1


class RingPresentation:
    """A reduced Groebner basis gb of the generators over field (the
    WallRing of the instance), with its staircase std.
    Normal forms, matrices and everything read off them are elements of
    field."""

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
        self._lead = {g.leading(order)[0]: g for g in gb}
        self._columns = {}
        self._mult = {}

    @property
    def rank(self):
        return len(self.std)

    def nf(self, p):
        return normal_form(p, self.gb, self.order)

    def nf_vector(self, p):
        """Coordinates of [p] on the staircase basis."""
        vec = [self.field.zero] * len(self.std)
        for m, c in self.nf(p).terms.items():
            vec[self._index[m]] = c
        return vec

    def multiplication_matrix(self, i):
        """Matrix of multiplication by u_i on the staircase basis (columns
        are images of basis monomials, read off the reduced basis by
        column())."""
        M = self._mult.get(i)
        if M is None:
            cols = [self.column(tuple(e + (t == i) for t, e in enumerate(m)))
                    for m in self.std]
            M = [list(row) for row in zip(*cols)]
            self._mult[i] = M
        return M

    def column(self, m):
        """Coordinates of the monomial [m] on the staircase basis, read off
        the reduced (monic) basis and memoized (Kehrein-Kreuzer-Robbiano's
        border construction):
          - a unit vector when m is in the staircase;
          - minus the tail of the basis element when m is its leading term;
          - otherwise sum_k v_k [u_l b_k], where [m / u_l] = sum_k v_k b_k
            for the first variable u_l with m / u_l outside the staircase.
        The last case recurses on monomials below m in the term order, and
        each entry is one sum_of_products."""
        col = self._columns.get(m)
        if col is not None:
            return col
        col = [self.field.zero] * len(self.std)
        if m in self._index:
            col[self._index[m]] = self.field.one
        elif m in self._lead:
            for gm, gc in self._lead[m].terms.items():
                if gm != m:
                    col[self._index[gm]] = -gc
        else:
            for l, e in enumerate(m):
                if e:
                    down = m[:l] + (e - 1,) + m[l + 1:]
                    if down not in self._index:
                        break
            parts = [(v, self.column(b[:l] + (b[l] + 1,) + b[l + 1:]))
                     for v, b in zip(self.column(down), self.std) if v]
            for r in range(len(col)):
                pairs = [(v, w[r]) for v, w in parts if w[r]]
                if pairs:
                    col[r] = sum_of_products(pairs)
        self._columns[m] = col
        return col

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


# -- GKZ operators ------------------------------------------------------------


@dataclass(frozen=True)
class GkzLinear:
    j: int              # which base direction / equivariant weight c_j
    coeffs: tuple       # a_{ij} over i = 1..n


@dataclass(frozen=True)
class GkzCircuit:
    circuit: object


def gkz_system(td):
    ops = [GkzLinear(j, tuple(td.a[j][i] for i in range(td.n)))
           for j in range(td.d)]
    ops += [GkzCircuit(c) for c in enumerate_circuits(td)]
    return ops


def gkz_symbol(op, pres):
    """The symbol (nabla_i -> u_i): literally a defining ring relation."""
    if isinstance(op, GkzLinear):
        return linear_generators(pres.td, pres.field)[op.j]
    qf = pres.field.q_monomial(op.circuit.beta_k)
    return circuit_generator(pres.td, pres.field, op.circuit, qf)


def symbol_check(pres):
    """Each GKZ symbol reduces to 0 mod the quantum GB, and the GB lies in
    the ideal generated by the symbols (structural: the symbols are the
    presentation's generators)."""
    symbols = [gkz_symbol(op, pres)
               for op in gkz_system(pres.td)]
    reduce_ok = all(pres.nf(s).is_zero() for s in symbols)
    gens_ok = all(any(g == s for s in symbols) for g in pres.generators)
    return {"symbols_reduce_to_zero": reduce_ok,
            "generators_among_symbols": gens_ok,
            "pass": reduce_ok and gens_ok}


# -- walls --------------------------------------------------------------------


def wall_distance(circuits, qn):
    """Closest approach min_S |1 - q^S| to the walls of circuits, of the
    point qn of (C*)^n (a float) or of each row of an (N, n) batch (an
    (N,) array).  It is read as |expm1(beta_S . log q + i pi |S|)|, so
    nothing cancels near a wall; the i pi |S| is taken mod 2 pi i."""
    import numpy as np
    qn = np.asarray(qn, dtype=complex)
    beta = np.array([c.beta for c in circuits]).reshape(-1, qn.shape[-1])
    log_sign = 1j * np.pi * np.array([c.size % 2 for c in circuits])
    with np.errstate(all="ignore"):
        gaps = np.expm1(np.log(qn) @ beta.T + log_sign)
    return np.abs(gaps).min(axis=-1, initial=np.inf)


def check_regular(circuits, qn):
    """qn, one point of (C*)^n or an (N, n) batch, as a complex array;
    SingularEvaluation if a coordinate vanishes or a point lies within
    WALL_TOL of a wall of circuits."""
    import numpy as np
    qn = np.asarray(qn, dtype=complex)
    if (np.abs(qn) < 1e-300).any():
        raise SingularEvaluation("q has a vanishing coordinate")
    if (wall_distance(circuits, qn) < WALL_TOL).any():
        raise SingularEvaluation(
            f"q within {WALL_TOL} of the discriminant wall")
    return qn


@cache
def ring(td):
    """The ring object of smooth torus data td, one per value of td."""
    return QuantumRing(td)


def presentation(td, mode="quantum"):
    """Groebner presentation of the classical or quantum ring of td."""
    return ring(td).presentation(mode)


class QuantumRing:
    """One instance's quantum ring: the classical and quantum presentations
    over one parameter field, the connection family of the quantum one,
    and one compiled numeric connection per exact (h, c), which serves
    A_i(q) at every point off the walls.  Each part is built on first use;
    only smoothness and the circuits are computed up front."""

    def __init__(self, td):
        rep = classify(td)
        if not rep["smooth"]:
            raise NotSmooth(f"arrangement is not smooth: {rep}")
        self.td = td
        self.circuits = enumerate_circuits(td)
        self.field = WallRing(td.d, td.k, [((-1) ** c.size, c.beta_k)
                                           for c in self.circuits])
        self._pres = {}
        self._family = None
        self._numeric = {}

    def presentation(self, mode):
        """The "quantum" presentation (Novikov factor q^{beta_S} on each
        circuit relation) or the "classical" one (factor 0).  The build is
        metered (WallRing.metered): BudgetExceeded once its products form
        more than params.TERM_BUDGET numerator terms."""
        pres = self._pres.get(mode)
        if pres is None:
            if mode not in ("quantum", "classical"):
                raise ValueError(f"unknown mode {mode!r}")
            with self.field.metered():
                pres = self._pres[mode] = self._build(self.field, mode)
        return pres

    def generators(self, F, mode="quantum"):
        """The defining relations over the coefficient field F: the linear
        relations, then one relation per circuit with the Novikov factor
        q^{beta_S} ("quantum") or 0 ("classical").  In the quantum mode
        they are the symbols of the GKZ operators, in the same order."""
        gens = linear_generators(self.td, F)
        for c in self.circuits:
            qf = F.q_monomial(c.beta_k) if mode == "quantum" else F.zero
            gens.append(circuit_generator(self.td, F, c, qf))
        return gens

    def _build(self, F, mode):
        """The presentation over the coefficient field F: the instance's
        WallRing, in which Buchberger takes no gcd, or any field with the
        constructors generators uses."""
        order = GrevlexOrder(self.td.n)
        gens = self.generators(F, mode)
        gb = buchberger(gens, order)
        std = staircase(gb, order)
        return RingPresentation(self.td, mode, F, order, gens, gb, std,
                                self.circuits)

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
        """The NumericConnection at exact (hbar, cvals): A_i(q) at any q
        off the walls, for spectra and transport alike."""
        key = (Fraction(hbar), tuple(Fraction(c) for c in cvals))
        nc = self._numeric.get(key)
        if nc is None:
            from .connection import NumericConnection
            nc = self._numeric[key] = NumericConnection(self.family, *key)
        return nc


# matrix helpers over a coefficient field (lists of lists of field elements)

def mat_add(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[x * c for x in row] for row in A]


def q_shift(field, circuit):
    """q^S = (-1)^{|S|} q^{beta_S} as a field element."""
    sign = field.from_rational((-1) ** circuit.size)
    return sign * field.q_monomial(circuit.beta_k)


def extract_steinberg(pres, circuit):
    """Steinberg operator L_S from the simple pole of A_i at q^S = 1.

    The residue of A_i at q^S = 1 is h (u_i, beta_S) L_S.  Each entry of
    (1 - q^S) A_i / (h beta_i) is restricted to the wall exactly
    (WallRing.on_wall), for the first two divisors i of the support.  A
    wall of multiplicity above 1 in a denominator raises PoleOrderError;
    an entry that is not constant along the wall, or two divisors whose
    restrictions differ, raise InconsistentExtraction.  Entries are
    returned in pres.field, free of q, with powers of h as their only
    denominators besides rationals.
    """
    if pres.mode != "quantum":
        raise ValueError("Steinberg extraction needs the quantum presentation")
    F = pres.field
    wall = F.wall_index((-1) ** circuit.size, circuit.beta_k)
    mats = []
    for R in _wall_residues(pres, circuit, wall):
        M = [[F.on_wall(x, wall) for x in row] for row in R]
        if any(x is None for row in M for x in row):
            raise InconsistentExtraction(
                f"a residue for circuit {circuit.support} is not constant "
                f"along its wall")
        mats.append(M)
    if len(mats) == 2 and mats[0] != mats[1]:
        raise InconsistentExtraction(
            f"extractions for circuit {circuit.support} disagree between "
            f"divisors")
    return mats[0]


def _wall_residues(pres, circuit, wall):
    """(1 - q^S) A_i / (h beta_i) for the first two divisors of the
    support.  The wall's multiplicity in each entry's denominator is read
    off its exponent (factors[wall]); once the simple pole is cancelled,
    no entry has the wall in its denominator."""
    F = pres.field
    one_minus = F.one - q_shift(F, circuit)
    out = []
    for i in circuit.support[:2]:
        scale = one_minus / (F.h * F.from_rational(circuit.beta[i]))
        M = []
        for row in pres.multiplication_matrix(i):
            if any(f.exps[wall] > 1 for f in row):
                raise PoleOrderError(
                    f"pole of A_{i + 1} at q^S=1 is not simple for "
                    f"circuit {circuit.support}")
            M.append([f * scale for f in row])
        out.append(M)
    return out


def verify_divisor_formula(td, seed=0):
    """Check A_i(q) = A_i(0) + h sum_S (u_i,beta_S) q^S/(1-q^S) L_S exactly.

    A_i(0) is the classical multiplication matrix on the shared staircase.
    Returns a report with one exactness flag per divisor.  seed is
    accepted and unread: extraction draws no point.
    """
    r = ring(td)
    presq, presc = r.quantum, r.classical
    if presq.std != presc.std:
        raise ParameterDegeneracy("classical and quantum staircases differ")
    F = presq.field
    steins = [(c, extract_steinberg(presq, c)) for c in presq.circuits]
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
        # the WallElement form is canonical, so == decides each entry
        per_divisor.append({"divisor": i + 1, "exact": A == R})
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


def verify_steinberg_identities(td):
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

    def vanishing_classes(S):
        """The factors of each class u_{M+} (h-u)_{M-} the vanishing lemma
        covers.  M u {i} is circuit-free for a point i of S outside M, so
        independent in the rank-d matroid, and |M| < d."""
        for msize in range(td.d):
            for M in combinations(range(n), msize):
                Mset = set(M)
                if any(sup <= Mset for sup in supports) or any(
                        sup <= Mset | {i} for sup in supports
                        for i in S - Mset):
                    continue
                for split in range(1 << msize):
                    yield [hmu(i) if (split >> t) & 1 else u(i)
                           for t, i in enumerate(M)]

    report = {"circuits": [], "all_pass": True}
    for c in presq.circuits:
        L = extract_steinberg(presq, c)
        v = {i: (u(i) if i in c.plus else hmu(i)) for i in c.support}
        hv = {i: (hmu(i) if i in c.plus else u(i)) for i in c.support}
        rhs_poly = _product_poly(presq, [hv[i] for i in c.support])
        rhs_vec = presc.nf_vector(rhs_poly)
        sign = F.from_rational((-1) ** c.size)
        prodA = prodB = True
        for i0 in c.support:
            argA = _product_poly(presq, [v[i] for i in c.support if i != i0])
            lhsA = [h * x for x in mat_vec(L, presc.nf_vector(argA))]
            if lhsA != [sign * x for x in rhs_vec]:
                prodA = False
            argB = _product_poly(presq, [hv[i] for i in c.support if i != i0])
            lhsB = [h * x for x in mat_vec(L, presc.nf_vector(argB))]
            if lhsB != [-x for x in rhs_vec]:
                prodB = False
        vanish = not any(
            any(mat_vec(L, presc.nf_vector(_product_poly(presq, factors))))
            for factors in vanishing_classes(set(c.support)))
        entry = {
            "circuit": tuple(i + 1 for i in c.support),
            "product_identity_A": prodA,
            "product_identity_B": prodB,
            "vanishing": vanish,
        }
        report["circuits"].append(entry)
        report["all_pass"] &= prodA and prodB and vanish
    return report
