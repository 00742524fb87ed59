"""Quantum connection, GKZ system, and parallel transport.

The connection lives on the trivial bundle over (T^n)^v with coordinates
q_1..q_n and fiber the staircase basis:

    nabla_i = q_i d/dq_i + A_i(q),   i = 1..n,

with A_i the quantum multiplication matrix by u_i.  The ring presentation
uses the k internal Kahler coordinates q^k_l (iota basis); the pullback is
q^k_l = prod_i q_i^{iota_il}, so the Euler derivative in the i-th torus
direction acts on presentation coefficients as
E_i = sum_l iota_il q^k_l d/dq^k_l.

The GKZ system consists of d linear operators sum_i a_ij nabla_i - c_j and
one operator per circuit,

    prod_{S+} nabla_i prod_{S-} (h - nabla_i)
        - q^{beta_S} prod_{S+} (h - nabla_i) prod_{S-} nabla_i ;

its symbols are literally the ring relations and the whole system kills the
constant unit section exactly.

The connection is linear, so parallel transport along a QPath is one r x r
matrix: the product, segment by segment, of the propagators of the
transport equation, each computed by 8-node Gauss-Legendre collocation on
the intervals of an adaptive bisection.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bisection import bisect
from .errors import SingularEvaluation, StepFailure
from .params import iota_coordinates
from .quantum_ring import WALL_TOL, check_regular, ring, wall_distance

# -- symbolic side -----------------------------------------------------------


class ConnectionFamily:
    def __init__(self, pres):
        self.pres = pres
        self.td = pres.td
        self.field = pres.field
        self.matrices = [pres.multiplication_matrix(i)
                         for i in range(pres.td.n)]
        self._euler_cache = {}

    @property
    def rank(self):
        return self.pres.rank

    def euler_scalar(self, fr, i):
        """E_i (n-coordinate Euler derivative) on a coefficient, formed in
        the presentation's WallRing with no gcd."""
        return self.field.euler(fr, self.td.iota[i])

    def euler_matrix(self, i, j):
        """E_i A_j, cached symbolically."""
        key = (i, j)
        M = self._euler_cache.get(key)
        if M is None:
            M = [[self.euler_scalar(x, i) for x in row]
                 for row in self.matrices[j]]
            self._euler_cache[key] = M
        return M

    def nabla(self, i, vec):
        """nabla_i applied to a symbolic section (vector of coefficients)."""
        dot = self.field.dot
        return [dot(row, vec) + self.euler_scalar(x, i)
                for row, x in zip(self.matrices[i], vec)]

    def nabla_h_minus(self, i, vec):
        """(h - nabla_i) applied to a symbolic section."""
        out = self.nabla(i, vec)
        return [self.field.h * v - o for v, o in zip(vec, out)]

    def unit_section(self):
        e0 = [self.field.zero] * self.rank
        e0[self.pres.std.index((0,) * self.td.n)] = self.field.one
        return e0

    def flatness_exact(self):
        """Whether E_i A_j - E_j A_i + [A_i, A_j] = 0 holds symbolically:
        each entry is one WallRing.dot, brought to one denominator once."""
        n = self.td.n
        r = self.rank
        F = self.field
        one = F.one
        for i in range(n):
            for j in range(i + 1, n):
                EiAj = self.euler_matrix(i, j)
                EjAi = self.euler_matrix(j, i)
                A, B = self.matrices[i], self.matrices[j]
                for r1 in range(r):
                    for c1 in range(r):
                        xs = [EiAj[r1][c1], -EjAi[r1][c1], *A[r1],
                              *(-x for x in B[r1])]
                        ys = [one, one, *(row[c1] for row in B),
                              *(row[c1] for row in A)]
                        if F.dot(xs, ys):
                            return False
        return True


# -- GKZ operators ------------------------------------------------------------


@dataclass(frozen=True)
class GkzLinear:
    j: int              # which base direction / equivariant weight c_j
    coeffs: tuple       # a_{ij} over i = 1..n


@dataclass(frozen=True)
class GkzCircuit:
    circuit: object


def gkz_system(td):
    from .arrangement import enumerate_circuits
    ops = [GkzLinear(j, tuple(td.a[j][i] for i in range(td.n)))
           for j in range(td.d)]
    ops += [GkzCircuit(c) for c in enumerate_circuits(td)]
    return ops


def gkz_symbol(op, pres):
    """The symbol (nabla_i -> u_i): literally a defining ring relation."""
    from .quantum_ring import circuit_generator, linear_generators
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


def apply_gkz_to_section(fam, op, vec):
    """Apply a GKZ operator (in nabla form) to a symbolic section."""
    F = fam.field
    if isinstance(op, GkzLinear):
        out = [F.zero] * fam.rank
        for i, aij in enumerate(op.coeffs):
            if aij:
                term = fam.nabla(i, vec)
                out = [o + F.from_rational(aij) * t for o, t in zip(out, term)]
        return [o - F.c[op.j] * v for o, v in zip(out, vec)]
    c = op.circuit
    # first product: rightmost factor acts first
    first = list(vec)
    for i in reversed(c.minus):
        first = fam.nabla_h_minus(i, first)
    for i in reversed(c.plus):
        first = fam.nabla(i, first)
    second = list(vec)
    for i in reversed(c.minus):
        second = fam.nabla(i, second)
    for i in reversed(c.plus):
        second = fam.nabla_h_minus(i, second)
    qb = fam.field.q_monomial(c.beta_k)
    return [a - qb * b for a, b in zip(first, second)]


def gkz_annihilates_unit(fam):
    """Exact check: every GKZ operator kills the constant unit section."""
    e0 = fam.unit_section()
    for op in gkz_system(fam.td):
        img = apply_gkz_to_section(fam, op, e0)
        if any(x for x in img):
            return False
    return True


# -- numeric side -------------------------------------------------------------


class CompiledFractions:
    """Q(h, c, q) fractions (WallElements) with exact (h, c) baked in,
    evaluated at q^k in one numpy pass.

    E (T x k) is one table of the q^k monomials of all numerators and
    denominators; row t of N (of D) holds fraction t's numerator (its
    denominator, the product of its factors expanded) as coefficients over
    E, each formed exactly and then rounded once to complex.
    """

    def __init__(self, field, fracs, hbar, cvals):
        index, rows = {}, []
        for fr in fracs:
            num, den = field.fraction(fr)
            num = _bake(field, num, hbar, cvals)
            den = _bake(field, den, hbar, cvals)
            for e in [*num, *den]:
                index.setdefault(e, len(index))
            rows.append((num, den))
        self.E = np.array(list(index), dtype=np.int64).reshape(-1, field.nq)
        self.N = np.zeros((len(rows), len(index)), dtype=complex)
        self.D = np.zeros_like(self.N)
        for t, (num, den) in enumerate(rows):
            for M, part in ((self.N, num), (self.D, den)):
                for e, c in part.items():
                    M[t, index[e]] = complex(c)

    def _parts(self, qk):
        with np.errstate(over="ignore", invalid="ignore"):
            mon = np.prod(qk ** self.E, axis=1)
            num, den = self.N @ mon, self.D @ mon
        if not np.isfinite(np.concatenate((mon, num, den))).all():
            raise SingularEvaluation("q^k overflows")
        if np.any(np.abs(den) < 1e-14 * np.maximum(1.0, np.abs(num))):
            raise SingularEvaluation("denominator vanished")
        return mon, num, den

    def at(self, qk):
        """Every fraction at q^k = qk, as one complex array."""
        _, num, den = self._parts(qk)
        return num / den

    def euler_at(self, qk, w):
        """E_w = sum_l w_l q_l d/dq_l of every fraction at qk, exactly
        differentiated: E_w q^m = (m . w) q^m, then the quotient rule."""
        mon, num, den = self._parts(qk)
        dmon = (self.E @ np.asarray(w)) * mon
        return (self.N @ dmon * den - num * (self.D @ dmon)) / den ** 2


def _bake(field, p, hbar, cvals):
    """{q-exponent: Fraction} of the integer polynomial p with h = hbar
    and c = cvals substituted exactly, in lex order of p's terms; zero
    coefficients dropped."""
    groups = {}
    for m, coeff in sorted(p.items(), reverse=True):
        scale = coeff * hbar ** m[0]
        for c, e in zip(cvals, m[1:1 + field.d]):
            scale *= c ** e
        qexp = tuple(m[1 + field.d:])
        groups[qexp] = groups.get(qexp, Fraction(0)) + scale
    return {e: c for e, c in groups.items() if c}


class NumericConnection:
    """Connection matrices with (hbar, c) fixed exactly, fast q evaluation.

    Walls q^S = 1 are checked explicitly; evaluation closer than WALL_TOL
    raises SingularEvaluation.  compiled holds the n r^2 entries of the
    A_i, in order i, row, column.
    """

    def __init__(self, fam, hbar, cvals):
        self.fam = fam
        self.td = fam.td
        self.rank = fam.rank
        self.hbar = Fraction(hbar)
        self.cvals = [Fraction(c) for c in cvals]
        self.compiled = CompiledFractions(
            fam.field, [x for M in fam.matrices for row in M for x in row],
            self.hbar, self.cvals)
        self.circuits = fam.pres.circuits

    def qk_of(self, qn):
        """The iota coordinates q^k of the point qn of (C*)^n;
        SingularEvaluation if qn has a vanishing coordinate or lies within
        WALL_TOL of a wall, or if some q^k overflows or underflows."""
        check_regular(self.circuits, qn)
        qn = np.asarray(qn, dtype=complex)
        with np.errstate(all="ignore"):
            qk = np.array(iota_coordinates(self.td, qn, 1.0 + 0.0j),
                          dtype=complex)
        if not (np.isfinite(qk).all() and qk.all()):
            raise SingularEvaluation("q^k overflows or underflows")
        return qk

    def wall_distance(self, qn):
        return wall_distance(self.circuits, qn)

    def matrices_at(self, qn):
        vals = self.compiled.at(self.qk_of(qn))
        return list(vals.reshape(self.td.n, self.rank, self.rank))


def flatness_residual(fam, hbar, cvals, points):
    """Max normalized residual of E_i A_j - E_j A_i + [A_i, A_j] at points.

    A_i and the Euler derivatives E_i A_j come from one compiled table of
    the exact entries (CompiledFractions.at and euler_at); only the
    evaluation at q is numeric.  Normalization: residual entries divided
    by max(1, largest |A| entry at the point).
    """
    td = fam.td
    nc = ring(td).numeric(hbar, cvals)
    shape = (td.n, nc.rank, nc.rank)
    worst = 0.0
    for qn in points:
        qk = nc.qk_of(qn)
        A = nc.compiled.at(qk).reshape(shape)
        EA = [nc.compiled.euler_at(qk, w).reshape(shape) for w in td.iota]
        scale = max(1.0, np.abs(A).max())
        for i in range(td.n):
            for j in range(i + 1, td.n):
                R = EA[i][j] - EA[j][i] + A[i] @ A[j] - A[j] @ A[i]
                worst = max(worst, np.abs(R).max() / scale)
    return worst


# -- paths and transport -------------------------------------------------------

CIRCLE_SEGMENTS = 8        # segments per turn of QPath.circle
SAMPLES_PER_SEGMENT = 16   # wall pre-scan points per QPath segment


class QPath:
    """Piecewise path in (C*)^n between waypoints.

    Log-linear interpolation: each coordinate moves along
    exp((1-s) Log q_a + s (Log q_a + principal log(q_b/q_a))); segments with
    equal moduli trace circular arcs exactly, and d log q / ds is constant
    per segment.
    """

    def __init__(self, waypoints):
        self.waypoints = [np.asarray(w, dtype=complex) for w in waypoints]
        if len(self.waypoints) < 2:
            raise ValueError("need at least two waypoints")
        self.nseg = len(self.waypoints) - 1

    @classmethod
    def circle(cls, q0, coord, turns=1):
        """Loop multiplying coordinate `coord` by e^{2 pi i turns}, in
        CIRCLE_SEGMENTS log-linear segments per turn."""
        q0 = np.asarray(q0, dtype=complex)
        total = int(CIRCLE_SEGMENTS * max(1, abs(turns)))
        pts = []
        for t in range(total + 1):
            w = q0.copy()
            w[coord] = q0[coord] * np.exp(2j * np.pi * turns * t / total)
            pts.append(w)
        return cls(pts)

    def segment(self, k):
        """(q_a, delta) of segment k: q(sigma) = q_a exp(sigma delta) for
        sigma in [0, 1], delta the principal log of the waypoint ratio."""
        qa, qb = self.waypoints[k], self.waypoints[k + 1]
        return qa, np.log(qb / qa)

    def at(self, s):
        """(q(s), dlog q/ds) at global parameter s in [0, 1]."""
        s = min(max(s, 0.0), 1.0)
        x = s * self.nseg
        seg = min(int(x), self.nseg - 1)
        qa, delta = self.segment(seg)
        return qa * np.exp((x - seg) * delta), delta * self.nseg

    def samples(self):
        """SAMPLES_PER_SEGMENT uniform points per segment, with (s, q(s))."""
        ss = np.linspace(0.0, 1.0, self.nseg * SAMPLES_PER_SEGMENT + 1)
        return [(s, self.at(s)[0]) for s in ss]


def transport_matrix(nc, path):
    """Parallel transport along path as one matrix: its columns are the
    transported basis vectors.  Each segment k contributes the propagator
    of dv/dsigma = -sum_i delta_i A_i(q_a exp(sigma delta)) v on [0, 1],
    and the segments' propagators are multiplied in order, so no interval
    crosses the kink between two segments."""
    for _, q in path.samples():
        if nc.wall_distance(q) < WALL_TOL:
            raise SingularEvaluation("path passes too close to a wall")
    Phi = np.eye(nc.rank, dtype=complex)
    for k in range(path.nseg):
        qa, delta = path.segment(k)

        def M(sigma):
            return np.array([-np.tensordot(
                delta, nc.matrices_at(qa * np.exp(x * delta)), 1)
                for x in sigma])

        Phi = propagator(M, nc.rank) @ Phi
    return Phi


def transport(nc, path, v0):
    """Parallel transport of v0 along path: solves dv/ds = -sum_i dlog_i A_i v.
    v0 is a vector, or a matrix whose columns are transported together."""
    return transport_matrix(nc, path) @ np.asarray(v0, dtype=complex)


# -- Gauss-Legendre collocation propagators -----------------------------------
#
# Collocation at m Gauss-Legendre nodes c_j of [0, 1] has order 2m (Hairer,
# Norsett, Wanner, Solving ODEs I, Sec. II.7).  _COLLOCATION[j, l] is the
# integral over [0, c_j] of the nodes' l-th Lagrange polynomial (inverse
# Vandermonde matrix times monomial integrals); _WEIGHTS over [0, 1].

TRANSPORT_NODES = 8        # collocation nodes per interval
TRANSPORT_DEPTH = 40       # bisection depths 0 to 40 per segment
TRANSPORT_PANELS = 512     # intervals one propagator may evaluate
TRANSPORT_TOL = 1e-12      # |P_whole - P_right P_left| <= tol max(1, |split|)


def _collocation(m):
    x, w = np.polynomial.legendre.leggauss(m)
    k = np.arange(m)
    integrals = (x[:, None] ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
    A = np.linalg.solve((x[:, None] ** k).T, integrals.T).T / 2
    return (x + 1) / 2, A, w / 2


_NODES, _COLLOCATION, _WEIGHTS = _collocation(TRANSPORT_NODES)


def _collocate(M, s0, h, r):
    """The propagators, shape (len(s0), r, r), of dv/dsigma = M(sigma) v
    over the intervals [s0, s0 + h]: one batched np.linalg.solve of the m r
    equations U_j = 1 + h sum_l A_jl M(sigma_l) U_l for the propagators U_j
    at the nodes, then 1 + h sum_j w_j M(sigma_j) U_j."""
    m = TRANSPORT_NODES
    Ms = M((s0[:, None] + _NODES * h[:, None]).ravel()).reshape(-1, m, r, r)
    K = (h[:, None, None, None, None] * _COLLOCATION[:, None, :, None]
         * Ms.transpose(0, 2, 1, 3)[:, None])
    K = np.eye(m * r) - K.reshape(-1, m * r, m * r)
    U = np.linalg.solve(K, np.tile(np.eye(r), (m, 1))[None])
    MU = Ms @ U.reshape(-1, m, r, r)
    return np.eye(r) + h[:, None, None] * np.tensordot(MU, _WEIGHTS, (1, 0))


def propagator(M, r):
    """The propagator P, v(1) = P v(0), of dv/dsigma = M(sigma) v on [0, 1];
    M maps an array of N parameters to the (N, r, r) array of M there.
    bisection.bisect compares each interval's P_whole with P_right P_left,
    and the passed P_right P_left are multiplied in order of sigma; it
    raises StepFailure."""
    def halves(_, s0, h):
        P = _collocate(M, s0.ravel(), h.ravel(), r).reshape(-1, 3, r, r)
        return P[:, 0], P[:, 2] @ P[:, 1]

    levels = bisect(halves, np.zeros(1, dtype=int), TRANSPORT_TOL,
                    TRANSPORT_DEPTH, TRANSPORT_PANELS, StepFailure)
    _, starts, splits = map(np.concatenate, zip(*levels))
    Phi = np.eye(r, dtype=complex)
    for k in np.argsort(starts):
        Phi = splits[k] @ Phi
    return Phi
