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
constant unit section exactly.  The operators are defined in quantum_ring,
next to the relations, and re-exported here.

Numerically the entries of the A_i are evaluated from log q, at one point
or at a batch (CompiledFractions): each denominator stays the product of
wall factors its WallElement keeps, each wall factor is one expm1, so
nothing cancels near a wall, and the pullback through iota is folded into
integer exponent tables, so q^k is never formed.

The connection is linear, so parallel transport along a QPath is one r x r
matrix: the product, segment by segment, of the propagators of the
transport equation, each computed by 8-node Gauss-Legendre collocation on
the intervals of an adaptive bisection, with every node of a bisection
level evaluated in one call.
"""

from fractions import Fraction
from math import prod
from operator import sub

import numpy as np

from .bisection import bisect
from .errors import SingularEvaluation, StepFailure
from .quantum_ring import (  # the GKZ operators are re-exported here
    WALL_TOL, GkzCircuit, GkzLinear, check_regular, gkz_symbol, gkz_system,
    ring, symbol_check, wall_distance)
from .upoly import sum_of_products

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
        return [sum_of_products(list(zip(row, vec))) + self.euler_scalar(x, i)
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
        """Whether E_i A_j - E_j A_i + [A_i, A_j] = 0 holds symbolically,
        entry by entry."""
        n = self.td.n
        r = self.rank
        for i in range(n):
            for j in range(i + 1, n):
                EiAj = self.euler_matrix(i, j)
                EjAi = self.euler_matrix(j, i)
                A, B = self.matrices[i], self.matrices[j]
                for r1 in range(r):
                    for c1 in range(r):
                        if sum_of_products([
                                (EiAj[r1][c1], None), (-EjAi[r1][c1], None),
                                *((x, row[c1]) for x, row in zip(A[r1], B)),
                                *((-x, row[c1]) for x, row in zip(B[r1], A))]):
                            return False
        return True


# -- GKZ operators ------------------------------------------------------------


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
    evaluated from log q in one numpy pass, at one point (log q of shape
    (n,)) or at a batch (shape (N, n)).

    Each fraction keeps the form its WallElement has,
    c p / (h^e q^v prod_w f_w^{e_w}), and no denominator is expanded.  A
    wall f_w = q^{m1} - eps q^{m2} (field.factors) is q^{m2} (q^b - eps)
    with b = m1 - m2, and q^b - eps = eps expm1(log eps + b . log q^k), so
    nothing cancels near the wall; q^v and the q^{m2} are shifted into the
    numerator's exponents, and the signs eps into its coefficients.
    Exponents are pulled back to the n torus coordinates through iota
    (q^k_l = prod_i q_i^{iota_il}), so log q^k is never formed: E (M x n)
    is the table of numerator monomials, row t of N holds fraction t's
    numerator as coefficients over E, B (W x n) holds the walls' b, and
    row t of P (T x W) the wall exponents of fraction t's denominator.

    Each coefficient of N is formed in int arithmetic: the fraction's terms
    are scaled by den(h)^top_0 prod_j den(c_j)^top_j, top the largest
    exponents of h and the c_j among its terms, summed exactly, divided
    once by the exact scale and rounded once to complex, so N is what
    Fraction arithmetic rounded once would give, bit for bit.
    """

    def __init__(self, field, iota, fracs, hbar, cvals):
        d, nq = field.d, field.nq
        unpack = field.packing.unpack
        m1, m2, eps = [], [], []        # wall f_w = q^m1 - eps q^m2
        for f in field.factors[1 + nq:]:
            m1.append(unpack(max(f))[1 + d:])       # m1 leads in lex order
            m2.append(unpack(min(f))[1 + d:])
            eps.append(-f[min(f)])
        ratios = [(x.numerator, x.denominator) for x in (hbar, *cvals)]
        index = {}                      # numerator monomial -> column of E

        def numerator(x):
            """[(column, coefficient)] of the nonzero fraction x."""
            wall_exps = x.exps[1 + nq:]
            shift = x.exps[1:1 + nq]    # q^v times the q^m2 of the walls
            for m, e in zip(m2, wall_exps):
                shift = [s + e * v for s, v in zip(shift, m)]
            terms = [(unpack(m), c) for m, c in sorted(x.p.items(),
                                                       reverse=True)]
            # with top the largest exponents of h and the c_j among the
            # terms, a term times den(h)^top_0 prod den(c_j)^top_j is an
            # int: a variable a / b to the power e gives a^e b^(top - e)
            top = [max(es) for es in zip(*(m[:1 + d] for m, _ in terms))]
            powers = [[a ** e * b ** (t - e) for e in range(t + 1)]
                      for (a, b), t in zip(ratios, top)]
            num = {}
            for m, coeff in terms:
                col = index.setdefault(tuple(map(sub, m[1 + d:], shift)),
                                       len(index))
                for p, e in zip(powers, m):
                    coeff *= p[e]
                num[col] = num.get(col, 0) + coeff
            # the exact scale c prod_w eps_w^{e_w} / (h^e den), as kn / kd
            e = x.exps[0]
            kn = (x.c.numerator * prod(map(pow, eps, wall_exps))
                  * ratios[0][1] ** e)
            kd = (x.c.denominator * ratios[0][0] ** e
                  * prod(b ** t for (_, b), t in zip(ratios, top)))
            # int true division rounds once, as float(Fraction) does
            return [(col, v * kn / kd) for col, v in num.items()]

        # the matrices share entries, as objects: each is formed once
        formed, entries = {}, []
        for row, x in enumerate(fracs):
            if x.p:
                if id(x) not in formed:
                    formed[id(x)] = numerator(x)
                entries += [(row, col, v) for col, v in formed[id(x)]]
        n, w = len(iota), len(eps)
        pull = np.array(iota, dtype=float).reshape(n, nq).T
        self.E = np.array(list(index), dtype=float).reshape(len(index),
                                                            nq) @ pull
        self.N = np.zeros((len(fracs), len(index)), dtype=complex)
        if entries:
            rows, cols, vals = zip(*entries)
            self.N[rows, cols] = vals
        self.B = np.subtract(m1, m2, dtype=float).reshape(w, nq) @ pull
        self.log_eps = np.pi * 1j * (np.array(eps) < 0)
        self.P = np.array([x.exps[1 + nq:] for x in fracs],
                          dtype=float).reshape(len(fracs), w)

    def _parts(self, logq):
        """(monomials, walls D_w = eps q^b - 1, numerators, denominators)
        at logq; SingularEvaluation if a numerator or denominator is not
        finite or a denominator is zero."""
        with np.errstate(all="ignore"):
            mon = np.exp(logq @ self.E.T)
            walls = np.expm1(logq @ self.B.T + self.log_eps)
            num = mon @ self.N.T
            den = np.prod(walls[..., None, :] ** self.P, axis=-1)
        if not (np.isfinite(num).all() and np.isfinite(den).all()
                and den.all()):
            raise SingularEvaluation(
                "the connection at q overflows a float or has a pole there")
        return mon, walls, num, den

    def at(self, logq):
        """Every fraction at the point log q (or each row of a batch)."""
        _, _, num, den = self._parts(logq)
        return num / den

    def euler_at(self, logq):
        """(values, derivatives) at logq, derivatives[..., i, t] the Euler
        derivative E_i = q_i d/dq_i of fraction t, differentiated exactly:
        E_i q^m = m_i q^m, E_i log D_w = b_i (1 + 1 / D_w), then the
        quotient rule."""
        mon, walls, num, den = self._parts(logq)
        dnum = (mon[..., None, :] * self.E.T) @ self.N.T
        dlog = ((1 + 1 / walls)[..., None, :] * self.B.T) @ self.P.T
        return num / den, (dnum - num[..., None, :] * dlog) / den[..., None, :]


class NumericConnection:
    """Connection matrices with (hbar, c) fixed exactly, evaluated from
    log q.  compiled holds the n r^2 entries of the A_i, in order i, row,
    column."""

    def __init__(self, fam, hbar, cvals):
        self.fam = fam
        self.td = fam.td
        self.rank = fam.rank
        self.hbar = Fraction(hbar)
        self.cvals = [Fraction(c) for c in cvals]
        self.compiled = CompiledFractions(
            fam.field, self.td.iota,
            [x for M in fam.matrices for row in M for x in row],
            self.hbar, self.cvals)
        self.circuits = fam.pres.circuits

    def matrices_at(self, qn):
        """A_1..A_n at the point qn of (C*)^n, shape (n, r, r), or at each
        row of an (N, n) batch, shape (N, n, r, r).  SingularEvaluation if
        a point has a vanishing coordinate or lies within WALL_TOL of a
        wall (check_regular), or if a value overflows."""
        qn = check_regular(self.circuits, qn)
        vals = self.compiled.at(np.log(qn))
        return vals.reshape(qn.shape[:-1] + (self.td.n, self.rank, self.rank))


def flatness_residual(fam, hbar, cvals, points):
    """Max normalized residual of E_i A_j - E_j A_i + [A_i, A_j] at points.

    A_i and the Euler derivatives E_i A_j come from one compiled table of
    the exact entries (CompiledFractions.euler_at), at every point at
    once; only the evaluation at q is numeric.  Normalization: residual
    entries divided by max(1, largest |A| entry at the point).
    """
    nc = ring(fam.td).numeric(hbar, cvals)
    qn = check_regular(nc.circuits, points)
    vals, derivs = nc.compiled.euler_at(np.log(qn))
    shape = (len(qn), nc.td.n, nc.rank, nc.rank)
    A = vals.reshape(shape)
    EA = derivs.reshape(shape[:2] + shape[1:])     # [p, i, j] = E_i A_j
    AA = A[:, :, None] @ A[:, None]                # [p, i, j] = A_i A_j
    R = EA - EA.swapaxes(1, 2) + AA - AA.swapaxes(1, 2)
    scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2, 3)))
    return float((np.abs(R).max(axis=(1, 2, 3, 4)) / scale).max())


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
        """q at SAMPLES_PER_SEGMENT + 1 uniform points of each segment, its
        ends included, as one array."""
        x = np.linspace(0.0, 1.0, SAMPLES_PER_SEGMENT + 1)[:, None]
        return np.concatenate([qa * np.exp(x * delta) for qa, delta in
                               map(self.segment, range(self.nseg))])


def transport_matrix(nc, path):
    """Parallel transport along path as one matrix: its columns are the
    transported basis vectors.  Each segment k contributes the propagator
    of dv/dsigma = -sum_i delta_i A_i(q_a exp(sigma delta)) v on [0, 1],
    and the segments' propagators are multiplied in order, so no interval
    crosses the kink between two segments.  All collocation nodes of a
    bisection level are evaluated in one matrices_at call."""
    if (wall_distance(nc.circuits, path.samples()) < WALL_TOL).any():
        raise SingularEvaluation("path passes too close to a wall")
    Phi = np.eye(nc.rank, dtype=complex)
    for k in range(path.nseg):
        qa, delta = path.segment(k)

        def M(sigma):
            A = nc.matrices_at(qa * np.exp(sigma[:, None] * delta))
            return -np.tensordot(A, delta, (1, 0))

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
