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
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from .errors import SingularEvaluation, StepFailure
from .quantum_ring import mat_apply, ring

WALL_TOL = 1e-8   # closest approach |1 - q^S| to a wall q^S = 1

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
        """E_i (n-coordinate Euler derivative) on a coefficient."""
        F = self.field
        out = F.zero
        for l, w in enumerate(self.td.iota[i]):
            if w:
                out = out + F.from_rational(w) * F.euler_q(fr, l)
        return out

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
        Av = mat_apply(self.matrices[i], vec)
        Ev = [self.euler_scalar(x, i) for x in vec]
        return [a + b for a, b in zip(Av, Ev)]

    def nabla_h_minus(self, i, vec):
        """(h - nabla_i) applied to a symbolic section."""
        out = self.nabla(i, vec)
        return [self.field.h * v - o for v, o in zip(vec, out)]

    def unit_section(self):
        e0 = [self.field.zero] * self.rank
        e0[self.pres.std.index((0,) * self.td.n)] = self.field.one
        return e0

    def flatness_exact(self):
        """Whether E_i A_j - E_j A_i + [A_i, A_j] = 0 holds symbolically."""
        n = self.td.n
        r = self.rank
        F = self.field
        for i in range(n):
            for j in range(i + 1, n):
                EiAj = self.euler_matrix(i, j)
                EjAi = self.euler_matrix(j, i)
                A, B = self.matrices[i], self.matrices[j]
                for r1 in range(r):
                    for c1 in range(r):
                        comm = sum((A[r1][t] * B[t][c1] - B[r1][t] * A[t][c1]
                                    for t in range(r)), F.zero)
                        if EiAj[r1][c1] - EjAi[r1][c1] + comm:
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


def gkz_system(td, circuits=None):
    if circuits is None:
        from .arrangement import enumerate_circuits
        circuits = enumerate_circuits(td)
    ops = [GkzLinear(j, tuple(td.a[j][i] for i in range(td.n)))
           for j in range(td.d)]
    ops += [GkzCircuit(c) for c in circuits]
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
    ops = gkz_system(pres.td, pres.circuits)
    reduce_ok = all(pres.nf(gkz_symbol(op, pres)).is_zero() for op in ops)
    symbols = [gkz_symbol(op, pres) for op in ops]
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
    for op in gkz_system(fam.td, fam.pres.circuits):
        img = apply_gkz_to_section(fam, op, e0)
        if any(x for x in img):
            return False
    return True


# -- numeric side -------------------------------------------------------------


def _compile_frac(field, fr, hbar, cvals):
    """Bake exact (hbar, c) into a coefficient, leaving q-monomial arrays."""
    nq = field.nq

    def compile_poly(p):
        groups = {}
        for m, coeff in field.poly_terms(p):
            scale = coeff
            if m[0]:
                scale = scale * hbar ** m[0]
            for j in range(field.d):
                e = m[1 + j]
                if e:
                    scale = scale * cvals[j] ** e
            qexp = tuple(m[1 + field.d:])
            groups[qexp] = groups.get(qexp, Fraction(0)) + scale
        groups = {e: c for e, c in groups.items() if c}
        if not groups:
            return np.zeros((0, nq), dtype=np.int64), np.zeros(0, dtype=complex)
        exps = np.array(sorted(groups), dtype=np.int64).reshape(-1, nq)
        coeffs = np.array([complex(groups[tuple(e)]) for e in exps])
        return exps, coeffs

    return compile_poly(fr.numer), compile_poly(fr.denom)


def _eval_compiled(comp, qk):
    (ne, nc), (de, dc) = comp
    if len(nc) == 0:
        return 0.0 + 0.0j, 1.0 + 0.0j
    num = np.sum(nc * np.prod(qk[None, :] ** ne, axis=1)) if ne.size else nc.sum()
    den = np.sum(dc * np.prod(qk[None, :] ** de, axis=1)) if de.size else dc.sum()
    return num, den


class NumericConnection:
    """Connection matrices with (hbar, c) fixed exactly, fast q evaluation.

    Walls q^S = 1 are checked explicitly; evaluation closer than WALL_TOL
    raises SingularEvaluation.
    """

    def __init__(self, fam, hbar, cvals):
        self.fam = fam
        self.td = fam.td
        self.rank = fam.rank
        self.hbar = Fraction(hbar)
        self.cvals = [Fraction(c) for c in cvals]
        F = fam.field
        self.compiled = [
            [[_compile_frac(F, entry, self.hbar, self.cvals)
              for entry in row] for row in M]
            for M in fam.matrices
        ]
        self.circuits = fam.pres.circuits

    def qk_of(self, qn):
        qn = np.asarray(qn, dtype=complex)
        if np.any(np.abs(qn) < 1e-300):
            raise SingularEvaluation("q has a vanishing coordinate")
        out = np.empty(self.td.k, dtype=complex)
        for l in range(self.td.k):
            acc = 1.0 + 0.0j
            for i in range(self.td.n):
                w = self.td.iota[i][l]
                if w:
                    acc *= qn[i] ** w
            out[l] = acc
        return out

    def wall_distance(self, qn):
        qn = np.asarray(qn, dtype=complex)
        dist = np.inf
        for c in self.circuits:
            z = 1.0 + 0.0j
            for i, b in enumerate(c.beta):
                if b:
                    z *= qn[i] ** b
            z *= (-1) ** c.size
            dist = min(dist, abs(1 - z))
        return dist

    def matrices_at(self, qn):
        if self.wall_distance(qn) < WALL_TOL:
            raise SingularEvaluation(
                f"q within {WALL_TOL} of the discriminant wall")
        qk = self.qk_of(qn)
        out = []
        for M in self.compiled:
            A = np.empty((self.rank, self.rank), dtype=complex)
            for r in range(self.rank):
                for c in range(self.rank):
                    num, den = _eval_compiled(M[r][c], qk)
                    if abs(den) < 1e-14 * max(1.0, abs(num)):
                        raise SingularEvaluation("denominator vanished")
                    A[r, c] = num / den
            out.append(A)
        return out


def flatness_residual(fam, hbar, cvals, points):
    """Max normalized residual of E_i A_j - E_j A_i + [A_i, A_j] at points.

    Derivatives are exact symbolic Euler derivatives; everything is then
    evaluated numerically.  Normalization: residual entries divided by
    max(1, largest |A| entry at the point).
    """
    F = fam.field
    n = fam.td.n
    hb = Fraction(hbar)
    cv = [Fraction(c) for c in cvals]
    nc = ring(fam.td).numeric(hb, cv)
    worst = 0.0
    for qn in points:
        qk = nc.qk_of(np.asarray(qn, dtype=complex))
        vals = [complex(hb)] + [complex(c) for c in cv] + list(qk)
        As = nc.matrices_at(qn)
        scale = max(1.0, max(abs(A).max() for A in As))
        for i in range(n):
            for j in range(i + 1, n):
                EiAj = fam.euler_matrix(i, j)
                EjAi = fam.euler_matrix(j, i)
                E1 = np.array([[_eval_sym(F, x, vals) for x in row]
                               for row in EiAj])
                E2 = np.array([[_eval_sym(F, x, vals) for x in row]
                               for row in EjAi])
                R = E1 - E2 + As[i] @ As[j] - As[j] @ As[i]
                worst = max(worst, np.abs(R).max() / scale)
    return worst


def _eval_sym(field, fr, vals):
    try:
        return complex(field.evaluate(fr, vals))
    except ZeroDivisionError:
        raise SingularEvaluation("symbolic entry singular at sample point")


# -- paths and transport -------------------------------------------------------


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
    def circle(cls, q0, coord, turns=1, segments=None):
        """Loop multiplying coordinate `coord` by e^{2 pi i turns}."""
        q0 = np.asarray(q0, dtype=complex)
        if segments is None:
            segments = 8 * max(1, abs(turns))
        pts = []
        total = int(segments)
        for t in range(total + 1):
            w = q0.copy()
            w[coord] = q0[coord] * np.exp(2j * np.pi * turns * t / total)
            pts.append(w)
        return cls(pts)

    def at(self, s):
        """(q(s), dlog q/ds) at global parameter s in [0, 1]."""
        s = min(max(s, 0.0), 1.0)
        x = s * self.nseg
        seg = min(int(x), self.nseg - 1)
        sigma = x - seg
        qa, qb = self.waypoints[seg], self.waypoints[seg + 1]
        delta = np.log(qb / qa)  # principal branch of the ratio
        return qa * np.exp(sigma * delta), delta * self.nseg

    def samples(self, per_segment=16):
        ss = np.linspace(0.0, 1.0, self.nseg * per_segment + 1)
        return [(s, self.at(s)[0]) for s in ss]


def transport(nc, path, v0, rtol=1e-10, atol=1e-12):
    """Parallel transport of v0 along path: solves dv/ds = -sum_i dlog_i A_i v."""
    for _, q in path.samples():
        if nc.wall_distance(q) < WALL_TOL:
            raise SingularEvaluation("path passes too close to a wall")
    v0 = np.asarray(v0, dtype=complex)

    def rhs(s, v):
        q, dlog = path.at(s)
        As = nc.matrices_at(q)
        out = np.zeros_like(v)
        for i in range(nc.td.n):
            if dlog[i] != 0:
                out -= dlog[i] * (As[i] @ v)
        return out

    sol = solve_ivp(rhs, (0.0, 1.0), v0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=False)
    if not sol.success:
        raise StepFailure(f"transport failed: {sol.message}")
    return sol.y[:, -1]


def transport_matrix(nc, path, rtol=1e-10, atol=1e-12):
    """Transport of the full frame; columns are transported basis vectors."""
    r = nc.rank
    for _, q in path.samples():
        if nc.wall_distance(q) < WALL_TOL:
            raise SingularEvaluation("path passes too close to a wall")

    def rhs(s, y):
        q, dlog = path.at(s)
        As = nc.matrices_at(q)
        V = y.reshape(r, r)
        out = np.zeros_like(V)
        for i in range(nc.td.n):
            if dlog[i] != 0:
                out -= dlog[i] * (As[i] @ V)
        return out.reshape(-1)

    y0 = np.eye(r, dtype=complex).reshape(-1)
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise StepFailure(f"transport failed: {sol.message}")
    return sol.y[:, -1].reshape(r, r)
