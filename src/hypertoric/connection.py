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

Parallel transport integrates the connection along a QPath, one segment at
a time, with the Dormand-Prince 8(5,3) Runge-Kutta pair (DOP853), written
here in numpy.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SingularEvaluation, StepFailure
from .exact import mat_vec
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
        Av = mat_vec(self.matrices[i], vec)
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
    symbols = [gkz_symbol(op, pres)
               for op in gkz_system(pres.td, pres.circuits)]
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
    for op in gkz_system(fam.td, fam.pres.circuits):
        img = apply_gkz_to_section(fam, op, e0)
        if any(x for x in img):
            return False
    return True


# -- numeric side -------------------------------------------------------------


class CompiledFractions:
    """Q(h, c, q) fractions with exact (h, c) baked in, evaluated at q^k
    in one numpy pass.

    E (T x k) is one table of the q^k monomials of all numerators and
    denominators; row t of N (of D) holds fraction t's numerator (its
    denominator) as coefficients over E, each formed exactly and then
    rounded once to complex.
    """

    def __init__(self, field, fracs, hbar, cvals):
        index, rows = {}, []
        for fr in fracs:
            num = _bake(field, fr.numer, hbar, cvals)
            den = _bake(field, fr.denom, hbar, cvals)
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
        mon = np.prod(qk ** self.E, axis=1)
        num, den = self.N @ mon, self.D @ mon
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
    """{q-exponent: Fraction} of the polynomial p with h = hbar and
    c = cvals substituted exactly; zero coefficients dropped."""
    groups = {}
    for m, coeff in field.poly_terms(p):
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
        WALL_TOL of a wall."""
        check_regular(self.circuits, qn)
        qn = np.asarray(qn, dtype=complex)
        return np.array(iota_coordinates(self.td, qn, 1.0 + 0.0j),
                        dtype=complex)

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


def transport(nc, path, v0, rtol=1e-10, atol=1e-12):
    """Parallel transport of v0 along path: solves dv/ds = -sum_i dlog_i A_i v.
    v0 is a vector, or a matrix whose columns are transported together.
    Each segment is its own interval of integration, so no step crosses the
    kink between two segments."""
    for _, q in path.samples():
        if nc.wall_distance(q) < WALL_TOL:
            raise SingularEvaluation("path passes too close to a wall")
    v0 = np.asarray(v0, dtype=complex)
    y = v0.reshape(-1)
    for k in range(path.nseg):
        y = _dop853(_segment_rhs(nc, *path.segment(k), v0.shape), y,
                    rtol, atol)
    return y.reshape(v0.shape)


def _segment_rhs(nc, qa, delta, shape):
    """The transport equation on one segment, in its own parameter sigma:
    dv/dsigma = -sum_i delta_i A_i(q_a exp(sigma delta)) v, on flat v."""
    def rhs(sigma, y):
        As = nc.matrices_at(qa * np.exp(sigma * delta))
        v = y.reshape(shape)
        out = np.zeros_like(v)
        for i in range(nc.td.n):
            if delta[i] != 0:
                out -= delta[i] * (As[i] @ v)
        return out.reshape(-1)
    return rhs


def transport_matrix(nc, path, rtol=1e-10, atol=1e-12):
    """Transport of the full frame; columns are transported basis vectors."""
    return transport(nc, path, np.eye(nc.rank, dtype=complex), rtol, atol)


# -- the DOP853 integrator ----------------------------------------------------
#
# The explicit Runge-Kutta pair of Dormand and Prince of order 8 with error
# estimators of orders 5 and 3 (Hairer, Norsett, Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., Sec. II.10; Hairer's Fortran DOP853).
# 12 stages; the last is the derivative at the new point and becomes the
# first stage of the next step.  The coefficients are transcribed from
# SciPy's DOP853 coefficient table (BSD-3-Clause, Copyright (c) 2001-2002
# Enthought, Inc., 2003 SciPy Developers), which takes them from Hairer's
# code.  Row s of _A_ROWS holds a_{s,j} by j.

_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0])

_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
}
_A = np.array([[_A_ROWS.get(s, {}).get(j, 0.0) for j in range(12)]
               for s in range(12)])

# weights of the order-8 solution
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])

# error weights over all 13 stages: order 3 (b minus the bhh of Hairer's
# code) and order 5
_E3 = np.append(_B, 0.0)
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1]

# step-size control of Hairer's code: the error is O(h^8)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, f0, rtol, atol):
    """Hairer's first step (Solving ODEs I, Sec. II.4) on [0, 1]: an
    explicit Euler probe of size h0 = 0.01 |y0| / |f0| estimates the second
    derivative y'', and h^8 max(|f0|, |y''|) = 0.01 picks the step, never
    above 100 h0 or the interval.  Norms are the weighted RMS norm."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, 1.0)
    f1 = fun(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, 1.0)


def _dop853(fun, y0, rtol, atol):
    """y(1) for dy/ds = fun(s, y), y(0) = y0 (a 1-d array), by DOP853.

    A step is accepted when _error_norm, with weights atol + rtol
    max(|y|, |y_new|), is below 1.  Raises StepFailure when the step would
    fall below 10 spacings of s."""
    s, y = 0.0, y0
    f = fun(s, y)
    h = _initial_step(fun, y, f, rtol, atol)
    K = np.empty((13, y.size), dtype=y.dtype)
    while s < 1.0:
        floor = 10 * np.spacing(s)
        h = max(h, floor)
        rejected = False
        while True:
            if h < floor:
                raise StepFailure(f"step size fell below {floor:.3g} at "
                                  f"s = {float(s)!r}")
            s_new = min(s + h, 1.0)
            h = s_new - s
            K[0] = f
            for st in range(1, 12):
                K[st] = fun(s + _C[st] * h,
                            y + np.dot(K[:st].T, _A[st, :st]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = K[12] = fun(s_new, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(K, h, scale)
            if err < 1:
                factor = (_MAX_FACTOR if err == 0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h *= factor
                break
            h *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        s, y, f = s_new, y_new, f_new
    return y


def _error_norm(K, h, scale):
    """The error measure of Hairer's code: |h| err5^2 / sqrt(err5^2 + 0.01
    err3^2), the order-5 estimate damped by the order-3 one, in the RMS
    norm weighted by 1 / scale."""
    err5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
    err3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
    if err5 == 0 and err3 == 0:
        return 0.0
    return abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))
