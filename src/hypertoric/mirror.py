"""Mirror side: twisted periods, critical points, and the comparison checks.

The mirror space for torus data (a, theta_hat) at Kahler point q is the
dual torus minus the multiplicative hyperplanes {q_i t^{a_i} = -1}, carrying
the multivalued form

    Omega = prod_i (1 + q_i t^{a_i})^h  prod_j t_j^{-c_j}  dt_j / t_j .

Periods over Pochhammer cycles are computed by direct quadrature with
continuous branch tracking of every logarithm.  A Pochhammer cycle is the
commutator loop_a loop_b loop_a^{-1} loop_b^{-1} of two simple loops
around adjacent punctures, so only the two loops are integrated: a loop
changes the branch state by 2 pi i k for an integer vector k, which is
checked, and so multiplies Omega by its monodromy factor mu =
exp(2 pi i (h sum_i k_i - c k_0)); with I_a, I_b the loop integrals from
the cycle's base state, the cycle's period is (1 - mu_b) I_a - (1 - mu_a)
I_b.  All cycles of one q point are integrated in one array pass: the
branch knots of all their loops' pieces are one evaluation, each loop's
log states one cumulative sum from its cycle's base state, and the
adaptive Gauss-Legendre bisection runs level by level, each level
evaluating the rule on every open interval and both its halves at once,
for any number of insertions (exact Euler derivatives of the period).  A
loop is the per-piece rows t(s) = a + b s + r exp(i (th0 + s dth)) that
this pass integrates.
Across q, along the log-linear path q(s) = q0 exp(s delta) of
connection.QPath, the root t of 1 + q_i t^{a_i} moves in closed form as
t exp(-s delta_i / a_i): the cycles at q1 are built from q0's continued
punctures, in q0's order, and the logs at their base points are continued
along the same path by the branch-knot routine of the quadrature.  Period
integration is implemented for d = 1 (all it is needed for); critical
points of the superpotential

    Y_q = h sum_i log(1 + q_i t^{a_i}) - sum_j c_j log t_j

are found for every d from the joint spectrum of quantum multiplication,
which the mirror statement makes h phi(t*) at the critical points t*: one
Newton start per eigenvalue, from a vertex basis, corrected in log t and
log q so that no factor q_i t^{a_i} over- or underflows.

This module has no polynomial arithmetic of its own.  The GKZ operators
checked on periods are the ring's own relations (the generators of its
quantum presentation over Q(h, c, q)), their coefficients compiled once
and evaluated from log q at each point; the spectra read A_i(q) from the
same ring's compiled connection.  The Euler insertions are upoly.UPoly
objects with complex coefficients.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
from numpy.random import default_rng

from .bisection import bisect
from .errors import (BranchTrackingFailure, DegenerateModel,
                     IncompleteCriticalSet, ParameterDegeneracy,
                     QuadratureFailure, SingularEvaluation,
                     UnsupportedDimension)

TWOPI = 2.0 * math.pi
QUAD_TOL = 1e-12     # period quadrature tolerance of the verification checks
QUAD_DEPTH = 14      # period bisection depths 0 to 14
QUAD_PANELS = 170    # Gauss-Legendre intervals per contour piece one
                     # period pass may evaluate


# -- model --------------------------------------------------------------------


class MirrorModel:
    def __init__(self, td, hbar, cvals, qn):
        self.td = td
        self.hbar = complex(hbar)
        self.cvals = [complex(c) for c in cvals]
        if len(self.cvals) != td.d:
            raise DegenerateModel("need one c_j per base dimension")
        self.qn = np.asarray(qn, dtype=complex)
        if self.qn.shape != (td.n,):
            raise DegenerateModel("need one q_i per hyperplane")
        if np.any(np.abs(self.qn) < 1e-300):
            raise DegenerateModel("q has a vanishing coordinate")

    def t_pow(self, t, i):
        """t^{a_i} for a point t of the d-torus."""
        acc = 1.0 + 0.0j
        for j in range(self.td.d):
            e = self.td.a[j][i]
            if e:
                acc *= t[j] ** e
        return acc

    def phi(self, t):
        """phi_i = q_i t^{a_i} / (1 + q_i t^{a_i}), the log-derivative data."""
        out = np.empty(self.td.n, dtype=complex)
        for i in range(self.td.n):
            x = self.qn[i] * self.t_pow(t, i)
            w = 1.0 + x
            if abs(w) < 1e-13:
                raise DegenerateModel("evaluation on a mirror hyperplane")
            out[i] = x / w
        return out

    # d = 1 specifics ---------------------------------------------------------

    def exponents(self):
        if self.td.d != 1:
            raise UnsupportedDimension("scalar exponents need d = 1")
        return [self.td.a[0][i] for i in range(self.td.n)]

    def punctures(self):
        """Finite nonzero punctures (roots of 1 + q_i t^{a_i}), d = 1."""
        return [t for t, _ in self._labelled_punctures()]

    def _labelled_punctures(self):
        """(t, i) for every puncture t, a root of 1 + q_i t^{a_i}, in the
        canonical order of punctures()."""
        exps = self.exponents()
        pts = []
        for i, e in enumerate(exps):
            if e == 0:
                if abs(1.0 + self.qn[i]) < 1e-12:
                    raise DegenerateModel("constant hyperplane degenerates")
                continue
            # 1 + q t^e = 0:  t^e = -1/q; e < 0 gives t^{-e} = -q
            if e > 0:
                rhs = -1.0 / self.qn[i]
                k = e
            else:
                rhs = -self.qn[i]
                k = -e
            r = abs(rhs) ** (1.0 / k)
            th = cmath.phase(rhs)
            for m in range(k):
                pts.append((r * cmath.exp(1j * (th + TWOPI * m) / k)
                            if k > 1 else rhs, i))
        # canonical deterministic order
        pts.sort(key=lambda p: (round(float(p[0].real), 9),
                                round(float(p[0].imag), 9)))
        for (s, _), (t, _) in zip(pts, pts[1:]):
            if abs(s - t) < 1e-9:
                raise DegenerateModel("colliding punctures")
        if any(abs(p) < 1e-9 for p, _ in pts):
            raise DegenerateModel("puncture collides with t = 0")
        return pts


# -- contours (d = 1) ---------------------------------------------------------
#
# A loop is a tuple of five per-piece arrays (a, b, r, th0, dth): piece k is
# t(s) = a[k] + b[k] s + r[k] exp(i (th0[k] + s dth[k])) for s in [0, 1], a
# segment with r = 0 or an arc with b = 0; each piece starts where the one
# before it ends, and the last one ends where the first one starts.  A
# cycle is a pair (loop_a, loop_b) of loops from one base point, standing
# for their commutator loop_a loop_b loop_a^{-1} loop_b^{-1}.


def _loop(p, r, x0):
    """Out-circle-back loop around p based at x0: the segment out, four
    quarter arcs, the segment back."""
    u = (x0 - p) / abs(x0 - p)
    entry = p + r * u
    th = [cmath.phase(u) + TWOPI * k / 4 for k in range(5)]
    a, b, rad, th0, dth = zip(*(
        [(x0, entry - x0, 0.0, 0.0, 0.0)]
        + [(p, 0.0, r, th[k], th[k + 1] - th[k]) for k in range(4)]
        + [(entry, x0 - entry, 0.0, 0.0, 0.0)]))
    return (np.array(a, dtype=complex), np.array(b, dtype=complex),
            np.array(rad), np.array(th0), np.array(dth))


def pochhammer_contour(p_a, p_b, all_punctures):
    """The Pochhammer cycle of p_a and p_b: the loops around each, based
    between them."""
    x0 = 0.5 * (p_a + p_b)

    if min(abs(x0 - o) for o in all_punctures) < 1e-9 * (1 + abs(x0)):
        raise DegenerateModel("contour base point hits a puncture")

    def radius(p):
        d = min(abs(p - o) for o in all_punctures if abs(p - o) > 1e-12)
        return 0.3 * min(d, abs(p - x0))

    return _loop(p_a, radius(p_a), x0), _loop(p_b, radius(p_b), x0)


def _cycles(punctures):
    """Pochhammer cycles for adjacent pairs of [0] + punctures, in the
    order given."""
    pts = [0.0 + 0.0j] + list(punctures)
    return [pochhammer_contour(pts[k], pts[k + 1], pts)
            for k in range(len(pts) - 1)]


def cycle_basis(model):
    """Pochhammer cycles for adjacent puncture pairs including t = 0."""
    return _cycles(model.punctures())


def _base_points(cycles):
    """The base point of each cycle, as an array."""
    return np.array([_pieces_at(loop, 0, 0.0)[0] for loop, _ in cycles])


def _join(loops):
    """The pieces of loops as one contour, loop after loop, and each loop's
    piece count."""
    return (tuple(np.concatenate(g) for g in zip(*loops)),
            np.array([len(loop[0]) for loop in loops]))


def _continued_punctures(model, q1):
    """The punctures of model continued to q1, in model's order.

    Along the connection.QPath segment q(s) = q0 e^{s delta}, the root t of
    1 + q_i t^{a_i} moves as t e^{-s delta_i / a_i}, so the end point is
    closed form."""
    from .connection import QPath
    _, delta = QPath([model.qn, q1]).segment(0)
    exps = model.exponents()
    return [t * cmath.exp(-delta[i] / exps[i])
            for t, i in model._labelled_punctures()]


# -- branch-tracked integration (d = 1) ----------------------------------------


def _log(z):
    """Principal logarithm of a complex array, as log|z| + i arg z in real
    arithmetic (numpy's complex log is several times slower)."""
    out = np.empty(np.shape(z), dtype=complex)
    out.real = np.log(np.abs(z))
    out.imag = np.angle(z)
    return out


def _log_args(exps, q, t):
    """Arguments of the tracked logarithms at points t (any shape S).

    Returns (x, vals): x[i] = q_i t^{a_i} of shape (n,) + S, and vals of
    shape (n+1,) + S holding t and each 1 + q_i t^{a_i}.  q has shape (n,)
    or (n,) + S."""
    shape = (len(exps),) + (1,) * np.ndim(t)
    q = np.asarray(q)
    x = (q.reshape(shape) if q.ndim == 1 else q) * t ** exps.reshape(shape)
    return x, np.concatenate([t[None], 1.0 + x])


def _continue_logs(values, state0, chains, knots):
    """Continue the logs along chains of consecutive paths, each path over
    s in [0, 1]: chain c is the next chains[c] paths, its first path starts
    at state0[:, c] and each next one where the one before it ends.

    values(rows, s) gives the (m, len(rows), K+1) log arguments of the
    paths `rows` (numbered chain after chain) at the K+1 uniform knots s.
    A path's knot count is doubled (8 counts are tried, K to 128 K) until
    every step between consecutive knots turns each argument by less than
    pi/4.  The steps of a chain, in order, go through one cumulative sum.
    Returns (K, vals, states): each path's knot count, and the knot values
    and the states of all paths side by side, both of shape (m, sum(K +
    1)); knot k of path p is column sum(K[:p] + 1) + k of each."""
    count = int(np.sum(chains))
    K = np.zeros(count, dtype=int)
    vals, steps = [None] * count, [None] * count
    rows = np.arange(count)
    for _ in range(8):
        v = values(rows, np.arange(knots + 1) / knots)
        if np.any(np.abs(v) < 1e-13):
            raise BranchTrackingFailure("branch path touches a puncture")
        delta = _log(v[:, :, 1:] / v[:, :, :-1])
        ok = np.max(np.abs(delta.imag), axis=(0, 2)) < math.pi / 4
        v, delta = v[:, ok], delta[:, ok]
        for j, p in enumerate(rows[ok]):
            K[p], vals[p], steps[p] = knots, v[:, j], delta[:, j]
        rows = rows[~ok]
        if not len(rows):
            break
        knots *= 2
    else:
        raise BranchTrackingFailure("branch step never fell under pi/4")
    state0 = np.asarray(state0, dtype=complex)
    states, p = [], 0
    for c, length in enumerate(chains):
        cum = np.cumsum(np.concatenate([state0[:, c, None]]
                                       + steps[p:p + length], axis=1), axis=1)
        ends = np.cumsum(K[p:p + length])
        states += [cum[:, e - k:e + 1] for e, k in zip(ends, K[p:p + length])]
        p += length
    return K, np.concatenate(vals, axis=1), np.concatenate(states, axis=1)


def _pieces_at(contour, rows, s):
    """(t, dt/ds) on the pieces `rows` of a contour at parameters s
    (broadcast)."""
    a, b, r, th0, dth = (g[rows] for g in contour)
    e = np.exp(1j * (th0 + s * dth))
    return a + b * s + r * e, b + 1j * r * e * dth


def _track(model, contour, sizes, state0):
    """Branch states along the loops of a contour, sizes[l] pieces each,
    loop l from state0[:, l]; and each loop's monodromy factor.

    Returns (K, anchors, states, mu): _continue_logs's knot counts, knot
    values and states, 48 knots per piece to start with, and mu_l = exp(2
    pi i (h sum_i k_i - c k_0)), the factor by which loop l multiplies
    Omega, where 2 pi i k is its branch-state change.  Raises
    BranchTrackingFailure unless every change is within 1e-8 of 2 pi i
    times an integer vector."""
    exps = np.array(model.exponents())
    K, anchors, states = _continue_logs(
        lambda rows, s: _log_args(
            exps, model.qn, _pieces_at(contour, rows[:, None], s)[0])[1],
        state0, sizes, 48)
    change = states[:, np.cumsum(K + 1)[np.cumsum(sizes) - 1] - 1] - state0
    k = np.round(change.imag / TWOPI)
    if np.max(np.abs(change - TWOPI * 1j * k)) > 1e-8:
        raise BranchTrackingFailure(
            "a loop's branch-state change is not 2 pi i times integers")
    mu = np.exp(TWOPI * 1j * (model.hbar * k[1:].sum(axis=0)
                              - model.cvals[0] * k[0]))
    return K, anchors, states, mu


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def period(model, cycles, insertion=None, tol=1e-12, state0=None):
    """Integrate Omega (times an optional single-valued insertion) over
    every cycle of a list, tracking branches; returns (values, state0).

    A cycle (loop_a, loop_b) stands for the commutator loop_a loop_b
    loop_a^{-1} loop_b^{-1}, and only its two loops are integrated, each
    from the cycle's base state: with I_a, I_b the loop integrals and
    mu_a, mu_b the loops' monodromy factors (_track), the cycle's period
    is (1 - mu_b) I_a - (1 - mu_a) I_b.  state0, shape (n+1, cycles), is
    each cycle's branch state at its base point, by default the principal
    one; the states used are returned.

    insertion: callable phi -> complex, used for exact Euler derivatives of
    periods, E^M J = integral of Omega * (polynomial in h phi_i); phi is an
    (n, N) array of node values and the callable returns N values.  values
    holds one period per cycle; for a list or tuple of insertions (None
    meaning Omega itself) it holds one row per cycle, one value per
    insertion.

    Every cycle is integrated in one array pass.  Branch knots: 48 per
    piece to start with, see _continue_logs; a node takes the state of the
    nearest knot on its left plus one principal-log correction, which must
    turn by less than pi/2.  Bisection runs level by level: each level
    evaluates the 16-point Gauss-Legendre rule on the whole, left half and
    right half of every open interval of every piece at once, and accepts
    an interval when every insertion's |whole - split| <= tol max(1,
    |split|); the rest are halved for the next level, up to depth
    QUAD_DEPTH and QUAD_PANELS intervals per piece in all
    (bisection.bisect).
    """
    if model.td.d != 1:
        raise UnsupportedDimension("period integration implemented for d = 1")
    batched = isinstance(insertion, (list, tuple))
    insertions = list(insertion) if batched else [insertion]
    if state0 is None:
        state0 = _principal_state(model, _base_points(cycles))
    state0 = np.asarray(state0, dtype=complex)
    contour, sizes = _join([loop for cycle in cycles for loop in cycle])
    K, anchors, states, mu = _track(model, contour, sizes,
                                    np.repeat(state0, 2, axis=1))
    off = np.cumsum(K + 1) - (K + 1)
    exps = np.array(model.exponents())

    def integrand(r, s):
        """Omega dt/ds, flat, and phi, shape (n, N), at the parameters s of
        the pieces r."""
        t, dt = _pieces_at(contour, r, s)
        x, vals = _log_args(exps, model.qn, t)
        if np.any(np.abs(vals) < 1e-13):
            raise BranchTrackingFailure("contour touches a puncture")
        k = off[r] + np.minimum((s * K[r]).astype(int), K[r])
        delta = _log(vals / anchors[:, k])
        if np.max(np.abs(delta.imag)) >= math.pi / 2:
            raise BranchTrackingFailure("quadrature node too far from anchor")
        st = states[:, k] + delta
        # log integrand: h sum_i log w_i - c log t
        omega = np.exp(model.hbar * np.sum(st[1:], axis=0)
                       - model.cvals[0] * st[0]) * dt / t
        return omega.ravel(), (x / (1.0 + x)).reshape(len(exps), -1)

    def quadratures(rows, s0, h):
        """(whole, left + right), each (N, insertions), for bisect."""
        omega, phi = integrand(rows[:, None, None],
                               s0[:, :, None] + _GL_NODES * h[:, :, None])
        f = np.array([omega if ins is None else omega * ins(phi)
                      for ins in insertions])
        quads = (f.reshape(len(insertions), -1, 3, 16) @ _GL_WEIGHTS) * h
        return quads[:, :, 0].T, (quads[:, :, 1] + quads[:, :, 2]).T

    loop_of = np.repeat(np.arange(len(sizes)), sizes)
    loops = np.zeros((len(sizes), len(insertions)), dtype=complex)
    for rows, _, split in bisect(quadratures, np.arange(len(loop_of)), tol,
                                 QUAD_DEPTH, QUAD_PANELS * len(loop_of),
                                 QuadratureFailure):
        np.add.at(loops, loop_of[rows], split)
    values = ((1.0 - mu[1::2, None]) * loops[0::2]
              - (1.0 - mu[0::2, None]) * loops[1::2])
    return (values if batched else values[:, 0]), state0


def _principal_state(model, t):
    """The principal branch states at the points t, one column each."""
    _, vals = _log_args(np.array(model.exponents()), model.qn, np.asarray(t))
    return _log(vals)


def _continue_state(model_from, state, t_from, model_to, t_to):
    """Continue the branch states, one per column of state, from (q0,
    t_from) to (q1, t_to): q along the connection.QPath log-linear path, t
    along the straight chord, for branch-consistent period comparisons
    across q."""
    from .connection import QPath
    exps = np.array(model_from.exponents())
    q0, delta = QPath([model_from.qn, model_to.qn]).segment(0)
    t_from, t_to = np.asarray(t_from), np.asarray(t_to)

    def values(rows, s):
        t = (1 - s) * t_from[rows, None] + s * t_to[rows, None]
        q = q0[:, None] * np.exp(np.outer(delta, s))
        return _log_args(exps, q[:, None], t)[1]

    K, _, states = _continue_logs(values, state, [1] * len(t_from), 32)
    return states[:, np.cumsum(K + 1) - 1]


# -- GKZ verification on periods (exact Euler insertions) ----------------------


def verify_gkz_on_periods(td, hbar, cvals, q_points, tol=1e-6):
    """Check that every period solves every GKZ operator; returns (report,
    frames).

    An operator's Euler expansion is its symbol (nabla_i -> E_i), the ring
    relation that ring(td).quantum.generators holds over the instance's
    Q(h, c, q) field, in the same order.  Its coefficients are compiled
    once per call, with the exact (h, c) baked in
    (connection.CompiledFractions), and evaluated from log q at each
    point.  On scalar periods the E_i commute, so the
    expansion is exact.  For each q point, one period pass over every
    cycle integrates Omega times the exact insertion (see make_insertion)
    of every Euler monomial of a symbol and of every staircase monomial.
    Each operator's residual is |sum of its terms| relative to its largest
    term.  The staircase columns are the point's period frame (Y, bases),
    as period_frame gives it: Y, cycles x ring rank, must have rank equal
    to the number of cycles for the point to pass.  frames holds the frame
    of every point, for transport_consistency.  SingularEvaluation if a
    coefficient overflows a float at a point.
    """
    from .connection import CompiledFractions
    from .quantum_ring import ring
    r = ring(td)
    std = r.quantum.std
    gens = [g.terms for g in r.quantum.generators]
    coeffs = CompiledFractions(
        r.field, td.iota, [x for g in gens for x in g.values()],
        Fraction(hbar), [Fraction(c) for c in cvals])
    report = {"points": [], "pass": True}
    frames = []
    for qn in q_points:
        model = MirrorModel(td, hbar, cvals, np.asarray(qn, dtype=complex))
        values = iter(coeffs.at(np.log(model.qn)).tolist())
        expansions = [{m: next(values) for m in g} for g in gens]
        monos = sorted({m for e in expansions for m in e} | set(std))
        table, bases = _period_table(model, monos)
        col = {m: k for k, m in enumerate(monos)}
        Y = table[:, [col[m] for m in std]]
        frames.append((Y, bases))
        worst = 0.0
        for row in table:
            for e in expansions:
                terms = [coeff * row[col[m]] for m, coeff in e.items()]
                scale = max(abs(t) for t in terms)
                worst = max(worst, abs(sum(terms)) / max(scale, 1e-300))
        sv = np.linalg.svd(Y, compute_uv=False)
        rank = int(np.sum(sv > 1e-6 * sv[0]))
        ok = worst <= tol and rank == len(table)
        report["points"].append({
            "q": [complex(z) for z in model.qn],
            "max_relative_residual": worst,
            "period_matrix_rank": rank,
            "cycles": len(table),
            "pass": bool(ok),
        })
        report["pass"] = report["pass"] and ok
    return report, frames


# -- critical points ------------------------------------------------------------


def critical_points(model, lams):
    """Critical points of Y_q on the mirror torus, one Newton start per
    joint eigenvalue; returns a sorted list of distinct t tuples.

    By the mirror statement each row of lams, a joint eigenvalue of the
    A_i(q) (joint_eigenvalues), is h phi(t*) at one critical point t*.  A
    row's start takes phi = lams / h and the vertex basis B (vertices) whose
    phi_B lie farthest from 0 and 1, and solves a_B^T log t = log(phi_B /
    (1 - phi_B)) - log q_B; every vertex basis of smooth data is
    unimodular, so the 2 pi i ambiguity of the logs does not move t.  All
    starts are corrected by one batched Newton (_newton) at q, and rows
    that reach the same t are merged (_merge_collisions): a spectrum that
    is not the critical set shows as fewer points or as a deviation in
    compare_spectra.  Raises IncompleteCriticalSet if a start does not
    converge, and SingularEvaluation if a critical point t under- or
    overflows a float.
    """
    from .arrangement import vertices
    A = np.array(model.td.a, dtype=float)
    h = model.hbar
    logq = np.log(model.qn)
    bases = np.array([v.basis for v in vertices(model.td)])
    phi = np.asarray(lams, dtype=complex) / h
    P = phi[:, bases]
    B = bases[np.argmax(np.minimum(np.abs(P), np.abs(1.0 - P)).min(axis=2),
                        axis=1)]
    phiB = np.take_along_axis(phi, B, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = np.log(phiB / (1.0 - phiB)) - logq[B]
        x = np.linalg.solve(A.T[B], rhs[..., None])[..., 0]
    x, ok = _newton(A, h, x, logq, np.array(model.cvals), _FINAL_TOL,
                    _START_ITERS)
    if not ok:
        raise IncompleteCriticalSet(
            "Newton from the joint eigenvalues did not reach a critical point")
    with np.errstate(over="ignore"):
        ts = np.exp(_merge_collisions(x))
    if not (np.isfinite(ts).all() and ts.all()):
        raise SingularEvaluation(
            "a critical point under- or overflows a float at this q")
    out = [tuple(complex(t) for t in row) for row in ts]
    out.sort(key=lambda t: tuple(v for z in t
                                 for v in (round(z.real, 9), round(z.imag, 9))))
    return out


_FINAL_TOL = 1e-13       # max|F| at the true q
_STEP_CAP = 2.0          # Newton step cap, max norm in log t
_START_ITERS = 60        # Newton budget from a start


def _crit_eval(A, h, x, logq, c):
    """F(x) = h phi(x) a^T - c on an (R, d) batch x of log t, with the
    (R, d, d) Jacobians dF/dx and the (R, n) products phi (1 - phi).

    log y = log q + x a, and phi = y / (1 + y) is the logistic of log y,
    evaluated through exp of a non-positive real part so that no factor
    q_i t^{a_i} is ever formed."""
    L = logq + x @ A
    neg = L.real <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.exp(np.where(neg, L, -L))
        phi = np.where(neg, e, 1.0) / (1.0 + e)
        pp = phi * (np.where(neg, 1.0, e) / (1.0 + e))
        F = h * (phi @ A.T) - c
        J = h * ((A * pp[:, None, :]) @ A.T)
    return F, J, pp


def _newton(A, h, x, logq, c, tol, iters):
    """Batched Newton on F = 0 from the (R, d) batch x, each root's step
    capped at _STEP_CAP in the max norm; stops once every root has
    max|F| <= tol max(1, max|J| max|x|), a stop scaled to the rounding
    floor of F, which grows with |J| near a mirror hyperplane.  Returns x
    and whether the stop was reached within iters steps."""
    for k in range(iters + 1):
        F, J, _ = _crit_eval(A, h, x, logq, c)
        floor = np.abs(J).max(axis=(1, 2)) * np.abs(x).max(axis=1)
        done = bool(np.all(np.abs(F).max(axis=1)
                           <= tol * np.maximum(1.0, floor)))
        if done or k == iters or not np.all(np.isfinite(J)):
            return x, done
        try:
            step = np.linalg.solve(J, F[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return x, False
        if not np.all(np.isfinite(step)):
            return x, False
        norm = np.abs(step).max(axis=1, keepdims=True)
        x = x - step * (_STEP_CAP / np.maximum(norm, _STEP_CAP))


def _principal(x):
    """The same points t = exp(x) with every Im log t in [-pi, pi]; keeps
    |x|, and with it the rounding floor of log q + x a, small."""
    return x - 1j * TWOPI * np.round(x.imag / TWOPI)


def _merge_collisions(xs, tol=1e-6):
    """The rows of the (R, d) batch xs of log t less each row that gives
    the same t as an earlier one, i.e. differs from it by 2 pi i
    integers."""
    dx = _principal(xs[:, None, :] - xs[None, :, :])
    same = ((np.abs(dx.real).max(axis=2) < tol)
            & (np.abs(dx.imag).max(axis=2) < tol))
    return xs[~np.tril(same, -1).any(axis=1)]


# -- spectra -------------------------------------------------------------------


def joint_eigenvalues(As, seed=0):
    """Joint spectrum of a commuting family of complex matrices A_1..A_n,
    such as the quantum multiplication matrices at one q.

    Diagonalizes a seeded random combination and reads the diagonal of each
    conjugated A_i; retries the combination if the eigenbasis is ill
    conditioned.  Returns an array of shape (rank, n)."""
    As = [np.asarray(A, dtype=complex) for A in As]
    rank, n = len(As[0]), len(As)
    rng = default_rng(seed)
    for _ in range(8):
        r = rng.uniform(1.0, 2.0, n)
        R = sum(ri * A for ri, A in zip(r, As))
        _, V = np.linalg.eig(R)
        sv = np.linalg.svd(V, compute_uv=False)
        if sv[-1] < 1e-8 * sv[0]:
            continue
        Vi = np.linalg.inv(V)
        lams = np.empty((rank, n), dtype=complex)
        okay = True
        for i, A in enumerate(As):
            C = Vi @ A @ V
            off = np.abs(C - np.diag(np.diag(C))).max()
            if off > 1e-7 * max(1.0, np.abs(C).max()):
                okay = False
                break
            lams[:, i] = np.diag(C)
        if okay:
            return lams
    raise ParameterDegeneracy("no well-conditioned joint eigenbasis found")


def check_hbar(hbar):
    """ParameterDegeneracy at h = 0, where the critical equations c_j =
    h sum_i a_ji phi_i have no isolated solutions."""
    if hbar == 0:
        raise ParameterDegeneracy(
            "h = 0: the mirror superpotential has no isolated critical "
            "points")


def compare_spectra(td, hbar, cvals, qn, seed=0, tol=1e-8):
    """Match joint eigenvalues of quantum multiplication against mirror
    critical values h phi_i(t*) one to one; returns a report whose
    max_deviation is that of the best match (see _bottleneck).

    The matrices A_i(qn) are the instance's one Q(h, c, q) ring evaluated
    at qn, ring(td).numeric(hbar, cvals).matrices_at(qn): the ring and its
    compiled connection are built on the first call for an instance and
    (h, c), and later calls only evaluate.  The critical points are found
    from those eigenvalues (critical_points), so the report passes only if
    they reach one distinct critical point per ring basis element and
    every eigenvalue lies within tol of its critical value.  Raises
    ParameterDegeneracy at h = 0 (check_hbar) and SingularEvaluation for a
    q with a zero coordinate or near a wall (check_regular), both before
    any ring is built, and SingularEvaluation where an entry, eigenvalue
    or critical value overflows."""
    from .quantum_ring import check_regular, ring
    check_hbar(hbar)
    r = ring(td)
    qn = check_regular(r.circuits, qn)
    nc = r.numeric(hbar, cvals)
    As = nc.matrices_at(qn)
    lams = joint_eigenvalues(As, seed=seed)
    if not np.isfinite(lams).all():
        raise SingularEvaluation("an eigenvalue overflows at this q")
    model = MirrorModel(td, hbar, cvals, qn)
    crit = critical_points(model, lams)
    with np.errstate(over="ignore", invalid="ignore"):
        mir = np.array([complex(hbar) * model.phi(t) for t in crit])
    if not np.isfinite(mir).all():
        raise SingularEvaluation("a critical value overflows at this q")
    cost = np.abs(lams[:, None, :] - mir[None, :, :]).max(axis=2)
    dev = _bottleneck(cost)
    return {
        "count": len(crit),
        "rank": nc.rank,
        "max_deviation": dev,
        "pass": bool(dev <= tol and len(crit) == nc.rank),
    }


def _bottleneck(cost):
    """The least t such that some matching of every row of cost to a
    distinct column (or of every column, if there are fewer) uses only
    entries <= t: the largest deviation of the best one-to-one match."""
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    vals = np.sort(cost, axis=None)
    lo, hi = 0, len(vals) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _matches_every_row(cost <= vals[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(vals[lo])


def _matches_every_row(adj):
    """Whether the boolean matrix adj matches each row to a distinct
    column (Kuhn's augmenting paths)."""
    owner = [-1] * adj.shape[1]

    def augment(i, seen):
        for j in np.flatnonzero(adj[i]):
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(adj.shape[0]))


# -- transport consistency -------------------------------------------------------


def make_insertion(mono, hbar):
    """Insertion for E^mono J: the polynomial P with E^mono Omega =
    P(phi) Omega, as a callable of the phi vector, or of an (n, N) array
    of phi vectors giving N values.

    P is built as a UPoly in phi_1..phi_n with complex coefficients from
    E_i Omega = h phi_i Omega and E_i phi^e = e_i phi^e (1 - phi_i), and
    evaluated from its table of exponents and coefficients in one array
    expression."""
    from .upoly import UPoly
    n = len(mono)
    h = complex(hbar)
    one = UPoly.constant(1.0 + 0.0j, n)
    P = one
    for i, k in enumerate(mono):
        phi = UPoly.variable(i, n, 1.0 + 0.0j)
        for _ in range(k):
            dP = UPoly(n, {e: e[i] * c for e, c in P.terms.items() if e[i]})
            P = phi.scale(h) * P + dP * (one - phi)
    E = np.array(list(P.terms), dtype=int).reshape(-1, n)
    coeffs = np.array(list(P.terms.values()), dtype=complex)

    def f(phi):
        # powers[k, i] = phi_i^k; the terms are products of table entries
        powers = [np.ones_like(phi), phi]
        for _ in range(E.max(initial=1) - 1):
            powers.append(powers[-1] * phi)
        powers = np.array(powers)
        return coeffs @ np.prod(powers[E, np.arange(n)], axis=1)

    return f


def _period_table(model, monos):
    """Periods E^m J of every cycle for every Euler monomial m in monos
    (exact integrand insertions), from one period pass over all cycles.

    Returns (table, bases): table has one row per cycle and one column per
    monomial; bases = (t0, state0) holds the cycles' base points and their
    branch states there, one column per cycle."""
    inserts = [make_insertion(m, model.hbar) if any(m) else None
               for m in monos]
    cycles = cycle_basis(model)
    table, state0 = period(model, cycles, insertion=inserts, tol=QUAD_TOL)
    return table, (_base_points(cycles), state0)


def period_frame(td, hbar, cvals, qn):
    """Y matrix: rows = cycles, columns = E^{m_alpha} J for the staircase
    monomials m_alpha (exact integrand insertions, no finite differences),
    from one period pass; it is transport_consistency's frame as it stands,
    since G~ = I.

    Returns (Y, bases), where bases, as in _period_table, lets the caller
    re-anchor branches at a nearby q for consistent comparisons.
    verify_gkz_on_periods gives the same frame from its own pass."""
    from .quantum_ring import ring
    model = MirrorModel(td, hbar, cvals, qn)
    return _period_table(model, ring(td).quantum.std)


def gtilde_matrix(td, hbar, cvals, qn):
    """G~(q), whose columns are nabla^{m_alpha} e_0, is the identity: e_0
    is constant and the staircase is closed under division, so for m =
    m' + e_i, nabla_i e_{m'} = A_i e_{m'} = [u_i u^{m'}] = e_m.  No
    package code calls it; perfbench/spans.py still names it."""
    from .quantum_ring import ring
    return np.eye(ring(td).quantum.rank, dtype=complex)


def transport_consistency(td, hbar, cvals, q0, q1, tol=1e-6, frame=None):
    """Criterion: the period frame Y(q) satisfies Y(q1) = Y(q0) Phi^{-1}
    with Phi the parallel transport along the path, so the period vector at
    q1 is predicted by data at q0 alone (no change of frame: G~ = I).

    Compares predicted vs directly recomputed period vectors at q1, from
    one period pass over the cycles built from q0's continued punctures,
    with branches continued from q0 so both sides use the same cycle
    identification.  frame is the period frame (Y, bases) at q0 if the
    caller has it (mirror-verify takes it from verify_gkz_on_periods), and
    period_frame's otherwise."""
    from .connection import QPath, transport_matrix
    from .quantum_ring import ring
    q0 = np.asarray(q0, dtype=complex)
    q1 = np.asarray(q1, dtype=complex)
    Y0, (t0, st0) = (period_frame(td, hbar, cvals, q0) if frame is None
                     else frame)
    r = ring(td)
    pres = r.quantum
    nc = r.numeric(hbar, cvals)
    Phi = transport_matrix(nc, QPath([q0, q1]))
    e0 = np.zeros(pres.rank, dtype=complex)
    e0[pres.std.index((0,) * td.n)] = 1.0
    predicted = Y0 @ np.linalg.solve(Phi, e0)
    # direct recomputation at q1 on the continued cycles and branches
    model0 = MirrorModel(td, hbar, cvals, q0)
    model1 = MirrorModel(td, hbar, cvals, q1)
    cycles = _cycles(_continued_punctures(model0, q1))
    st1 = _continue_state(model0, st0, t0, model1, _base_points(cycles))
    direct, _ = period(model1, cycles, tol=QUAD_TOL, state0=st1)
    scale = max(np.abs(direct).max(), 1e-300)
    dev = float(np.abs(predicted - direct).max() / scale)
    return {"max_relative_deviation": dev, "pass": bool(dev <= tol)}
