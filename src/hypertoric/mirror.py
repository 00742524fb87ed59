"""Mirror side: twisted periods, critical points, and the comparison checks.

The mirror space for torus data (a, theta_hat) at Kahler point q is the
dual torus minus the multiplicative hyperplanes {q_i t^{a_i} = -1}, carrying
the multivalued form

    Omega = prod_i (1 + q_i t^{a_i})^h  prod_j t_j^{-c_j}  dt_j / t_j .

Periods over Pochhammer double loops (commutators of loops around puncture
pairs) are computed by direct quadrature with continuous branch tracking of
every logarithm along the contour; a closed commutator must return the
branch state to its start, which is checked.  A contour is integrated in
one array pass: the branch knots of all its pieces are one evaluation and
their log states one cumulative sum, and the adaptive Gauss-Legendre
bisection runs level by level, each level evaluating the rule on every
open interval and both its halves at once, for any number of insertions
(exact Euler derivatives of the period).  A contour is the per-piece
rows t(s) = a + b s + r exp(i (th0 + s dth)) that this pass integrates.
Across q, along the log-linear path q(s) = q0 exp(s delta) of
connection.QPath, the root t of 1 + q_i t^{a_i} moves in closed form as
t exp(-s delta_i / a_i): the cycles at q1 are built from q0's continued
punctures, in q0's order, and the logs at their base points are continued
along the same path by the branch-knot routine of the quadrature.  Period
integration is implemented for d = 1 (all it is needed for); critical
points of the superpotential

    Y_q = h sum_i log(1 + q_i t^{a_i}) - sum_j c_j log t_j

are computed for d = 1 (companion polynomial) and for every d >= 2 by a
batched predictor-corrector homotopy in log t from the tropical limit,
evaluated in log q so that no tropically scaled q underflows.

This module has no polynomial arithmetic of its own.  The GKZ operators
checked on periods are the ring's own relations at the point
(QuantumRing.generators over params.PointField); the Euler insertions and
the d = 1 critical polynomial are upoly.UPoly objects with complex
coefficients.
"""

import cmath
import math

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
QUAD_PANELS = 4096   # Gauss-Legendre intervals one period call may evaluate


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
        pts.sort(key=lambda p: (round(p[0].real, 9), round(p[0].imag, 9)))
        for (s, _), (t, _) in zip(pts, pts[1:]):
            if abs(s - t) < 1e-9:
                raise DegenerateModel("colliding punctures")
        if any(abs(p) < 1e-9 for p, _ in pts):
            raise DegenerateModel("puncture collides with t = 0")
        return pts


# -- contours (d = 1) ---------------------------------------------------------
#
# A contour is a tuple of five per-piece arrays (a, b, r, th0, dth): piece k
# is t(s) = a[k] + b[k] s + r[k] exp(i (th0[k] + s dth[k])) for s in [0, 1],
# a segment with r = 0 or an arc with b = 0.


def _loop_pieces(p, r, x0, inverse=False):
    """Out-circle-back loop around p based at x0, as piece rows (a, b, r,
    th0, dth): the segment out, four quarter arcs, the segment back."""
    u = (x0 - p) / abs(x0 - p)
    entry = p + r * u
    th = [cmath.phase(u) + TWOPI * k / 4 for k in range(5)]
    arcs = [(p, 0.0, r, th[k], th[k + 1] - th[k]) for k in range(4)]
    if inverse:
        arcs = [(p, 0.0, r, th[k + 1], th[k] - th[k + 1])
                for k in reversed(range(4))]
    return ([(x0, entry - x0, 0.0, 0.0, 0.0)] + arcs
            + [(entry, x0 - entry, 0.0, 0.0, 0.0)])


def pochhammer_contour(p_a, p_b, all_punctures):
    """Commutator loop_a loop_b loop_a^{-1} loop_b^{-1} based between a, b."""
    x0 = 0.5 * (p_a + p_b)

    if min(abs(x0 - o) for o in all_punctures) < 1e-9 * (1 + abs(x0)):
        raise DegenerateModel("contour base point hits a puncture")

    def radius(p):
        d = min(abs(p - o) for o in all_punctures if abs(p - o) > 1e-12)
        return 0.3 * min(d, abs(p - x0))

    ra, rb = radius(p_a), radius(p_b)
    a, b, r, th0, dth = zip(*(_loop_pieces(p_a, ra, x0)
                              + _loop_pieces(p_b, rb, x0)
                              + _loop_pieces(p_a, ra, x0, inverse=True)
                              + _loop_pieces(p_b, rb, x0, inverse=True)))
    return (np.array(a, dtype=complex), np.array(b, dtype=complex),
            np.array(r), np.array(th0), np.array(dth))


def _cycles(punctures):
    """Pochhammer contours for adjacent pairs of [0] + punctures, in the
    order given."""
    pts = [0.0 + 0.0j] + list(punctures)
    return [pochhammer_contour(pts[k], pts[k + 1], pts)
            for k in range(len(pts) - 1)]


def cycle_basis(model):
    """Pochhammer contours for adjacent puncture pairs including t = 0."""
    return _cycles(model.punctures())


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


def _continue_logs(values, state0, count, knots):
    """Continue the logs along `count` consecutive paths, each over s in
    [0, 1], the first starting at state0 and each next one where the
    previous one ends.

    values(rows, s) gives the (m, len(rows), K+1) log arguments of the
    paths `rows` at the K+1 uniform knots s.  A path's knot count is doubled
    (8 counts are tried, K to 128 K) until every step between consecutive
    knots turns each argument by less than pi/4.  The steps of all paths,
    in order, go through one cumulative sum.  Returns (K, vals, states):
    each path's knot count, the knot values of all paths side by side,
    shape (m, sum(K + 1)), and the states, shape (m, 1 + sum(K)); knot k of
    path p is column sum(K[:p] + 1) + k of vals and sum(K[:p]) + k of
    states."""
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
            steps.insert(0, np.asarray(state0, dtype=complex)[:, None])
            return (K, np.concatenate(vals, axis=1),
                    np.cumsum(np.concatenate(steps, axis=1), axis=1))
        knots *= 2
    raise BranchTrackingFailure("branch step never fell under pi/4")


def _pieces_at(contour, rows, s):
    """(t, dt/ds) on the pieces `rows` of a contour at parameters s
    (broadcast)."""
    a, b, r, th0, dth = (g[rows] for g in contour)
    e = np.exp(1j * (th0 + s * dth))
    return a + b * s + r * e, b + 1j * r * e * dth


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def period(model, contour, insertion=None, tol=1e-12, state0=None):
    """Integrate Omega (times an optional single-valued insertion) over a
    contour, tracking branches; returns (value, start_state).

    insertion: callable phi -> complex, used for exact Euler derivatives of
    periods, E^M J = integral of Omega * (polynomial in h phi_i); phi is an
    (n, N) array of node values and the callable returns N values.  A list
    or tuple of insertions (None meaning Omega itself) is integrated in one
    pass and gives an array with one value per insertion.

    The contour is integrated in one array pass.  Branch knots: 48 per
    piece to start with, see _continue_logs; a node takes the state of the
    nearest knot on its left plus one principal-log correction, which must
    turn by less than pi/2.  Bisection runs level by level: each level
    evaluates the 16-point Gauss-Legendre rule on the whole, left half and
    right half of every open interval of every piece at once, and accepts
    an interval when every insertion's |whole - split| <= tol max(1,
    |split|); the rest are halved for the next level, up to depth
    QUAD_DEPTH and QUAD_PANELS intervals in all (bisection.bisect).  For
    closed commutator contours the branch state must return to its initial
    value, which is asserted.
    """
    if model.td.d != 1:
        raise UnsupportedDimension("period integration implemented for d = 1")
    batched = isinstance(insertion, (list, tuple))
    insertions = list(insertion) if batched else [insertion]
    if state0 is None:
        state0 = _principal_state(model, _pieces_at(contour, 0, 0.0)[0])
    state0 = np.asarray(state0, dtype=complex)
    exps = np.array(model.exponents())
    pieces = len(contour[0])
    K, anchors, states = _continue_logs(
        lambda rows, s: _log_args(
            exps, model.qn, _pieces_at(contour, rows[:, None], s)[0])[1],
        state0, pieces, 48)
    if np.max(np.abs(states[:, -1] - state0)) > 1e-8:
        raise BranchTrackingFailure("branch state did not close up")
    state_off = np.cumsum(K) - K
    anchor_off = state_off + np.arange(len(K))

    def integrand(r, s):
        """Omega dt/ds, flat, and phi, shape (n, N), at the parameters s of
        the pieces r."""
        t, dt = _pieces_at(contour, r, s)
        x, vals = _log_args(exps, model.qn, t)
        if np.any(np.abs(vals) < 1e-13):
            raise BranchTrackingFailure("contour touches a puncture")
        k = np.minimum((s * K[r]).astype(int), K[r])
        delta = _log(vals / anchors[:, anchor_off[r] + k])
        if np.max(np.abs(delta.imag)) >= math.pi / 2:
            raise BranchTrackingFailure("quadrature node too far from anchor")
        st = states[:, state_off[r] + k] + delta
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

    total = sum(split.sum(axis=0) for _, _, split in bisect(
        quadratures, np.arange(pieces), tol, QUAD_DEPTH, QUAD_PANELS,
        QuadratureFailure))
    return (total if batched else total[0]), state0


def _principal_state(model, t):
    _, vals = _log_args(np.array(model.exponents()), model.qn, np.array([t]))
    return _log(vals[:, 0])


def _continue_state(model_from, state, t_from, model_to, t_to):
    """Continue the branch state from (q0, t0) to (q1, t1): q along the
    connection.QPath log-linear path, t along the straight chord, for
    branch-consistent period comparisons across q."""
    from .connection import QPath
    exps = np.array(model_from.exponents())
    q0, delta = QPath([model_from.qn, model_to.qn]).segment(0)

    def values(rows, s):
        t = (1 - s) * t_from + s * t_to
        return _log_args(exps, q0[:, None] * np.exp(np.outer(delta, s)),
                         t)[1][:, None]

    return _continue_logs(values, state, 1, 32)[2][:, -1]


# -- GKZ verification on periods (exact Euler insertions) ----------------------


def verify_gkz_on_periods(td, hbar, cvals, q_points, tol=1e-6):
    """Check that every period solves every GKZ operator.

    An operator's Euler expansion is its symbol (nabla_i -> E_i), the ring
    relation ring(td).generators gives over the field at the exact (h, c)
    and the exact q^k of the point (PointField.at), each coefficient
    rounded once to complex.  On scalar periods the E_i commute, so the
    expansion is exact.  For each q point, one batched period pass per
    cycle integrates Omega times the exact insertion (see make_insertion)
    of every Euler monomial of a symbol and of every staircase monomial.
    Each operator's residual is |sum of its terms| relative to its largest
    term.  The staircase columns are period_frame's cycles x ring-rank
    matrix Y, whose rank must equal the number of cycles for the point to
    pass.
    """
    from .params import PointField
    from .quantum_ring import ring
    r = ring(td)
    std = r.quantum.std
    report = {"points": [], "pass": True}
    for qn in q_points:
        model = MirrorModel(td, hbar, cvals, np.asarray(qn, dtype=complex))
        F = PointField.at(td, hbar, cvals, model.qn)
        expansions = [{m: F.to_complex(x) for m, x in g.terms.items()}
                      for g in r.generators(F)]
        monos = sorted({m for e in expansions for m in e} | set(std))
        table, _ = _period_table(model, monos)
        col = {m: k for k, m in enumerate(monos)}
        worst = 0.0
        for row in table:
            for e in expansions:
                terms = [coeff * row[col[m]] for m, coeff in e.items()]
                scale = max(abs(t) for t in terms)
                worst = max(worst, abs(sum(terms)) / max(scale, 1e-300))
        sv = np.linalg.svd(table[:, [col[m] for m in std]], compute_uv=False)
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
    return report


# -- critical points ------------------------------------------------------------


def critical_points(model):
    """Critical points of Y_q on the mirror torus; returns a sorted list of
    t tuples, one per arrangement vertex.

    d = 1: clears denominators to one Laurent polynomial and takes numpy
    roots.  d >= 2: tracks the roots from the tropical limit back to q by a
    batched predictor-corrector homotopy in log t (_homotopy_roots).  Both
    end in the same batched Newton corrector (_newton).  Raises
    IncompleteCriticalSet if the expected count (the vertex count, which is
    the ring rank of a smooth arrangement) is not reached, and
    SingularEvaluation if the critical polynomial or a critical point t
    under- or overflows a float.
    """
    from .arrangement import vertices
    expected = len(vertices(model.td))
    if model.td.d == 1:
        xs = _companion_roots(model)
    else:
        xs = _homotopy_roots(model, expected)
        if xs is None:
            raise IncompleteCriticalSet(
                f"homotopy tracking of the {expected} critical points failed")
    if len(xs) != expected:
        raise IncompleteCriticalSet(
            f"found {len(xs)} critical points, expected {expected}")
    with np.errstate(over="ignore"):
        ts = np.exp(xs)
    if not (np.isfinite(ts).all() and ts.all()):
        raise SingularEvaluation(
            "a critical point under- or overflows a float at this q")
    out = [tuple(complex(t) for t in row) for row in ts]
    out.sort(key=lambda t: tuple(v for z in t
                                 for v in (round(z.real, 9), round(z.imag, 9))))
    return out


def _companion_roots(model):
    """d = 1 critical points as an (R, 1) array of log t: roots of the
    cleared Laurent polynomial off t = 0 and the hyperplanes, Newton
    polished, with duplicates dropped."""
    from .upoly import UPoly
    exps = model.exponents()
    h = model.hbar
    c = model.cvals[0]
    # h sum_i a_i q_i t^{a_i} prod_{k != i}(1 + q_k t^{a_k})
    #   - c prod_k (1 + q_k t^{a_k}) = 0, with Laurent exponents in t
    factors = [UPoly(1, {(0,): 1.0 + 0.0j, (e,): q}) if e
               else UPoly.constant(1.0 + q, 1)
               for e, q in zip(exps, model.qn)]
    poly = UPoly.constant(-c, 1)
    for f in factors:
        poly = poly * f
    for i, e in enumerate(exps):
        if e:
            term = UPoly(1, {(e,): h * e * model.qn[i]})
            for k, f in enumerate(factors):
                if k != i:
                    term = term * f
            poly = poly + term
    lo = min(poly.terms)[0]
    hi = max(poly.terms)[0]
    coeffs = np.zeros(hi - lo + 1, dtype=complex)
    for (e,), coeff in poly.terms.items():
        coeffs[hi - e] = coeff
    roots = None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if np.isfinite(coeffs).all():
                roots = np.roots(coeffs)
        except np.linalg.LinAlgError:   # its companion matrix overflows
            pass
    if roots is None:
        raise SingularEvaluation(
            "the critical polynomial overflows a float at this q")
    roots = roots[np.abs(roots) >= 1e-10]
    A = np.array(model.td.a, dtype=float)
    x = np.log(roots)[:, None]
    off = np.all(np.abs(1.0 + model.qn * np.exp(x @ A)) >= 1e-8, axis=1)
    # the roots are already critical points: polishing is best effort
    x, _ = _newton(A, h, x[off], np.log(model.qn), c, _FINAL_TOL, 6)
    out = []
    for xi in x:
        t = np.exp(xi[0])
        if all(abs(t - np.exp(s[0])) >= 1e-8 * (1 + abs(t)) for s in out):
            out.append(xi)
    return np.array(out).reshape(-1, 1)


_FINAL_TOL = 1e-13       # max|F| at the true q
_STEP_CAP = 2.0          # Newton step cap, max norm in log t
_START_ITERS = 60        # Newton budget at the path's two ends
_STEP_ITERS = 6          # Newton budget of one corrector step
_GAMMA_SEED = 20240607   # fixed draw of the start shift delta


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


def _tropical(td, w):
    """Per vertex B: the columns M = a_B, and the tropical signs
    w_i + a_i . u_B of the hyperplanes at w = log|q|, where a_B^T u_B = -w_B
    (the signs vanish on B)."""
    from .arrangement import vertices
    A = np.array(td.a, dtype=float)
    out = []
    for v in vertices(td):
        B = list(v.basis)
        M = A[:, B]
        out.append((B, M, w + np.linalg.solve(M.T, -w[B]) @ A))
    return out


def _vertex_starts(A, h, c, logq, tropical):
    """Roots of the tropical limit at log q, one per vertex B, as an (R, d)
    array of log t.  At the vertex scale the factors y_i for i in B are
    O(1); each other y_i tends to 0 or infinity with the sign of its
    tropical sign, so phi_i -> 0 or 1.  The active phi_B then solve the
    shifted linear system h a_B phi_B = c - h sum_{sign > 0} a_i, and
    a_B^T log t = log(phi_B / (1 - phi_B)) - log q_B."""
    starts = []
    for B, M, sign in tropical:
        up = sign > 0
        up[B] = False
        phiB = np.linalg.solve(M, c / h - A[:, up].sum(axis=1))
        if np.any(np.abs(1.0 - phiB) < 1e-10) or np.any(np.abs(phiB) < 1e-12):
            continue
        starts.append(np.linalg.solve(
            M.T, np.log(phiB / (1.0 - phiB)) - logq[B]))
    return np.array(starts).reshape(-1, A.shape[0])


def _homotopy_roots(model, expected):
    """Track the critical points from the tropical limit back to q; returns
    an (expected, d) array of log t, or None if tracking failed.

    The path is log q(s) = ((1 - s) lam + s) log|q| + i arg q in log
    coordinates, so no power |q|^lam is ever formed; lam puts every
    tropical sign at |sign| >= 6 at s = 0, where the vertex starts hold.
    The start uses c + delta, with delta a fixed complex shift (the gamma
    trick) that keeps every tropical phi_B off 0 and 1 and the path off the
    discriminant; c(s) = c + (1 - s) delta.  Each s step predicts along the
    tangent dx/ds = -J^-1 dF/ds and corrects by Newton to
    max|F| <= 1e-13 max(1, max|log q(s)|), above the rounding floor of
    log q + x a.  Steps start at 1/16, double on success up to 1/4 and
    halve on failure; tracking fails once a step falls below 1/(4096 lam),
    a floor on the move of log q, which is (lam - 1) log|q| per unit s.
    The last point is corrected at the true q to max|F| <= _FINAL_TOL.
    _newton scales both stops by max(1, max|J| max|x|) per root."""
    td = model.td
    A = np.array(td.a, dtype=float)
    h = model.hbar
    c = np.array(model.cvals)
    w = np.log(np.abs(model.qn))
    tropical = _tropical(td, w)
    smin = min(np.abs(np.delete(sign, B)).min() for B, _, sign in tropical)
    if smin < 1e-9:
        return None
    lam = max(1.0, 6.0 / smin)
    if w.max() < 0.0:
        lam = max(lam, math.log(1e-3) / w.max())
    delta = 0.25 * abs(h) * np.exp(
        TWOPI * 1j * default_rng(_GAMMA_SEED).random(td.d))

    def logq(s):
        return ((1.0 - s) * lam + s) * w + 1j * np.angle(model.qn)

    def path_tol(s):
        return _FINAL_TOL * max(1.0, np.abs(logq(s)).max())

    dlogq = (1.0 - lam) * w
    x = _vertex_starts(A, h, c + delta, logq(0.0), tropical)
    if len(x) != expected:
        return None
    x, ok = _newton(A, h, x, logq(0.0), c + delta, path_tol(0.0),
                    _START_ITERS)
    if not ok or _log_collision(x):
        return None
    s, ds = 0.0, 1.0 / 16
    while s < 1.0:
        step = min(ds, 1.0 - s)
        _, J, pp = _crit_eval(A, h, x, logq(s), c + (1.0 - s) * delta)
        dF = h * ((pp * dlogq) @ A.T) + delta
        try:
            xp = x - step * np.linalg.solve(J, dF[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return None
        x1, ok = _newton(A, h, xp, logq(s + step),
                         c + (1.0 - s - step) * delta, path_tol(s + step),
                         _STEP_ITERS)
        if ok and not _log_collision(x1):
            x, s = _principal(x1), s + step
            ds = min(ds * 2.0, 0.25)
        else:
            ds *= 0.5
            if ds * lam < 1.0 / 4096:
                return None
    x, ok = _newton(A, h, x, logq(1.0), c, _FINAL_TOL, _START_ITERS)
    return x if ok else None


def _principal(x):
    """The same points t = exp(x) with every Im log t in [-pi, pi]; keeps
    |x|, and with it the rounding floor of log q + x a, small."""
    return x - 1j * TWOPI * np.round(x.imag / TWOPI)


def _log_collision(xs, tol=1e-6):
    """Whether two rows of the (R, d) batch xs of log t give the same t,
    i.e. differ by 2 pi i integers."""
    dx = _principal(xs[:, None, :] - xs[None, :, :])
    same = ((np.abs(dx.real).max(axis=2) < tol)
            & (np.abs(dx.imag).max(axis=2) < tol))
    return bool(np.triu(same, 1).any())


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


def compare_spectra(td, hbar, cvals, qn, seed=0, tol=1e-8):
    """Match joint eigenvalues of quantum multiplication against mirror
    critical values h phi_i(t*) one to one; returns a report whose
    max_deviation is that of the best match (see _bottleneck).

    The matrices A_i(qn) come from the exact ring at the point,
    ring(td).at(hbar, cvals, qn), each entry rounded once to complex; no
    Q(h, c, q) presentation and no compiled connection is built.  Raises
    SingularEvaluation for a q with a zero coordinate or near a wall, or
    where an entry, eigenvalue or critical value overflows, and
    ParameterDegeneracy for a q on the bad locus of the specialization."""
    from .quantum_ring import ring
    pres = ring(td).at(hbar, cvals, qn)
    to_complex = pres.field.to_complex
    As = [[[to_complex(x) for x in row]
           for row in pres.multiplication_matrix(i)] for i in range(td.n)]
    lams = joint_eigenvalues(As, seed=seed)
    model = MirrorModel(td, hbar, cvals, qn)
    crit = critical_points(model)
    with np.errstate(over="ignore", invalid="ignore"):
        mir = np.array([complex(hbar) * model.phi(t) for t in crit])
    if not (np.isfinite(lams).all() and np.isfinite(mir).all()):
        raise SingularEvaluation(
            "an eigenvalue or critical value overflows at this q")
    cost = np.abs(lams[:, None, :] - mir[None, :, :]).max(axis=2)
    dev = _bottleneck(cost)
    return {
        "count": len(crit),
        "rank": pres.rank,
        "max_deviation": dev,
        "pass": bool(dev <= tol and len(crit) == pres.rank),
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
    (exact integrand insertions), one batched period pass per cycle.

    Returns (table, bases): table has one row per cycle and one column per
    monomial; bases holds each cycle's branch anchor (t0, state0)."""
    inserts = [make_insertion(m, model.hbar) if any(m) else None
               for m in monos]
    contours = cycle_basis(model)
    table = np.zeros((len(contours), len(monos)), dtype=complex)
    bases = []
    for g, cont in enumerate(contours):
        table[g], st0 = period(model, cont, insertion=inserts, tol=QUAD_TOL)
        bases.append((_pieces_at(cont, 0, 0.0)[0], st0))
    return table, bases


def period_frame(td, hbar, cvals, qn):
    """Y matrix: rows = cycles, columns = E^{m_alpha} J for the staircase
    monomials m_alpha (exact integrand insertions, no finite differences);
    it is transport_consistency's frame as it stands, since G~ = I.

    Returns (Y, base data) where base data lets the caller re-anchor branches
    at a nearby q for consistent comparisons."""
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


def transport_consistency(td, hbar, cvals, q0, q1, tol=1e-6):
    """Criterion: the period frame Y(q) satisfies Y(q1) = Y(q0) Phi^{-1}
    with Phi the parallel transport along the path, so the period vector at
    q1 is predicted by data at q0 alone (no change of frame: G~ = I).

    Compares predicted vs directly recomputed period vectors at q1 (branches
    continued from q0 so both sides use the same cycle identification)."""
    from .connection import QPath, transport_matrix
    from .quantum_ring import ring
    q0 = np.asarray(q0, dtype=complex)
    q1 = np.asarray(q1, dtype=complex)
    Y0, bases = period_frame(td, hbar, cvals, q0)
    r = ring(td)
    pres = r.quantum
    nc = r.numeric(hbar, cvals)
    Phi = transport_matrix(nc, QPath([q0, q1]))
    e0 = np.zeros(pres.rank, dtype=complex)
    e0[pres.std.index((0,) * td.n)] = 1.0
    predicted = Y0 @ np.linalg.solve(Phi, e0)
    # direct recomputation at q1 on the continued cycles and branch
    model0 = MirrorModel(td, hbar, cvals, q0)
    model1 = MirrorModel(td, hbar, cvals, q1)
    direct = np.zeros(len(bases), dtype=complex)
    for g, cont in enumerate(_cycles(_continued_punctures(model0, q1))):
        t0b, st0 = bases[g]
        st1 = _continue_state(model0, st0, t0b, model1,
                              _pieces_at(cont, 0, 0.0)[0])
        direct[g], _ = period(model1, cont, tol=QUAD_TOL, state0=st1)
    scale = max(np.abs(direct).max(), 1e-300)
    dev = float(np.abs(predicted - direct).max() / scale)
    return {"max_relative_deviation": dev, "pass": bool(dev <= tol)}
