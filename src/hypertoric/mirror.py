"""Mirror side: twisted periods, critical points, and the comparison checks.

The mirror space for torus data (a, theta_hat) at Kahler point q is the
dual torus minus the multiplicative hyperplanes {q_i t^{a_i} = -1}, carrying
the multivalued form

    Omega = prod_i (1 + q_i t^{a_i})^h  prod_j t_j^{-c_j}  dt_j / t_j .

Periods over Pochhammer double loops (commutators of loops around puncture
pairs) are computed by direct quadrature with continuous branch tracking of
every logarithm along the contour; a closed commutator must return the
branch state to its start, which is checked.  The quadrature works on
arrays: each smooth piece of a contour gets all its branch knots in one
evaluation, and each adaptive Gauss-Legendre step evaluates the rule on an
interval and on both halves at once, for any number of insertions (exact
Euler derivatives of the period) in the same pass.  Branch continuation
across q follows the log-linear path of connection.QPath.  Period
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
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import (BranchTrackingFailure, DegenerateModel,
                     IncompleteCriticalSet, ParameterDegeneracy,
                     QuadratureFailure, SingularEvaluation,
                     UnsupportedDimension)

TWOPI = 2.0 * math.pi
QUAD_TOL = 1e-12     # period quadrature tolerance of the verification checks


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
                pts.append(r * cmath.exp(1j * (th + TWOPI * m) / k)
                           if k > 1 else rhs)
        # canonical deterministic order
        pts.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        for s, t in zip(pts, pts[1:]):
            if abs(s - t) < 1e-9:
                raise DegenerateModel("colliding punctures")
        if any(abs(p) < 1e-9 for p in pts):
            raise DegenerateModel("puncture collides with t = 0")
        return pts


# -- contours (d = 1) ---------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    z0: complex
    z1: complex

    def at(self, s):
        return self.z0 + s * (self.z1 - self.z0), self.z1 - self.z0


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    th0: float
    th1: float

    def at(self, s):
        th = self.th0 + s * (self.th1 - self.th0)
        e = np.exp(1j * th)
        return (self.center + self.radius * e,
                1j * self.radius * e * (self.th1 - self.th0))


def _loop_pieces(p, r, x0, inverse=False):
    """Out-circle-back loop around p based at x0, split into smooth pieces."""
    u = (x0 - p) / abs(x0 - p)
    entry = p + r * u
    th = cmath.phase(u)
    arcs = [Arc(p, r, th + TWOPI * k / 4, th + TWOPI * (k + 1) / 4)
            for k in range(4)]
    if inverse:
        arcs = [Arc(p, r, a.th1, a.th0) for a in reversed(arcs)]
    return [Segment(x0, entry)] + arcs + [Segment(entry, x0)]


def pochhammer_contour(p_a, p_b, all_punctures):
    """Commutator loop_a loop_b loop_a^{-1} loop_b^{-1} based between a, b."""
    x0 = 0.5 * (p_a + p_b)

    if min(abs(x0 - o) for o in all_punctures) < 1e-9 * (1 + abs(x0)):
        raise DegenerateModel("contour base point hits a puncture")

    def radius(p):
        d = min(abs(p - o) for o in all_punctures if abs(p - o) > 1e-12)
        return 0.3 * min(d, abs(p - x0))

    ra, rb = radius(p_a), radius(p_b)
    pieces = []
    pieces += _loop_pieces(p_a, ra, x0)
    pieces += _loop_pieces(p_b, rb, x0)
    pieces += _loop_pieces(p_a, ra, x0, inverse=True)
    pieces += _loop_pieces(p_b, rb, x0, inverse=True)
    return pieces


def cycle_basis(model):
    """Pochhammer contours for adjacent puncture pairs including t = 0."""
    pts = [0.0 + 0.0j] + model.punctures()
    return [pochhammer_contour(pts[k], pts[k + 1], pts)
            for k in range(len(pts) - 1)]


# -- branch-tracked integration (d = 1) ----------------------------------------


def _log_args(exps, q, t):
    """Arguments of the tracked logarithms at points t (shape (K,)).

    Returns (x, vals): x[i] = q_i t^{a_i} of shape (n, K), and vals of shape
    (n+1, K) holding t and each 1 + q_i t^{a_i}.  q has shape (n,) or (n, K).
    """
    x = np.asarray(q).reshape(len(exps), -1) * t ** exps[:, None]
    return x, np.vstack([t, 1.0 + x])


def _continue_logs(values, state0, knots):
    """Continue the logs of values(s) along s in [0, 1], starting at state0.

    values maps an array of K+1 uniform knots to the (m, K+1) array of the
    log arguments there.  The knot count is doubled (8 counts are tried,
    K to 128 K) until every step between consecutive knots turns each
    argument by less than pi/4.  Returns the knot values and the cumulative
    log states."""
    for _ in range(8):
        vals = values(np.arange(knots + 1) / knots)
        if np.any(np.abs(vals) < 1e-13):
            raise BranchTrackingFailure("branch path touches a puncture")
        delta = np.log(vals[:, 1:] / vals[:, :-1])
        if np.max(np.abs(delta.imag)) < math.pi / 4:
            steps = np.hstack([np.asarray(state0, dtype=complex)[:, None],
                               delta])
            return vals, np.cumsum(steps, axis=1)
        knots *= 2
    raise BranchTrackingFailure("branch step never fell under pi/4")


class _BranchPiece:
    """Branch anchors along one smooth piece.

    Stores the values and continued logs of t and each 1 + q_i t^{a_i} at
    K+1 uniform knots; arbitrary parameters get the nearest left knot's state
    plus one principal-log correction (valid when knots are dense enough,
    enforced by the pi/4 step rule).
    """

    def __init__(self, model, piece, state0, knots=48):
        self.qn = model.qn
        self.piece = piece
        self.exps = np.array(model.exponents())
        self.vals, self.states = _continue_logs(
            lambda s: _log_args(self.exps, self.qn, piece.at(s)[0])[1],
            state0, knots)
        self.knots = self.vals.shape[1] - 1

    def state_at(self, s, t):
        """(x, states) at parameters s with points t = piece(s): x as in
        _log_args, states the continued logs, shape (n+1, len(s))."""
        k = np.minimum((s * self.knots).astype(int), self.knots)
        x, vals = _log_args(self.exps, self.qn, t)
        if np.any(np.abs(vals) < 1e-13):
            raise BranchTrackingFailure("contour touches a puncture")
        delta = np.log(vals / self.vals[:, k])
        if np.max(np.abs(delta.imag)) >= math.pi / 2:
            raise BranchTrackingFailure("quadrature node too far from anchor")
        return x, self.states[:, k] + delta

    def end_state(self):
        return self.states[:, -1]


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _piece_integral(model, bp, insertions, s0, s1, tol, depth=0):
    """Adaptive 16-point Gauss-Legendre integral over [s0, s1] of one piece,
    one value per insertion.  The rule on the whole interval and on both
    halves is one 48-node array evaluation; the split is accepted when every
    insertion's |whole - split| <= tol max(1, |split|)."""
    mid = 0.5 * (s0 + s1)
    lo = np.array([s0, s0, mid])
    width = np.array([s1 - s0, mid - s0, s1 - mid])
    s = (lo[:, None] + _GL_NODES * width[:, None]).ravel()
    t, dt = bp.piece.at(s)
    x, st = bp.state_at(s, t)
    # log integrand: h sum_i log w_i - c log t
    omega = (np.exp(model.hbar * np.sum(st[1:], axis=0)
                    - model.cvals[0] * st[0]) * dt / t)
    phi = x / (1.0 + x)
    vals = np.array([omega if ins is None else omega * ins(phi)
                     for ins in insertions])
    quads = (vals.reshape(len(insertions), 3, 16) @ _GL_WEIGHTS) * width
    whole = quads[:, 0]
    split = quads[:, 1] + quads[:, 2]
    if np.all(np.abs(whole - split) <= tol * np.maximum(1.0, np.abs(split))):
        return split
    if depth >= 14:
        raise QuadratureFailure("adaptive bisection depth exhausted")
    return (_piece_integral(model, bp, insertions, s0, mid, tol, depth + 1)
            + _piece_integral(model, bp, insertions, mid, s1, tol, depth + 1))


def period(model, contour, insertion=None, tol=1e-12, state0=None):
    """Integrate Omega (times an optional single-valued insertion) over a
    contour, tracking branches; returns (value, start_state).

    insertion: callable phi -> complex, used for exact Euler derivatives of
    periods, E^M J = integral of Omega * (polynomial in h phi_i); phi is an
    (n, N) array of node values and the callable returns N values.  A list
    or tuple of insertions (None meaning Omega itself) is integrated in one
    pass and gives an array with one value per insertion; an interval is
    accepted only when every insertion passes the bisection test.
    For closed commutator contours the branch state must return to its
    initial value, which is asserted.
    """
    if model.td.d != 1:
        raise UnsupportedDimension("period integration implemented for d = 1")
    batched = isinstance(insertion, (list, tuple))
    insertions = list(insertion) if batched else [insertion]
    t_start, _ = contour[0].at(0.0)
    if state0 is None:
        state0 = _principal_state(model, t_start)
    state = np.array(state0, dtype=complex)
    total = np.zeros(len(insertions), dtype=complex)
    for piece in contour:
        bp = _BranchPiece(model, piece, state)
        total += _piece_integral(model, bp, insertions, 0.0, 1.0, tol)
        state = bp.end_state()
    if np.max(np.abs(state - np.asarray(state0))) > 1e-8:
        raise BranchTrackingFailure("branch state did not close up")
    return (total if batched else total[0]), np.asarray(state0)


def _principal_state(model, t):
    _, vals = _log_args(np.array(model.exponents()), model.qn, np.array([t]))
    return np.log(vals[:, 0])


def _continue_state(model_from, state, t_from, model_to, t_to, steps=32):
    """Continue the branch state from (q0, t0) to (q1, t1): q along the
    connection.QPath log-linear path, t along the straight chord, for
    branch-consistent period comparisons across q."""
    from .connection import QPath
    exps = np.array(model_from.exponents())
    q0, delta = QPath([model_from.qn, model_to.qn]).segment(0)

    def values(s):
        t = (1 - s) * t_from + s * t_to
        return _log_args(exps, q0[:, None] * np.exp(np.outer(delta, s)),
                         t)[1]

    return _continue_logs(values, state, steps)[1][:, -1]


# -- GKZ verification on periods (exact Euler insertions) ----------------------


def _match_nearest(prev, cands):
    matched, used = [], set()
    for p in prev:
        best, bd = None, None
        for idx, cand in enumerate(cands):
            if idx in used:
                continue
            dd = abs(cand - p)
            if bd is None or dd < bd:
                best, bd = idx, dd
        used.add(best)
        matched.append(cands[best])
    return matched


def _matched_contour(center_model, shifted_model, cycle_index, steps=32):
    """Rebuild the cycle at a shifted q with punctures matched to the center
    ordering, so the contour deforms continuously with q.

    Matching walks the connection.QPath log-linear path in steps so
    nearest-neighbor pairing stays valid when the endpoints are not close.
    (Full braid monodromy of wildly wandering punctures is out of scope: the
    pair identity is tracked, the contour is rebuilt at the endpoint.)"""
    from .connection import QPath
    q0, delta = QPath([center_model.qn, shifted_model.qn]).segment(0)
    steps = max(1, min(steps, int(np.max(np.abs(delta)) / 0.05) + 1))
    s = np.arange(1, steps + 1) / steps
    matched = center_model.punctures()
    for q in (q0[:, None] * np.exp(np.outer(delta, s))).T:
        m = MirrorModel(center_model.td, center_model.hbar,
                        center_model.cvals, q)
        matched = _match_nearest(matched, m.punctures())
    pts = [0.0 + 0.0j] + matched
    return pochhammer_contour(pts[cycle_index], pts[cycle_index + 1], pts)


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
    the ring rank of a smooth arrangement) is not reached.
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
    out = [tuple(complex(t) for t in np.exp(x)) for x in xs]
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
    roots = np.roots(coeffs)
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
    E_i Omega = h phi_i Omega and E_i phi^e = e_i phi^e (1 - phi_i)."""
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
    flat = list(P.terms.items())

    def f(phi):
        total = 0.0 + 0.0j
        for e, coeff in flat:
            term = coeff
            for i, ei in enumerate(e):
                if ei:
                    term *= phi[i] ** ei
            total += term
        return total

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
        t0, _ = cont[0].at(0.0)
        table[g], st0 = period(model, cont, insertion=inserts, tol=QUAD_TOL)
        bases.append((t0, st0))
    return table, bases


def period_frame(td, hbar, cvals, qn):
    """Y matrix: rows = cycles, columns = E^{m_alpha} J for the staircase
    monomials m_alpha (exact integrand insertions, no finite differences).

    Returns (Y, base data) where base data lets the caller re-anchor branches
    at a nearby q for consistent comparisons."""
    from .quantum_ring import ring
    model = MirrorModel(td, hbar, cvals, qn)
    return _period_table(model, ring(td).quantum.std)


def gtilde_matrix(td, hbar, cvals, qn):
    """G~(q): columns are nabla^{m_alpha} e_0 evaluated at q, the change of
    frame between derivative-coordinates and the staircase frame."""
    from .connection import CompiledFractions
    from .quantum_ring import ring
    r = ring(td)
    fam = r.family
    pres = fam.pres
    F = fam.field
    cols = []
    secs = {(0,) * td.n: fam.unit_section()}
    for m in pres.std:
        if m not in secs:
            # peel one variable already present in a known prefix
            for i in range(td.n):
                if m[i]:
                    prev = tuple(x - (1 if k == i else 0)
                                 for k, x in enumerate(m))
                    if prev in secs:
                        secs[m] = fam.nabla(i, secs[prev])
                        break
            else:
                raise ValueError("staircase not closed under division")
        cols.append(secs[m])
    nc = r.numeric(hbar, cvals)
    comp = CompiledFractions(F, [x for col in cols for x in col], nc.hbar,
                             nc.cvals)
    return comp.at(nc.qk_of(qn)).reshape(pres.rank, pres.rank).T


def transport_consistency(td, hbar, cvals, q0, q1, tol=1e-6):
    """Criterion: T(q) := Y(q) G~(q)^{-1} satisfies T(q1) = T(q0) Phi^{-1}
    with Phi the parallel transport along the path, so the period vector at
    q1 is predicted by data at q0 after the single basis change T(q0).

    Compares predicted vs directly recomputed period vectors at q1 (branches
    continued from q0 so both sides use the same cycle identification)."""
    from .connection import QPath, transport_matrix
    from .quantum_ring import ring
    q0 = np.asarray(q0, dtype=complex)
    q1 = np.asarray(q1, dtype=complex)
    Y0, bases = period_frame(td, hbar, cvals, q0)
    G0 = gtilde_matrix(td, hbar, cvals, q0)
    T0 = Y0 @ np.linalg.inv(G0)
    r = ring(td)
    pres = r.quantum
    nc = r.numeric(hbar, cvals)
    Phi = transport_matrix(nc, QPath([q0, q1]), rtol=1e-12, atol=1e-14)
    e0 = np.zeros(pres.rank, dtype=complex)
    e0[pres.std.index((0,) * td.n)] = 1.0
    predicted = T0 @ np.linalg.solve(Phi, e0)
    # direct recomputation at q1 on the continued branch
    model0 = MirrorModel(td, hbar, cvals, q0)
    model1 = MirrorModel(td, hbar, cvals, q1)
    contours1 = [_matched_contour(model0, model1, k)
                 for k in range(len(cycle_basis(model0)))]
    direct = np.zeros(len(contours1), dtype=complex)
    for g, cont in enumerate(contours1):
        t0b, st0 = bases[g]
        t1b, _ = cont[0].at(0.0)
        st1 = _continue_state(model0, st0, t0b, model1, t1b)
        direct[g], _ = period(model1, cont, tol=QUAD_TOL, state0=st1)
    scale = max(np.abs(direct).max(), 1e-300)
    dev = float(np.abs(predicted - direct).max() / scale)
    return {"max_relative_deviation": dev, "pass": bool(dev <= tol)}
