"""The tropical-homotopy oracle of the critical points of Y_q.

critical_points(model) finds every critical point of the superpotential

    Y_q = h sum_i log(1 + q_i t^{a_i}) - sum_j c_j log t_j

from scratch, with no eigenvalue as a start: for d = 1 it clears
denominators to one Laurent polynomial and takes numpy's companion-matrix
roots; for d >= 2 it tracks the roots from the tropical limit back to q by
a batched predictor-corrector homotopy in log t, evaluated in log q so
that no tropically scaled q underflows.  Both end in the package's Newton
corrector (mirror._newton).  The package seeds that corrector from the
joint spectrum instead (mirror.critical_points(model, lams)); this
independent search is what the seeded critical set is checked against.
"""

import math

import numpy as np
from numpy.random import default_rng

from hypertoric.errors import IncompleteCriticalSet, SingularEvaluation
from hypertoric.mirror import (_FINAL_TOL, _START_ITERS, TWOPI, _crit_eval,
                               _newton, _principal)

_STEP_ITERS = 6          # Newton budget of one corrector step
_GAMMA_SEED = 20240607   # fixed draw of the start shift delta


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
    from hypertoric.arrangement import vertices
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
    from hypertoric.upoly import UPoly
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


def _tropical(td, w):
    """Per vertex B: the columns M = a_B, and the tropical signs
    w_i + a_i . u_B of the hyperplanes at w = log|q|, where a_B^T u_B = -w_B
    (the signs vanish on B)."""
    from hypertoric.arrangement import vertices
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


def _log_collision(xs, tol=1e-6):
    """Whether two rows of the (R, d) batch xs of log t give the same t,
    i.e. differ by 2 pi i integers."""
    dx = _principal(xs[:, None, :] - xs[None, :, :])
    same = ((np.abs(dx.real).max(axis=2) < tol)
            & (np.abs(dx.imag).max(axis=2) < tol))
    return bool(np.triu(same, 1).any())
