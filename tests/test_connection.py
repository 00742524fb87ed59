"""Quantum connection / GKZ operator tests.

The exact checks (flatness, unit annihilation) hold on every instance whose
staircase consists of squarefree circuit-free monomials; rank8_d2 forces a
square into any staircase (1+3+4 degree profile in 3 free variables) and its
squared classes pick up q-dependent corrections, so the presentation frame
is not flat there.  That behavior is pinned, not hidden.
"""

import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from compile_oracle import fraction_numerators
from fraction_oracle import sympy_field, to_sympy, to_sympy_matrix
from point_ring import ring_at
from test_generated import K4

import hypertoric
from hypertoric.arrangement import build_torus_data
from hypertoric.bisection import bisect
from hypertoric.catalog import INSTANCES, t_star_p
from hypertoric.connection import (CompiledFractions, ConnectionFamily,
                                   GkzCircuit, GkzLinear,
                                   NumericConnection, QPath,
                                   flatness_residual, gkz_annihilates_unit,
                                   gkz_symbol, gkz_system, symbol_check,
                                   TRANSPORT_DEPTH, TRANSPORT_NODES,
                                   TRANSPORT_PANELS,
                                   propagator, transport, transport_matrix)
from hypertoric.errors import HypertoricError, SingularEvaluation, StepFailure
from hypertoric.quantum_ring import presentation, ring, wall_distance

FLAT_INSTANCES = ["t_star_p1", "a_tilde_1", "a_tilde_2", "p1_times_p1",
                  "t_star_p2", "a_tilde_3"]

HB = Fraction(1, 3)


def family(name):
    return ConnectionFamily(presentation(INSTANCES[name]()))


def cvals(td):
    # same generic choice used throughout: c_j = 1/5, 1/7, ...
    primes = [5, 7, 11, 13]
    return [Fraction(1, primes[j]) for j in range(td.d)]


def off_wall_points(nc, count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        mod = 0.15 + 0.5 * rng.random(nc.td.n)
        q = mod * np.exp(2j * np.pi * rng.random(nc.td.n))
        if wall_distance(nc.circuits, q) > 0.1:
            pts.append(q)
    return pts


@pytest.mark.parametrize("name", FLAT_INSTANCES)
def test_flatness_exact(name):
    assert family(name).flatness_exact()


def test_rank8_frame_obstruction():
    # the presentation frame is not flat for rank8_d2 (squares in the
    # staircase); commutativity is frame independent and still exact
    fam = family("rank8_d2")
    assert not fam.flatness_exact()
    assert not gkz_annihilates_unit(fam)
    std = fam.pres.std
    assert any(max(e) >= 2 for e in std)


@pytest.mark.parametrize("name", list(INSTANCES))
def test_symbol_check(name):
    assert symbol_check(presentation(INSTANCES[name]()))["pass"]


@pytest.mark.parametrize("name", FLAT_INSTANCES)
def test_gkz_annihilates_unit(name):
    assert gkz_annihilates_unit(family(name))


def test_gkz_system_shape():
    td = INSTANCES["rank8_d2"]()
    ops = gkz_system(td)
    linear = [op for op in ops if isinstance(op, GkzLinear)]
    circ = [op for op in ops if isinstance(op, GkzCircuit)]
    assert len(linear) == td.d
    assert len(circ) == 6
    pres = presentation(td)
    for op in ops:
        assert gkz_symbol(op, pres) in pres.generators


@pytest.mark.parametrize("name", ["t_star_p1", "p1_times_p1"])
def test_flatness_residual_numeric(name):
    fam = family(name)
    cv = cvals(fam.td)
    nc = NumericConnection(fam, HB, cv)
    pts = off_wall_points(nc, 5, seed=11)
    assert flatness_residual(fam, HB, cv, pts) < 1e-12


def sympy_euler(fam, i, x):
    """E_i x = sum_l iota_il q_l d/dq_l x by sympy's diff, which cancels,
    on the WallElement x converted to sympy's field."""
    fr = to_sympy(x)
    S = sympy_field(fam.td.d, fam.td.k)
    out = S.zero
    for l, w in enumerate(fam.td.iota[i]):
        if w:
            out = out + S.from_rational(w) * fr.diff(S.q[l]) * S.q[l]
    return out


@pytest.mark.parametrize("name", [n for n in INSTANCES if n != "rank8_d2"])
def test_euler_derivative_matches_sympy_diff(name):
    # E_i A_j formed in the WallRing, on every entry
    fam = family(name)
    n = fam.td.n
    for i in range(n):
        for j in range(n):
            assert to_sympy_matrix(fam.euler_matrix(i, j)) == [
                [sympy_euler(fam, i, x) for x in row]
                for row in fam.matrices[j]], (i, j)


def test_euler_derivative_matches_sympy_diff_rank8():
    fam = family("rank8_d2")
    rnd = random.Random("euler-rank8")
    n, r = fam.td.n, fam.rank
    for _ in range(40):
        i, j = rnd.randrange(n), rnd.randrange(n)
        a, b = rnd.randrange(r), rnd.randrange(r)
        assert to_sympy(fam.euler_scalar(fam.matrices[j][a][b], i)) == \
            sympy_euler(fam, i, fam.matrices[j][a][b]), (i, j, a, b)


@pytest.mark.parametrize("name", ["a_tilde_3", "rank8_d2"])
def test_compiled_euler_derivative_matches_symbolic(name):
    # E_i A_j read off the exponent table of the compiled A_j equals the
    # symbolic fam.euler_matrix(i, j), compiled the same way;
    # iota is not a coordinate projection here and k >= 2
    fam = family(name)
    td, r = fam.td, fam.rank
    cv = cvals(td)
    nc = NumericConnection(fam, HB, cv)
    assert td.k >= 2 and any(sum(map(abs, row)) > 1 for row in td.iota)
    want = {(i, j): CompiledFractions(
                fam.field, td.iota,
                [x for row in fam.euler_matrix(i, j) for x in row], HB, cv)
            for i in range(td.n) for j in range(td.n)}
    for qn in off_wall_points(nc, 3, seed=29):
        logq = np.log(qn)
        got = nc.compiled.euler_at(logq)[1].reshape(td.n, td.n, r, r)
        for i in range(td.n):
            for j in range(td.n):
                exact = want[i, j].at(logq).reshape(r, r)
                assert (np.abs(got[i, j] - exact).max()
                        <= 1e-12 * np.abs(exact).max()), (qn, i, j)


WIDE = {"k4": K4, "ones_6": ([[1] * 6], [5, 4, 3, 2, 1, 0])}


@pytest.mark.parametrize("name", [*INSTANCES, *WIDE])
def test_compiled_numerators_match_fraction_path(name):
    # N, formed in int arithmetic, is bit for bit complex(Fraction) of each
    # coefficient the Fraction path forms (compile_oracle.py): for the
    # entries of the A_i, the GKZ relations' coefficients and some of both
    # over h^3 (h divides the denominators of Steinberg operators), at an
    # integer h and at denominators whose powers pass 2^53
    td = INSTANCES[name]() if name in INSTANCES else build_torus_data(
        *WIDE[name])
    r = ring(td)
    entries = [x for M in r.family.matrices for row in M for x in row]
    coeffs = [x for g in r.generators(r.field) for x in g.terms.values()]
    fracs = entries + coeffs + [x / r.field.h ** 3
                                for x in coeffs + entries[:40]]
    for hbar, c in ((HB, Fraction(1, 5)), (Fraction(2), Fraction(-3, 4)),
                    (Fraction(-355, 113), Fraction(997, 1009))):
        cv = [c] * td.d
        got = CompiledFractions(r.field, td.iota, fracs, hbar, cv).N
        assert np.array_equal(got, fraction_numerators(r.field, fracs,
                                                       hbar, cv)), hbar


def t_star_p1_matrices(q1, q2, h=1 / 3, c=1 / 5):
    """The closed-form A_1, A_2 of T*P1 at (q1, q2), as nested lists, in
    whatever scalar type q1, q2, h and c have: with q = q1 q2,
    A_1 = [[0, q h (h+c) / (1-q)], [1, (c - 2 q h - q c)/(1-q)]] and
    A_2 = A_1 - c (linear relation a = (1, -1), u_1 - u_2 = c)."""
    q = q1 * q2
    A1 = [[0, q * h * (h + c) / (1 - q)],
          [1, (c - 2 * q * h - q * c) / (1 - q)]]
    A2 = [[A1[0][0] - c, A1[0][1]], [A1[1][0], A1[1][1] - c]]
    return A1, A2


def test_numeric_matrix_oracle():
    fam = family("t_star_p1")
    nc = NumericConnection(fam, HB, [Fraction(1, 5)])
    q0 = np.array([0.3 + 0.1j, 0.25 - 0.2j])
    A1, A2 = (np.array(A) for A in t_star_p1_matrices(*q0))
    got = nc.matrices_at(q0)
    assert np.abs(got[0] - A1).max() < 1e-13
    assert np.abs(got[1] - A2).max() < 1e-13


@pytest.mark.parametrize("name", ["rank8_d2", "t_star_p1"])
def test_matrices_near_a_wall_match_the_exact_ring(name):
    # q is moved along one coordinate to |1 - q^S| = eps, down to just
    # outside WALL_TOL, for the circuit S of highest pole order (a double
    # pole on rank8_d2).  The A_i from log q match the exact ring at the
    # same float point to 1e-14 / eps relative, and nothing is refused
    td = INSTANCES[name]()
    r = ring(td)
    cv = cvals(td)
    nc = r.numeric(HB, cv)
    F = r.family.field
    entries = [x for M in r.family.matrices for row in M for x in row]

    def order(c):
        w = F.wall_index((-1) ** c.size, c.beta_k)
        return max(x.exps[w] for x in entries)

    c = max(r.circuits, key=order)
    assert order(c) == (2 if name == "rank8_d2" else 1)
    i = next(i for i, b in enumerate(c.beta) if abs(b) == 1)
    rng = np.random.default_rng(23)
    q = (0.15 + 0.3 * rng.random(td.n)) * np.exp(2j * np.pi * rng.random(td.n))
    rest = (-1) ** c.size * np.prod(
        [q[k] ** b for k, b in enumerate(c.beta) if b and k != i])
    for eps in (1e-4, 1e-6, 1e-7, 2e-8):
        q[i] = ((1 + eps * np.exp(0.7j)) / rest) ** c.beta[i]
        assert abs(wall_distance([c], q) - eps) < 1e-6 * eps
        pres = ring_at(r, HB, cv, q)
        got = nc.matrices_at(q)
        for k in range(td.n):
            want = np.array([[pres.field.to_complex(x) for x in row]
                             for row in pres.multiplication_matrix(k)])
            assert (np.abs(got[k] - want).max()
                    <= 1e-14 / eps * np.abs(want).max()), (eps, k)


def test_transport_matches_mpmath_odefun():
    # the transported frame itself, on one T*P1 segment, against mpmath's
    # Taylor-series integrator applied to the closed-form A_1, A_2 along
    # q(s) = q_a exp(s delta): dv/ds = -(delta_1 A_1 + delta_2 A_2) v
    mpmath = pytest.importorskip("mpmath")
    nc = NumericConnection(family("t_star_p1"), HB, [Fraction(1, 5)])
    q0 = np.array([0.3 + 0.1j, 0.25 - 0.2j])
    q1 = np.array([0.35 - 0.05j, 0.2 + 0.15j])
    Phi = transport_matrix(nc, QPath([q0, q1]))
    with mpmath.workdps(20):
        qa = [mpmath.mpc(x) for x in q0]
        delta = [mpmath.mpc(x) for x in np.log(q1 / q0)]
        h, c = mpmath.mpf(1) / 3, mpmath.mpf(1) / 5

        def rhs(s, y):
            A1, A2 = t_star_p1_matrices(
                *(a * mpmath.exp(s * d) for a, d in zip(qa, delta)), h, c)
            # y holds the two columns of the frame, one after the other
            return [-sum((delta[0] * A1[i][k] + delta[1] * A2[i][k])
                         * y[2 * col + k] for k in range(2))
                    for col in range(2) for i in range(2)]

        y = mpmath.odefun(rhs, 0, [1, 0, 0, 1])(1)
        want = np.array([[complex(y[0]), complex(y[2])],
                         [complex(y[1]), complex(y[3])]])
    assert np.abs(want - np.eye(2)).max() > 0.1
    assert np.abs(Phi - want).max() <= 1e-10 * np.abs(want).max()


def test_monodromy_negative_control(monkeypatch):
    # loop around q_1 = 0: holonomy conjugate to exp(-2 pi i A_1(0));
    # spectrum {1, e^{-2 pi i c}} with c = 1/5, visibly nontrivial
    fam = family("t_star_p1")
    nc = NumericConnection(fam, HB, [Fraction(1, 5)])
    q0 = np.array([0.3 + 0.1j, 0.25 - 0.2j])
    calls, levels = [], []
    matrices_at = nc.matrices_at
    monkeypatch.setattr(nc, "matrices_at",
                        lambda q: calls.append(len(q)) or matrices_at(q))
    collocate = hypertoric.connection._collocate
    monkeypatch.setattr(hypertoric.connection, "_collocate",
                        lambda M, s0, h, r: levels.append(
                            len(s0) * TRANSPORT_NODES)
                        or collocate(M, s0, h, r))
    M = transport_matrix(nc, QPath.circle(q0, 0, turns=1))
    # one call per bisection level of each of the 8 segments, with all of
    # the level's nodes: TRANSPORT_NODES per rule, 3 rules per interval
    assert calls == levels
    assert len(calls) >= 8 and sum(calls) < 388
    ev = sorted(np.linalg.eigvals(M), key=lambda z: z.imag)
    expected = sorted([1.0, np.exp(-2j * np.pi / 5)], key=lambda z: z.imag)
    assert np.abs(np.array(ev) - np.array(expected)).max() < 1e-9
    assert abs(ev[0] - 1) > 0.5  # genuinely non-identity holonomy


def test_transport_round_trip():
    fam = family("a_tilde_2")
    nc = NumericConnection(fam, HB, [Fraction(1, 5)])
    q0 = np.array([0.2 + 0.1j, 0.3 - 0.1j, 0.15 + 0.25j])
    q1 = np.array([0.35 - 0.05j, 0.1 + 0.2j, 0.3 + 0.1j])
    v0 = np.array([1.0, 0.5 - 0.25j, -0.75j])
    fwd = QPath([q0, q1])
    back = QPath([q1, q0])
    v1 = transport(nc, fwd, v0)
    v2 = transport(nc, back, v1)
    assert np.abs(v2 - v0).max() < 1e-8
    # matrix transport consistent with vector transport
    M = transport_matrix(nc, fwd)
    assert np.abs(M @ v0 - v1).max() < 1e-8


def test_wall_guard():
    fam = family("t_star_p1")
    nc = NumericConnection(fam, HB, [Fraction(1, 5)])
    with pytest.raises(SingularEvaluation):
        nc.matrices_at(np.array([2.0 + 0j, 0.5 + 0j]))  # q1 q2 = 1, on the wall
    path = QPath([np.array([0.5 + 0j, 0.5 + 0j]),
                  np.array([2.0 + 0j, 0.5 + 0j])])
    with pytest.raises(SingularEvaluation):
        transport(nc, path, np.array([1.0 + 0j, 0.0 + 0j]))


def test_overflowing_q_is_a_typed_failure():
    # where q^k overflows the compiled table evaluates to NaN, and NaN
    # passes every comparison: rank8_d2's flatness residual would read 0.0
    # for a connection that is not flat there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nc = NumericConnection(family("t_star_p1"), HB, [Fraction(1, 5)])
        with pytest.raises(SingularEvaluation):
            nc.matrices_at(np.array([-1.24e299 + 9.92e299j,
                                     9.67e149 + 2.55e149j]))
        fam = family("rank8_d2")
        q = 1e300 * np.exp(2j * np.pi * np.random.default_rng(0).random(5))
        with pytest.raises(SingularEvaluation):
            flatness_residual(fam, HB, cvals(fam.td), [q])


def test_qpath_geometry():
    q0 = np.array([0.3 + 0.1j, 0.2 - 0.2j])
    q1 = np.array([0.1 - 0.3j, 0.4 + 0.1j])
    p = QPath([q0, q1])
    assert np.abs(p.at(0.0)[0] - q0).max() < 1e-15
    assert np.abs(p.at(1.0)[0] - q1).max() < 1e-15
    loop = QPath.circle(q0, 1, turns=2)
    assert np.abs(loop.at(0.0)[0] - loop.at(1.0)[0]).max() < 1e-12
    # circle keeps the modulus of the moving coordinate fixed
    for s in np.linspace(0, 1, 23):
        q, _ = loop.at(s)
        assert abs(abs(q[1]) - abs(q0[1])) < 1e-12
        assert abs(q[0] - q0[0]) < 1e-15


def test_transport_deterministic():
    fam = family("t_star_p1")
    nc = NumericConnection(fam, HB, [Fraction(1, 5)])
    q0 = np.array([0.3 + 0.1j, 0.25 - 0.2j])
    loop = QPath.circle(q0, 0, turns=1)
    M1 = transport_matrix(nc, loop)
    M2 = transport_matrix(nc, loop)
    assert np.array_equal(M1, M2)


def test_propagator_matches_closed_form():
    # dv/ds = Lam v, Lam complex diagonal: v(1) = exp(Lam) v(0), for a
    # vector and for a frame
    lam = np.array([0.5 + 2j, -1.0 + 0.3j, 1.5 - 3j, 0.2j])
    P = propagator(lambda s: np.broadcast_to(np.diag(lam), (len(s), 4, 4)), 4)
    for v0 in (np.array([1.0, 0.5 - 0.25j, -0.75j, 2.0]), np.eye(4)):
        exact = (np.exp(lam)[:, None] * v0.reshape(4, -1)).reshape(v0.shape)
        assert np.abs(P @ v0 - exact).max() < 1e-12


def test_propagator_pole_is_a_typed_failure():
    # M has a pole at s = 0.3: the intervals around it never pass, and
    # bisection stops at its panel budget or its depth cap, with no numpy
    # warning on the way
    lam = np.diag([0.5 + 2j, -0.25j])
    widths = []

    def M(s):
        widths.extend(np.ptp(s.reshape(-1, 8), axis=1))
        return lam / (s - 0.3)[:, None, None]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure) as info:
            propagator(M, 2)
    assert isinstance(info.value, HypertoricError)
    # three rules of 8 nodes per interval; no level ran past the depth cap
    assert len(widths) <= 3 * TRANSPORT_PANELS
    assert min(widths) > 0.5 ** (TRANSPORT_DEPTH + 2)


def test_propagator_overflow_is_a_typed_failure():
    # an M that overflowed (here NaN everywhere; matrices_at itself raises
    # SingularEvaluation where q^k overflows) stops the first level, not
    # the depth cap
    calls = []

    def M(s):
        calls.append(len(s))
        return np.full((len(s), 2, 2), np.nan + 0j)

    with pytest.raises(StepFailure):
        propagator(M, 2)
    assert calls == [24]


def test_propagator_panel_budget():
    # an M that is new noise at every call never lets an interval pass:
    # bisection stops at its panel budget, long before its depth cap
    rng = np.random.default_rng(1)
    intervals = []

    def M(s):
        intervals.append(len(s) // 24)
        return rng.standard_normal((len(s), 2, 2)) + 0j

    with pytest.raises(StepFailure, match="budget"):
        propagator(M, 2)
    assert sum(intervals) <= TRANSPORT_PANELS
    assert len(intervals) < TRANSPORT_DEPTH


def test_bisection_depth_exhausted():
    # halves that never agree, within the panel budget: bisection stops
    # after level `depth` with intervals still open, at the left end
    levels = []

    def evaluate(rows, s0, h):
        levels.append(len(rows))
        return np.zeros(len(rows)), np.ones(len(rows))

    with pytest.raises(StepFailure, match="depth exhausted at s = 0.0"):
        bisect(evaluate, np.zeros(1, dtype=int), 1e-9, 3, 1000, StepFailure)
    assert levels == [1, 2, 4, 8]


def test_collocation_solve_reads_alike_on_numpy_1_and_2(monkeypatch):
    # numpy 1.x reads a right-hand side with one axis fewer than the
    # matrices as a stack of vectors, numpy 2 as one matrix: the batched
    # collocation solve must pass one with as many axes as the matrices
    solve = np.linalg.solve

    def strict(a, b):
        assert np.ndim(b) == np.ndim(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", strict)
    lam = np.array([0.5 + 2j, -0.25j])
    P = propagator(lambda s: np.broadcast_to(np.diag(lam), (len(s), 2, 2)), 2)
    assert np.abs(P - np.diag(np.exp(lam))).max() < 1e-12


def test_transport_near_a_wall_matches_a_detour():
    # q1 q2 runs from 0.5 to 2 at angle 1e-6 off the real axis, so the
    # segment passes the wall q1 q2 = 1 at distance 1e-6 and A_1, A_2 have
    # a near-pole of width about 1e-6 in sigma.  The connection is flat, so
    # a detour through q1 = e^{i/2}, on the same side of the wall, gives
    # the same transport
    nc = NumericConnection(family("t_star_p1"), HB, [Fraction(1, 5)])
    qa, qb = (np.array([x * np.exp(1e-6j), 1.0]) for x in (0.5, 2.0))
    near = transport_matrix(nc, QPath([qa, qb]))
    far = transport_matrix(nc, QPath([qa, np.array([np.exp(0.5j), 1.0]), qb]))
    assert np.abs(near - far).max() <= 1e-10 * np.abs(far).max()


def fresh_interpreter_modules(code):
    """What the fresh interpreter running code, with this package on its
    path, prints."""
    src = str(Path(hypertoric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_no_scipy_import():
    # a fresh interpreter that imports the package loads no scipy module
    code = ("import sys, hypertoric, hypertoric.cli, hypertoric.mirror, "
            "hypertoric.connection\n"
            "print([m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])")
    assert fresh_interpreter_modules(code) == "[]"


def test_no_sympy_import():
    # a fresh interpreter that imports every module of the package loads
    # neither sympy nor mpmath
    pkg = Path(hypertoric.__file__).parent
    mods = sorted(p.stem for p in pkg.glob("*.py") if p.stem != "__init__")
    assert "params" in mods and "quantum_ring" in mods
    code = ("import sys, importlib\n"
            f"for m in {mods!r}:\n"
            "    importlib.import_module('hypertoric.' + m)\n"
            "print([m for m in sys.modules "
            "if m.startswith(('sympy', 'mpmath'))])")
    assert fresh_interpreter_modules(code) == "[]"
