"""Quantum connection / GKZ operator tests.

The exact checks (flatness, unit annihilation) hold on every instance whose
staircase consists of squarefree circuit-free monomials; rank8_d2 forces a
square into any staircase (1+3+4 degree profile in 3 free variables) and its
squared classes pick up q-dependent corrections, so the presentation frame
is not flat there.  That behavior is pinned, not hidden.
"""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hypertoric
from hypertoric.catalog import INSTANCES, t_star_p
from hypertoric.connection import (CompiledFractions, ConnectionFamily,
                                   GkzCircuit, GkzLinear,
                                   NumericConnection, QPath,
                                   flatness_residual, gkz_annihilates_unit,
                                   gkz_symbol, gkz_system, symbol_check,
                                   transport, transport_matrix, _dop853)
from hypertoric.errors import HypertoricError, SingularEvaluation, StepFailure
from hypertoric.quantum_ring import presentation

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
        if nc.wall_distance(q) > 0.1:
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


@pytest.mark.parametrize("name", ["a_tilde_3", "rank8_d2"])
def test_compiled_euler_derivative_matches_symbolic(name):
    # E_i A_j read off the exponent table of the compiled A_j equals the
    # symbolic fam.euler_matrix(i, j) (sympy diff), compiled the same way;
    # iota is not a coordinate projection here and k >= 2
    fam = family(name)
    td, r = fam.td, fam.rank
    cv = cvals(td)
    nc = NumericConnection(fam, HB, cv)
    assert td.k >= 2 and any(sum(map(abs, row)) > 1 for row in td.iota)
    want = {(i, j): CompiledFractions(
                fam.field, [x for row in fam.euler_matrix(i, j) for x in row],
                HB, cv)
            for i in range(td.n) for j in range(td.n)}
    for qn in off_wall_points(nc, 3, seed=29):
        qk = nc.qk_of(qn)
        for i, w in enumerate(td.iota):
            got = nc.compiled.euler_at(qk, w).reshape(td.n, r, r)
            for j in range(td.n):
                exact = want[i, j].at(qk).reshape(r, r)
                assert (np.abs(got[j] - exact).max()
                        <= 1e-12 * np.abs(exact).max()), (qn, i, j)


def test_numeric_matrix_oracle():
    # T*P1: A_1 = [[0, q h (h+c) / (1-q)], [1, (c - 2 q h - q c)/(1-q)]]
    fam = family("t_star_p1")
    nc = NumericConnection(fam, HB, [Fraction(1, 5)])
    q0 = np.array([0.3 + 0.1j, 0.25 - 0.2j])
    q = q0[0] * q0[1]
    h, c = 1 / 3, 1 / 5
    A1 = np.array([[0, q * h * (h + c) / (1 - q)],
                   [1, (c - 2 * q * h - q * c) / (1 - q)]])
    got = nc.matrices_at(q0)
    assert np.abs(got[0] - A1).max() < 1e-13
    # A_2 = A_1 - c (linear relation a = (1, -1), u_1 - u_2 = c)
    A2 = A1 - c * np.eye(2)
    assert np.abs(got[1] - A2).max() < 1e-13


def test_monodromy_negative_control():
    # loop around q_1 = 0: holonomy conjugate to exp(-2 pi i A_1(0));
    # spectrum {1, e^{-2 pi i c}} with c = 1/5, visibly nontrivial
    fam = family("t_star_p1")
    nc = NumericConnection(fam, HB, [Fraction(1, 5)])
    q0 = np.array([0.3 + 0.1j, 0.25 - 0.2j])
    M = transport_matrix(nc, QPath.circle(q0, 0, turns=1))
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


def test_dop853_matches_closed_form():
    # dy/ds = Lam y, Lam complex diagonal: y(1) = exp(Lam) y(0), at the
    # default tolerances of transport, for a vector and for a frame
    lam = np.array([0.5 + 2j, -1.0 + 0.3j, 1.5 - 3j, 0.2j])
    for y0 in (np.array([1.0, 0.5 - 0.25j, -0.75j, 2.0]), np.eye(4)):
        y0 = y0.astype(complex)
        calls = []

        def rhs(s, y):
            calls.append(s)
            return (lam[:, None] * y.reshape(4, -1)).reshape(-1)

        y1 = _dop853(rhs, y0.reshape(-1), 1e-10, 1e-12).reshape(y0.shape)
        exact = (np.exp(lam)[:, None] * y0.reshape(4, -1)).reshape(y0.shape)
        assert np.abs(y1 - exact).max() < 1e-9
        # the start (2 evaluations) and at most 15 steps of 12
        assert len(calls) <= 2 + 12 * 15


def test_dop853_blow_up_is_a_typed_failure():
    # y' = y^2, y(0) = 10 blows up at s = 1/10: the step shrinks to the
    # floor there, with no numpy warning on the way
    calls = []

    def rhs(s, y):
        calls.append(s)
        return y * y

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure) as info:
            _dop853(rhs, np.array([10.0 + 0j]), 1e-10, 1e-12)
    assert isinstance(info.value, HypertoricError)
    assert len(calls) < 20000
    assert 0.0999 < max(calls) < 0.1001


def test_no_scipy_import():
    # a fresh interpreter that imports the package loads no scipy module
    src = str(Path(hypertoric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hypertoric, hypertoric.cli, hypertoric.mirror, "
            "hypertoric.connection\n"
            "print([m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
