"""Mirror-side tests: periods, GKZ verification, critical points, spectra.

Only the one-hyperplane period has a simple closed form (a Beta integral).
The other oracles are structural: exact integrand identities (the linear
operator's insertion integrates to zero over any closed cycle), agreement
between exact insertion derivatives and finite differences across q,
puncture formulas, decoupled product instances, and the machine-checkable
mirror statements themselves.
"""

import cmath
import itertools
import time
import warnings
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import critical_oracle
import mpmath
import numpy as np
import pochhammer_oracle
import pytest
from point_ring import ring_at
from test_generated import TU_D2

from hypertoric import connection, mirror, quantum_ring
from hypertoric.arrangement import build_torus_data, vertices
from hypertoric.catalog import (INSTANCES, a_tilde, p1_times_p1, rank8_d2,
                                t_star_p)
from hypertoric.errors import (BranchTrackingFailure, DegenerateModel,
                               IncompleteCriticalSet, ParameterDegeneracy,
                               QuadratureFailure, SingularEvaluation)
from hypertoric.mirror import (QUAD_PANELS, MirrorModel, _base_points,
                               _continue_state, _continued_punctures, _cycles,
                               _join, _period_table, _principal_state, _track,
                               compare_spectra, critical_points, cycle_basis,
                               make_insertion, period, period_frame,
                               transport_consistency, verify_gkz_on_periods)
from hypertoric.quantum_ring import QuantumRing, presentation, ring

HB = Fraction(1, 3)
C1 = [Fraction(1, 5)]
C2 = [Fraction(1, 5), Fraction(1, 7)]
C3 = [Fraction(1, 5), Fraction(1, 7), Fraction(2, 7)]

Q2 = np.array([0.31 + 0.12j, 0.22 - 0.17j])


def seeded_q(n, seed, count=1):
    rng = np.random.default_rng(seed)
    return [(0.15 + 0.45 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
            for _ in range(count)]


def cli_q(n, seed):
    """The first q point `mirror-verify --seed <seed>` draws."""
    rng = np.random.default_rng(seed)
    return (0.15 + 0.3 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def test_punctures_t_star_p1():
    m = MirrorModel(t_star_p(1), HB, C1, Q2)
    pts = m.punctures()
    expected = sorted([-1.0 / Q2[0], -Q2[1]],
                      key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert np.abs(np.array(pts) - np.array(expected)).max() < 1e-12


def test_puncture_collision_degenerate():
    # a_tilde_1 punctures -1/q1, -1/q2 collide when q1 = q2
    with pytest.raises(DegenerateModel):
        MirrorModel(a_tilde(1), HB, C1,
                    np.array([0.3 + 0.1j, 0.3 + 0.1j])).punctures()


def test_model_validation():
    with pytest.raises(DegenerateModel):
        MirrorModel(t_star_p(1), HB, C1, np.array([0.0, 0.3 + 0j]))
    with pytest.raises(DegenerateModel):
        MirrorModel(t_star_p(1), HB, [Fraction(1, 5), Fraction(1, 7)], Q2)


def test_periods_nontrivial_and_closed():
    # each loop's monodromy is checked integral inside
    m = MirrorModel(t_star_p(1), HB, C1, Q2)
    J, _ = period(m, cycle_basis(m))
    assert J.shape == (2,)
    assert np.all(np.abs(J) > 1e-6)


def test_linear_operator_insertion_vanishes():
    # (h sum_i a_i phi_i - c) Omega = d(Omega-potential): exact zero on
    # closed cycles, so the integral must vanish to quadrature precision
    m = MirrorModel(t_star_p(1), HB, C1, Q2)

    def lin(phi):
        return complex(HB) * (phi[0] - phi[1]) - complex(C1[0])

    v, _ = period(m, cycle_basis(m), insertion=lin)
    J, _ = period(m, cycle_basis(m))
    assert np.max(np.abs(v) / np.abs(J)) < 1e-12


@pytest.mark.parametrize("maker", [lambda: t_star_p(1), lambda: a_tilde(2)])
def test_batched_insertions_match_single_calls(maker):
    # one pass with every staircase insertion equals one pass per insertion
    td = maker()
    m = MirrorModel(td, HB, C1, seeded_q(td.n, seed=29)[0])
    inserts = [make_insertion(mono, HB) if any(mono) else None
               for mono in presentation(td).std]
    cycles = cycle_basis(m)
    batch, _ = period(m, cycles, insertion=inserts)
    single = np.array([period(m, cycles, insertion=ins)[0]
                       for ins in inserts]).T
    assert batch.shape == (len(cycles), len(inserts))
    assert np.max(np.abs(batch - single) / np.abs(single)) < 1e-13


@pytest.mark.parametrize("h,c,q", [
    (Fraction(1, 3), Fraction(1, 5), 0.3 + 0.1j),
    (Fraction(2, 7), Fraction(-3, 11), 0.2 - 0.25j),
    (Fraction(5, 3), Fraction(1, 7), -0.4 + 0.05j),
])
def test_one_hyperplane_period_is_a_beta_integral(h, c, q):
    # t = -u/q turns the Pochhammer integral of (1 + q t)^h t^(-c) dt/t
    # into (-q)^c times Pochhammer's integral of u^(-c-1) (1 - u)^h, which
    # is (1 - e^(-2 pi i c)) (1 - e^(2 pi i h)) B(-c, h + 1) up to a phase
    m = MirrorModel(SimpleNamespace(d=1, n=1, a=[[1]]), h, [c], [q])
    (J,), _ = period(m, cycle_basis(m))

    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    exact = (abs(q) ** float(c) * abs(1 - cmath.exp(-2j * cmath.pi * c))
             * abs(1 - cmath.exp(2j * cmath.pi * h))
             * abs(float(mpmath.beta(-mp(c), mp(h) + 1))))
    assert abs(abs(J) - exact) / exact < 1e-12


def test_bisection_depth_and_panel_budget():
    # the insertion sees every bisection level's nodes, 48 per interval;
    # one cycle's pass has 12 pieces, two loops of 6
    m = MirrorModel(t_star_p(1), HB, C1, np.array([0.3 + 0.1j, 0.25 - 0.2j]))
    cycles = cycle_basis(m)[:1]
    levels = []

    def one(phi):
        levels.append(phi.shape[1] // 48)
        return np.ones(phi.shape[1])

    J, _ = period(m, cycles)
    deep, _ = period(m, cycles, insertion=one, tol=1e-16)
    assert len(levels) > 4          # bisected several levels deep
    assert abs(deep[0] - J[0]) / abs(J[0]) < 1e-14
    levels.clear()
    start = time.monotonic()
    with pytest.raises(QuadratureFailure, match="panel budget"):
        period(m, cycles, insertion=one, tol=0)   # never accepts an interval
    assert time.monotonic() - start < 5.0
    assert sum(levels) <= QUAD_PANELS * 12


@pytest.mark.parametrize("overshoot", [0.1, 0.13])
def test_contour_through_puncture_fails(overshoot):
    # a closed contour through a puncture, once with a branch knot on it
    # and once straddling it, has no continuous branch of the logarithms
    m = MirrorModel(t_star_p(1), HB, C1, Q2)
    p = m.punctures()[0]
    # a loop of two segments, p - 0.1 to p + overshoot and back, as piece
    # rows, taken as both loops of a cycle
    ends = np.array([p - 0.1, p + overshoot])
    flat = np.zeros(2)
    loop = (ends, ends[::-1] - ends, flat, flat, flat)
    with pytest.raises(BranchTrackingFailure):
        period(m, [(loop, loop)])


def gkz_monomials(td, q):
    """Every Euler monomial verify_gkz_on_periods inserts at q: those of
    the GKZ symbols and the staircase."""
    r = ring(td)
    return sorted({m for g in r.generators(r.field) for m in g.terms}
                  | set(r.quantum.std))


@pytest.mark.parametrize("name", ["t_star_p1", "a_tilde_2", "a_tilde_3"])
def test_two_loop_periods_match_commutator_oracle(name):
    # one pass over two loops per cycle gives what integrating all 24
    # pieces of each commutator gives, for every insertion of the GKZ check
    td = INSTANCES[name]()
    for q in seeded_q(td.n, seed=37, count=2):
        m = MirrorModel(td, HB, C1, q)
        monos = gkz_monomials(td, m.qn)
        inserts = [make_insertion(mono, HB) if any(mono) else None
                   for mono in monos]
        table, (_, st0) = _period_table(m, monos)
        for g, cycle in enumerate(cycle_basis(m)):
            oracle = pochhammer_oracle.commutator_period(
                m, cycle, inserts, state0=st0[:, g])
            assert np.max(np.abs(table[g] - oracle) / np.abs(oracle)) \
                < 1e-12, (name, g)


@pytest.mark.parametrize("name", ["t_star_p1", "a_tilde_2", "a_tilde_3"])
def test_loop_monodromy_closed_form(name):
    # a loop around a puncture turns one log w_i once: mu = e^{2 pi i h};
    # the loop around t = 0 turns log t once and log w_i by a_i when a_i <
    # 0 (t_star_p1 has a_2 = -1): mu = e^{2 pi i (h sum_{a_i<0} a_i - c)}
    td = INSTANCES[name]()
    m = MirrorModel(td, HB, C1, seeded_q(td.n, seed=43)[0])
    cycles = cycle_basis(m)
    contour, sizes = _join([loop for cycle in cycles for loop in cycle])
    state0 = np.repeat(_principal_state(m, _base_points(cycles)), 2, axis=1)
    *_, mu = _track(m, contour, sizes, state0)
    h, c = complex(HB), complex(C1[0])
    negative = sum(a for a in m.exponents() if a < 0)
    assert abs(mu[0] - cmath.exp(2j * cmath.pi * (h * negative - c))) < 1e-12
    assert np.abs(mu[1:] - cmath.exp(2j * cmath.pi * h)).max() < 1e-12


def test_loop_monodromy_must_be_integral(monkeypatch):
    # a loop whose tracked branch-state change is not 2 pi i times integers
    # has no monodromy factor
    real = mirror._continue_logs

    def drifting(*args):
        K, vals, states = real(*args)
        states = states.copy()
        states[:, -1] += 1e-6j
        return K, vals, states

    monkeypatch.setattr(mirror, "_continue_logs", drifting)
    m = MirrorModel(t_star_p(1), HB, C1, Q2)
    with pytest.raises(BranchTrackingFailure, match="2 pi i times integers"):
        period(m, cycle_basis(m))


# central-difference weights in log q_i for Euler orders 0, 1 and 2
FD_WEIGHTS = {0: {0: 1.0}, 1: {-1: -0.5, 1: 0.5},
              2: {-1: 1.0, 0: -2.0, 1: 1.0}}


def finite_difference(m, index, mono, h):
    """Central difference of order mono in log q of the period over cycle
    index, from independently computed periods at shifted q whose branches
    are continued from m's principal branch."""
    tb = _base_points(cycle_basis(m)[index:index + 1])
    st = _principal_state(m, tb)
    total = 0.0
    for stencil in itertools.product(*(FD_WEIGHTS[o].items() for o in mono)):
        shift = np.array([k for k, _ in stencil], dtype=float)
        ms = MirrorModel(m.td, HB, C1, m.qn * np.exp(h * shift))
        cont = _cycles(_continued_punctures(m, ms.qn))[index:index + 1]
        ts = _base_points(cont)
        (v,), _ = period(ms, cont, state0=_continue_state(m, st, tb, ms, ts))
        total += np.prod([w for _, w in stencil]) * v
    return total / h ** sum(mono)


@pytest.mark.parametrize("mono,h,bound", [
    ((1, 0), 1e-4, 1e-7),
    # second-order differences lose to roundoff at h = 1e-4
    ((0, 1), 1e-3, 1e-5),
    ((2, 0), 1e-3, 1e-5),
    ((1, 1), 1e-3, 1e-5),
], ids=["E1", "E2", "E1E1", "E1E2"])
def test_insertion_derivative_matches_finite_difference(mono, h, bound):
    m = MirrorModel(t_star_p(1), HB, C1, Q2)
    (EJ,), _ = period(m, cycle_basis(m)[:1],
                      insertion=make_insertion(mono, HB))
    fd = finite_difference(m, 0, mono, h)
    assert abs(EJ - fd) / abs(EJ) < bound


def cli_displacement(n, seed):
    """The log q displacement `mirror-verify --seed <seed>` transports its
    first point by."""
    rng = np.random.default_rng(seed + 987)
    return 0.12 * (rng.random(n) - 0.5) + 0.12j * (rng.random(n) - 0.5)


def nearest_neighbour_walk(m, q1, steps):
    """m's punctures followed to q1 along q0 e^{s log(q1/q0)} in `steps`
    equal steps, each puncture in turn taking the nearest unused root of
    the next step.  Every exponent a_i is +-1 here, so the roots at q are
    the -q_i^{-a_i}."""
    a = np.array(m.exponents())
    assert set(np.abs(a)) == {1}
    s = np.arange(1, steps + 1)[:, None] / steps
    roots = -(m.qn * np.exp(s * np.log(q1 / m.qn))) ** -a
    pts = m.punctures()
    for cands in roots.tolist():
        free = list(range(len(cands)))
        for j, p in enumerate(pts):
            best = min(free, key=lambda c: abs(cands[c] - p))
            free.remove(best)
            pts[j] = cands[best]
    return np.array(pts)


@pytest.mark.parametrize("name,seed", [
    *((name, seed) for name in ["t_star_p1", "a_tilde_1", "a_tilde_2",
                                "a_tilde_3"] for seed in range(3)),
    ("a_tilde_3", 61), ("a_tilde_3", 292)])
def test_continued_punctures_are_roots_a_fine_walk_reaches(name, seed):
    # at the CLI's own draws, each puncture continued in closed form to q1
    # is a root there, and the one a 4096-step nearest-neighbour walk
    # reaches; at a_tilde_3 seeds 61 and 292 two punctures sit 0.045 apart
    # and a 2-step walk pairs them the wrong way round
    td = INSTANCES[name]()
    q0 = cli_q(td.n, seed)
    q1 = q0 * np.exp(cli_displacement(td.n, seed))
    m = MirrorModel(td, HB, C1, q0)
    moved = np.array(_continued_punctures(m, q1))
    for t, (_, i) in zip(moved, m._labelled_punctures()):
        assert abs(1.0 + q1[i] * t ** td.a[0][i]) <= 1e-12
    walked = nearest_neighbour_walk(m, q1, 4096)
    assert np.abs(moved - walked).max() <= 1e-12
    if seed in (61, 292):
        assert np.abs(nearest_neighbour_walk(m, q1, 2) - walked).max() > 0.01


# full rank: the periods of the cycles are independent solutions
PERIOD_RANK = {"t_star_p1": 2, "a_tilde_1": 2, "a_tilde_2": 3, "a_tilde_3": 4}


@pytest.mark.parametrize("maker,name", [(lambda: t_star_p(1), "t_star_p1"),
                                        (lambda: a_tilde(1), "a_tilde_1"),
                                        (lambda: a_tilde(2), "a_tilde_2"),
                                        (lambda: a_tilde(3), "a_tilde_3")])
def test_verify_gkz_on_periods(maker, name):
    td = maker()
    rep, _ = verify_gkz_on_periods(td, HB, C1,
                                   seeded_q(td.n, seed=23, count=2))
    assert rep["pass"], rep
    for p in rep["points"]:
        assert p["max_relative_residual"] <= 1e-6
        assert p["period_matrix_rank"] == PERIOD_RANK[name]


def test_verify_gkz_one_period_pass_per_point(monkeypatch):
    # every insertion of every cycle of a q point comes from one pass
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return period(*args, **kwargs)

    monkeypatch.setattr(mirror, "period", counting)
    td = a_tilde(2)
    rep, _ = verify_gkz_on_periods(td, HB, C1, seeded_q(td.n, seed=23,
                                                         count=2))
    assert rep["pass"], rep
    assert len(calls) == len(rep["points"]) == 2
    assert all(len(args[1]) == 3 for args in calls)


def test_verify_gkz_frames_are_period_frames():
    # the staircase columns of the GKZ table are period_frame's frame, so
    # the transport check can take them without a second pass
    td = a_tilde(2)
    qs = seeded_q(td.n, seed=31, count=2)
    _, frames = verify_gkz_on_periods(td, HB, C1, qs)
    for q, (Y, (t0, st0)) in zip(qs, frames):
        Yf, (tf, stf) = period_frame(td, HB, C1, q)
        assert np.array_equal(t0, tf) and np.array_equal(st0, stf)
        assert np.max(np.abs(Y - Yf) / np.abs(Yf)) < 1e-12


def test_verify_gkz_deterministic():
    td = t_star_p(1)
    q = seeded_q(2, seed=9)
    r1, _ = verify_gkz_on_periods(td, HB, C1, q)
    r2, _ = verify_gkz_on_periods(td, HB, C1, q)
    assert r1 == r2


def spectrum(td, cv, q, seed=0):
    """The joint eigenvalues of the A_i(q) that compare_spectra matches."""
    return mirror.joint_eigenvalues(
        ring(td).numeric(HB, cv).matrices_at(q), seed=seed)


def test_critical_points_d1():
    for td, cv in [(t_star_p(1), C1), (a_tilde(2), C1)]:
        q = seeded_q(td.n, seed=31)[0]
        m = MirrorModel(td, HB, cv, q)
        lams = spectrum(td, cv, q)
        cps = critical_points(m, lams)
        assert len(cps) == presentation(td).rank
        for t in cps:
            phi = m.phi(t)
            resid = abs(complex(HB) * sum(td.a[0][i] * phi[i]
                                          for i in range(td.n))
                        - complex(cv[0]))
            assert resid < 1e-10
        # determinism incl. ordering, whatever the order of the rows
        assert cps == critical_points(m, lams)
        assert cps == critical_points(m, lams[::-1])


def test_critical_points_p1xp1_product_structure():
    # the instance decouples into two T*P1 factors, so its critical set is
    # the cartesian product of the factor critical sets
    td = p1_times_p1()
    q = seeded_q(4, seed=41)[0]
    m = MirrorModel(td, HB, C2, q)
    cps = critical_points(m, spectrum(td, C2, q))
    assert len(cps) == 4
    f1 = critical_points(MirrorModel(t_star_p(1), HB, [C2[0]], q[:2]),
                         spectrum(t_star_p(1), [C2[0]], q[:2]))
    f2 = critical_points(MirrorModel(t_star_p(1), HB, [C2[1]], q[2:]),
                         spectrum(t_star_p(1), [C2[1]], q[2:]))
    prod = sorted([(a[0], b[0]) for a in f1 for b in f2],
                  key=lambda t: (round(t[0].real, 9), round(t[0].imag, 9),
                                 round(t[1].real, 9), round(t[1].imag, 9)))
    assert np.abs(np.array(cps) - np.array(prod)).max() < 1e-9


def test_critical_points_unconverged_start_is_reported():
    # an eigenvalue row with phi = 0 gives no start to correct: the failure
    # is reported, not patched up by another search
    td = p1_times_p1()
    q = seeded_q(4, seed=41)[0]
    lams = spectrum(td, C2, q)
    lams[2] = 0.0
    with pytest.raises(IncompleteCriticalSet):
        critical_points(MirrorModel(td, HB, C2, q), lams)


def assert_matches_oracle(td, cv, q, seed=0):
    m = MirrorModel(td, HB, cv, q)
    seeded = np.array(critical_points(m, spectrum(td, cv, q, seed)))
    found = np.array(critical_oracle.critical_points(m))
    assert seeded.shape == found.shape == (len(vertices(td)), td.d)
    assert np.abs(seeded - found).max() <= 1e-10


CV = {1: C1, 2: C2, 3: C3}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_seeded_critical_set_matches_homotopy_oracle(name):
    # every eigenvalue's Newton start reaches a distinct critical point, and
    # together they are the set that the tropical homotopy (or, for d = 1,
    # the companion matrix) finds from scratch
    td = INSTANCES[name]()
    for q in seeded_q(td.n, seed=61, count=3):
        assert_matches_oracle(td, CV[td.d], q)


def test_seeded_critical_set_matches_oracle_at_rank8_cli_points():
    td = rank8_d2()
    cv = [Fraction(1, 5), Fraction(1, 5)]
    for seed in range(40):
        assert_matches_oracle(td, cv, cli_q(td.n, seed), seed)


@pytest.mark.parametrize("a, theta", TU_D2)
def test_seeded_critical_set_matches_oracle_on_graph_instances(a, theta):
    td = build_torus_data(a, theta)
    for q in seeded_q(td.n, seed=67, count=3):
        assert_matches_oracle(td, C2, q)


def test_spectra_scaled_matrix_fails(monkeypatch):
    # A_1 scaled by 1 + 1e-4 is no longer the quantum multiplication: each
    # start still reaches a critical point, and the deviation shows
    exact = mirror.joint_eigenvalues
    monkeypatch.setattr(mirror, "joint_eigenvalues", lambda As, seed=0: exact(
        [np.asarray(As[0]) * (1 + 1e-4)] + list(As[1:]), seed))
    td = rank8_d2()
    rep = compare_spectra(td, HB, C2, seeded_q(td.n, seed=53)[0], tol=1e-6)
    assert rep["pass"] is False
    assert rep["count"] == rep["rank"] == 8
    assert 1e-6 < rep["max_deviation"] < 1e-2


def test_spectra_duplicated_eigenvalue_fails(monkeypatch):
    # two rows of one eigenvalue reach one critical point, which is merged
    exact = mirror.joint_eigenvalues

    def duplicated(As, seed=0):
        lams = exact(As, seed)
        lams[1] = lams[0]
        return lams

    monkeypatch.setattr(mirror, "joint_eigenvalues", duplicated)
    td = p1_times_p1()
    rep = compare_spectra(td, HB, C2, seeded_q(td.n, seed=53)[0], tol=1e-6)
    assert rep["pass"] is False
    assert rep["count"] == 3 < rep["rank"] == 4


@pytest.mark.parametrize("maker,cv,tol", [
    (lambda: t_star_p(1), C1, 1e-8),
    (lambda: a_tilde(3), C1, 1e-8),
    (lambda: p1_times_p1(), C2, 1e-6),
    (lambda: rank8_d2(), C2, 1e-6),
    (lambda: t_star_p(3), C3, 1e-6),
    # equal c: the tropical phi_B of two vertices has an exact zero
    (lambda: t_star_p(2), [Fraction(1, 5), Fraction(1, 5)], 1e-6),
])
def test_spectra_match(maker, cv, tol):
    td = maker()
    q = seeded_q(td.n, seed=53)[0]
    rep = compare_spectra(td, HB, cv, q, seed=5, tol=tol)
    assert rep["pass"], rep
    assert rep["count"] == rep["rank"]


def test_spectra_rank8_cli_points():
    # the CLI's q draws reach tropical scales lam in the thousands (seed 5:
    # lam ~ 2668), where |q|^lam underflows; Newton runs in log q and log t
    td = rank8_d2()
    cv = [Fraction(1, 5), Fraction(1, 5)]
    failed = {}
    for seed in range(40):
        rep = compare_spectra(td, HB, cv, cli_q(td.n, seed), seed=seed,
                              tol=1e-6)
        if not rep["pass"]:
            failed[seed] = rep
    assert not failed, failed


@pytest.mark.parametrize("k,hbar,cv", [
    (40, HB, [Fraction(1, 5), Fraction(1, 5)]),
    (51, HB, [Fraction(1, 5), Fraction(1, 5)]),
    (166, HB, [Fraction(1, 5), Fraction(1, 5)]),
    (25, Fraction(5, 3), C2),
])
def test_spectra_rank8_root_near_mirror_hyperplane(k, hbar, cv):
    # a critical point near {1 + q_i t^{a_i} = 0} has |J| ~ 1e3, and the
    # rounding floor of F there lies above an absolute 1e-13 Newton stop
    rng = np.random.default_rng(1000 + k)
    q = (0.15 + (0.45 - 0.15) * rng.random(5)) * np.exp(
        2j * np.pi * rng.random(5))
    rep = compare_spectra(rank8_d2(), hbar, cv, q, tol=1e-6)
    assert rep["pass"], rep
    assert rep["count"] == 8


def count_groebner_bases(monkeypatch):
    calls = []

    def counting(*args, _run=quantum_ring.buchberger, **kwargs):
        calls.append(1)
        return _run(*args, **kwargs)

    monkeypatch.setattr(quantum_ring, "buchberger", counting)
    return calls


def fresh_rings(monkeypatch):
    """A fresh ring memo for this test, in which nothing is built yet; the
    package-wide one is left intact."""
    monkeypatch.setattr(quantum_ring, "ring", cache(QuantumRing))


def near_wall(td, q, eps):
    """q moved along one coordinate so that |1 - q^S| = eps for the first
    circuit S."""
    c = ring(td).circuits[0]
    i = next(i for i, b in enumerate(c.beta) if abs(b) == 1)
    rest = (-1) ** c.size * np.prod(
        [q[k] ** b for k, b in enumerate(c.beta) if b and k != i])
    q = q.copy()
    q[i] = ((1 + eps) / rest) ** c.beta[i]
    assert abs(quantum_ring.wall_distance([c], q) - eps) < 1e-3 * eps
    return q


@pytest.mark.parametrize("maker,cv", [(p1_times_p1, C2), (rank8_d2, C2)])
def test_spectra_refuse_wall_and_zero_before_groebner(maker, cv, monkeypatch):
    # on a ring that is not built yet: the checks read only its circuits
    fresh_rings(monkeypatch)
    td = maker()
    q = seeded_q(td.n, seed=53)[0]
    calls = count_groebner_bases(monkeypatch)
    with pytest.raises(SingularEvaluation):
        compare_spectra(td, HB, cv, near_wall(td, q, 1e-10))
    zero = q.copy()
    zero[1] = 0
    with pytest.raises(SingularEvaluation):
        compare_spectra(td, HB, cv, zero)
    assert not calls
    assert not quantum_ring.ring(td)._pres


def test_spectra_refuse_staircase_mismatch(monkeypatch):
    # on the wall q1 q2 = 1 the ring at q has 2 standard monomials, not one
    # per vertex (the point-ring oracle shows it); with the wall check
    # lifted, the compiled ring meets that point as a pole of its entries
    td = p1_times_p1()
    q = np.array([2.0, 0.5, 0.3 + 0.1j, 0.2 - 0.4j])    # q1 q2 = 1
    assert quantum_ring.wall_distance(ring(td).circuits, q) == 0
    monkeypatch.setattr(quantum_ring, "WALL_TOL", 0.0)
    with pytest.raises(ParameterDegeneracy,
                       match=r"staircase at q has 2 monomials.*\(4\)"):
        ring_at(ring(td), HB, C2, q)
    with pytest.raises(SingularEvaluation, match="pole"):
        compare_spectra(td, HB, C2, q)


def test_spectra_refuse_an_overflowing_eigenvalue(monkeypatch):
    # an eigenvalue that is not finite ends in the typed error, before any
    # critical point is sought
    td = t_star_p(1)
    monkeypatch.setattr(mirror, "joint_eigenvalues",
                        lambda As, seed=0: np.full((2, 1), np.inf + 0j))
    monkeypatch.setattr(mirror, "critical_points", None)
    with pytest.raises(SingularEvaluation, match="eigenvalue overflows"):
        compare_spectra(td, HB, C1, seeded_q(td.n, seed=53)[0])


def test_joint_eigenvalues_refuse_a_defective_family():
    # a Jordan block has no eigenbasis: every seeded combination's is
    # singular, and the retries end in the typed error
    with pytest.raises(ParameterDegeneracy, match="joint eigenbasis"):
        mirror.joint_eigenvalues([np.array([[1.0, 1.0], [0.0, 1.0]])])


def test_spectra_refuse_zero_hbar(monkeypatch):
    # before any ring is built, and with no numpy warning
    calls = count_groebner_bases(monkeypatch)
    td = rank8_d2()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDegeneracy, match="h = 0"):
            compare_spectra(td, Fraction(0), C2, seeded_q(td.n, seed=53)[0])
    assert not calls


def test_spectra_read_the_compiled_ring(monkeypatch):
    # the eigenvalues are those of the compiled connection's A_i(q), and
    # the quantum presentation is the only one built
    fresh_rings(monkeypatch)
    seen = []

    def joint(As, seed=0, _run=mirror.joint_eigenvalues):
        seen.append(As)
        return _run(As, seed=seed)

    monkeypatch.setattr(mirror, "joint_eigenvalues", joint)
    td = rank8_d2()
    q = seeded_q(td.n, seed=53)[0]
    rep = compare_spectra(td, HB, C2, q, tol=1e-6)
    assert rep["pass"] and rep["rank"] == 8
    r = quantum_ring.ring(td)
    assert np.array_equal(seen[0], r.numeric(HB, C2).matrices_at(q))
    assert list(r._pres) == ["quantum"]


def test_point_ring_is_one_buchberger_run(monkeypatch):
    # every point of an instance is served by one Buchberger run over
    # Q(h, c, q) and one compile; no ring is built at a point
    fresh_rings(monkeypatch)
    calls = count_groebner_bases(monkeypatch)
    compiled = []

    def counting(self, *args, _init=connection.NumericConnection.__init__):
        compiled.append(1)
        _init(self, *args)

    monkeypatch.setattr(connection.NumericConnection, "__init__", counting)
    td = rank8_d2()
    for seed in range(1, 7):
        assert compare_spectra(td, HB, C2, seeded_q(5, seed)[0])["pass"]
    assert len(calls) == 1 and len(compiled) == 1


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_gtilde_is_the_identity(name):
    # G~ by its definition as the oracle: columns nabla^m e_0 peeled along
    # the staircase from the unit section, compiled to one table and
    # evaluated; it is exactly the identity, which is why the transport
    # check needs no change of frame
    td = INSTANCES[name]()
    cv = [Fraction(1, p) for p in (5, 7, 11, 13)[:td.d]]
    fam = ring(td).family
    std = fam.pres.std
    secs = {(0,) * td.n: fam.unit_section()}
    for m in sorted(std, key=sum)[1:]:
        i = next(i for i in range(td.n) if m[i])
        secs[m] = fam.nabla(i, secs[tuple(x - (k == i)
                                          for k, x in enumerate(m))])
    nc = ring(td).numeric(HB, cv)
    table = connection.CompiledFractions(
        fam.field, td.iota, [x for m in std for x in secs[m]], nc.hbar,
        nc.cvals)
    rng = np.random.default_rng(41)
    points = []
    while len(points) < 3:
        q = (0.15 + 0.5 * rng.random(td.n)) * np.exp(
            2j * np.pi * rng.random(td.n))
        if quantum_ring.wall_distance(nc.circuits, q) > 0.1:
            points.append(q)
    for q in points:
        G = table.at(np.log(q)).reshape(len(std), len(std)).T
        assert np.array_equal(G, np.eye(len(std))), (name, q)
        assert np.array_equal(mirror.gtilde_matrix(td, HB, cv, q), G)


def test_transport_consistency(monkeypatch):
    # the period matrix is the frame: no nabla chain, no G~
    def refuse(*args):
        raise AssertionError("transport_consistency changed frame")

    monkeypatch.setattr(connection.ConnectionFamily, "nabla", refuse)
    monkeypatch.setattr(mirror, "gtilde_matrix", refuse)
    q0 = Q2
    q1 = Q2 * np.exp(np.array([0.09 - 0.05j, -0.06 + 0.08j]))
    rep = transport_consistency(t_star_p(1), HB, C1, q0, q1)
    assert rep["pass"], rep
    assert rep["max_relative_deviation"] < 1e-6


def test_transport_consistency_across_branch_cut():
    # q_2 crosses the negative real axis, the branch cut of the principal
    # log; periods must be continued along the same path as the transport
    q0 = np.array([-0.1 - 0.417j, -0.304 - 0.004j])
    q1 = q0 * np.exp(np.array([-0.005 - 0.03j, 0.002 - 0.05j]))
    rep = transport_consistency(t_star_p(1), HB, C1, q0, q1)
    assert rep["pass"], rep
    assert rep["max_relative_deviation"] < 1e-6
