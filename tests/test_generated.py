"""Generated instances checked against oracles that need no symbolic ring,
and symbolic rings checked against the fraction-field oracle.

Smooth d = 1 instances: the ring at a point has one standard monomial per
vertex, equals the one over sympy's QQ_I, and its multiplication matrices
commute and satisfy the linear relations sum_i a_ji A_i = c_j, exactly
over Q(i).  Their symbolic quantum
and classical rings, built in the WallRing, equal the fraction-field ones
term for term and have the staircase of the ring at a point; so do those
of a few fixed totally unimodular d = 2 instances.  Every multiplication
matrix read off a reduced basis equals one normal form per column.
Building them raises no OutsideLocalization, and the divisor formula and
the Steinberg identities hold on them exactly, except on the one d = 2
instance whose staircase frame is not flat.  K4, a d = 3 graph instance,
passes the spectra check and has a staircase frame that is not flat.  Small integer matrices up to d = 2: the unimodular
and surjective verdicts agree with determinants computed by permutation
expansion.  Seeded integer data up to d = 3, n = 6, unimodular or not,
simple or not: the circuits, simplicity and vertex positions read off
Hermite forms equal those of the rational route (matroid_oracle), and
both refuse the same stability data as lying on a wall."""

import random
from fractions import Fraction
from itertools import combinations

import matroid_oracle
import numpy as np
import pytest
from det_oracle import det, maximal_minors_gcd
from fraction_oracle import assert_matches_fraction_field
from normal_form_oracle import assert_columns_match_normal_forms
from point_oracle import QQIPointField, assert_matches_point_oracle
from point_ring import PointField, ring_at
from hypothesis import assume, given, settings, strategies as st

from hypertoric.arrangement import (build_torus_data, classify,
                                    enumerate_circuits, vertices)
from hypertoric.connection import gkz_annihilates_unit
from hypertoric.errors import (InconsistentExtraction, NonGenericStability,
                               PoleOrderError, RankDeficient)
from hypertoric.mirror import compare_spectra
from hypertoric.quantum_ring import (extract_steinberg, ring,
                                     verify_divisor_formula,
                                     verify_steinberg_identities)

H, C = Fraction(1, 3), Fraction(1, 5)


@st.composite
def smooth_d1(draw, max_n=5):
    """Rows of +-1 on 2..max_n hyperplanes with a generic theta_hat (distinct
    points -theta_i / a_i on the line, which is what smooth means here)."""
    n = draw(st.integers(2, max_n))
    row = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    theta = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    td = build_torus_data([row], theta)
    assume(classify(td)["smooth"])
    return td


def unimodular_oracle(td):
    """Every nonsingular d x d minor of a is +-1."""
    for S in combinations(range(td.n), td.d):
        D = det([[row[i] for i in S] for row in td.a])
        if D and abs(D) != 1:
            return False
    return True


def matmul(A, B):
    return [[sum((x * y for x, y in zip(row, col)), PointField.zero)
             for col in zip(*B)] for row in A]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(td=smooth_d1(), seed=st.integers(0, 2**32 - 1))
def test_generated_d1_ring_at_point(td, seed):
    rng = np.random.default_rng(seed)
    q = (0.15 + 0.3 * rng.random(td.n)) * np.exp(2j * np.pi * rng.random(td.n))
    assert classify(td)["unimodular"] == unimodular_oracle(td)
    pres = ring_at(ring(td), H, [C], q)
    assert pres.rank == len(vertices(td))
    assert_matches_point_oracle(ring(td), pres, QQIPointField.at(td, H, [C], q))
    assert_columns_match_normal_forms(pres)
    A = [pres.multiplication_matrix(i) for i in range(td.n)]
    for i in range(td.n):
        for j in range(i):
            assert matmul(A[i], A[j]) == matmul(A[j], A[i])
    c = PointField.exact(C)
    for r in range(pres.rank):
        for s in range(pres.rank):
            total = sum((PointField.exact(td.a[0][i]) * A[i][r][s]
                         for i in range(td.n)), PointField.zero)
            assert total == (c if r == s else PointField.zero)


def assert_symbolic_rings(td, divisor_formula=True):
    r = ring(td)
    point = ring_at(r, H, [C] * td.d, (0.3 + 0.1j, -0.2 + 0.25j, 0.35j,
                                       0.4, -0.15 - 0.3j)[:td.n])
    assert point.rank == len(vertices(td))
    for mode in ("quantum", "classical"):
        pres = assert_matches_fraction_field(r, mode)
        assert pres.std == point.std
        assert_columns_match_normal_forms(pres)
    if divisor_formula:
        assert verify_divisor_formula(td)["all_exact"]
        assert verify_steinberg_identities(td)["all_pass"]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(td=smooth_d1(max_n=4))
def test_generated_d1_symbolic_rings(td):
    assert_symbolic_rings(td)


# reduced incidence matrices of directed graphs on 3 vertices (the last one
# with its second row negated), which are totally unimodular, each with a
# generic theta_hat
TU_D2 = [
    ([[1, 0, 1, -1], [0, 1, -1, 1]], [-4, -5, 4, -5]),
    ([[1, 0, 1, -1], [0, 1, -1, 0]], [3, -1, 2, 5]),
    ([[1, 0, 1, 0], [0, 1, 1, 1]], [-2, -3, -4, 2]),
]


@pytest.mark.parametrize("a, theta", TU_D2)
def test_d2_symbolic_rings(a, theta):
    td = build_torus_data(a, theta)
    assert classify(td)["smooth"]
    assert_symbolic_rings(td, divisor_formula=(a, theta) != TU_D2[1])


def test_tu_d2_frame_obstruction():
    # the second graph's staircase holds u1^2 and u2^2 (1 + 2 + 2 classes
    # in two free variables), so, as for rank8_d2, the presentation frame
    # is not flat and extraction fails on every wall; the GKZ operators
    # still kill the unit section
    td = build_torus_data(*TU_D2[1])
    r = ring(td)
    assert r.quantum.std == [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                             (2, 0, 0, 0), (0, 2, 0, 0)]
    assert not r.family.flatness_exact()
    assert gkz_annihilates_unit(r.family)
    outcomes = {}
    for c in r.circuits:
        with pytest.raises((PoleOrderError, InconsistentExtraction)) as e:
            extract_steinberg(r.quantum, c)
        outcomes[tuple(i + 1 for i in c.support)] = e.type
    assert outcomes == {(1, 4): PoleOrderError,
                        (1, 2, 3): InconsistentExtraction,
                        (2, 3, 4): InconsistentExtraction}


# the reduced incidence matrix of the complete graph K4 (6 edges, 4
# vertices), totally unimodular, with a generic theta_hat: d = 3, rank 16
K4 = ([[1, 1, 1, 0, 0, 0], [-1, 0, 0, 1, 1, 0], [0, -1, 0, -1, 0, 1]],
      [3, -1, 2, 5, -4, 7])
K4_C = [Fraction(1, 5), Fraction(1, 7), Fraction(2, 7)]


def test_k4_spectra():
    # one seeded point: 16 eigenvalues, one per vertex, each at a critical
    # value of the mirror superpotential
    td = build_torus_data(*K4)
    rng = np.random.default_rng(0)
    q = (0.15 + 0.3 * rng.random(6)) * np.exp(2j * np.pi * rng.random(6))
    rep = compare_spectra(td, H, K4_C, q)
    assert rep["pass"], rep
    assert rep["rank"] == rep["count"] == len(vertices(td)) == 16


def test_k4_frame_obstruction():
    """K4's staircase holds u1^3, u2^3 and u4^2, and, as for rank8_d2 and
    TU_D2[1], its presentation frame is not flat: extraction fails on every
    wall, with a pole of order 2 on three of them.  Unlike TU_D2[1], the
    GKZ operators applied through the frame's nabla do not kill the unit
    section.  Costs about 1.3 s on a 2-vCPU VM, about 1.05 s of it the
    Q(h, c, q) ring."""
    td = build_torus_data(*K4)
    r = ring(td)
    assert r.quantum.rank == 16
    assert {(3, 0, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0),
            (0, 0, 0, 2, 0, 0)} <= set(r.quantum.std)
    assert not r.family.flatness_exact()
    assert not gkz_annihilates_unit(r.family)
    outcomes = {}
    for c in r.circuits:
        with pytest.raises((PoleOrderError, InconsistentExtraction)) as e:
            extract_steinberg(r.quantum, c)
        outcomes[tuple(i + 1 for i in c.support)] = e.type
    assert outcomes == {(1, 2, 4): PoleOrderError,
                        (1, 3, 5): PoleOrderError,
                        (2, 3, 6): PoleOrderError,
                        (1, 2, 5, 6): InconsistentExtraction,
                        (1, 3, 4, 6): InconsistentExtraction,
                        (2, 3, 4, 5): InconsistentExtraction,
                        (4, 5, 6): InconsistentExtraction}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(1, 2), n=st.integers(2, 5))
def test_generated_lattice_verdicts(data, d, n):
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    a = data.draw(st.lists(row, min_size=d, max_size=d))
    assume(maximal_minors_gcd(a) != 0)  # rank d
    td = build_torus_data(a, [0] * n)
    assert classify(td)["unimodular"] == unimodular_oracle(td)
    assert td.surjective == (maximal_minors_gcd(a) == 1)


def seeded_torus_data(count, seed):
    """Full-rank integer data with d <= 3, n <= 6, entries in [-2, 2] and
    theta_hat in [-5, 5]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 6)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
        theta = [rng.randint(-5, 5) for _ in range(n)]
        try:
            out.append(build_torus_data(a, theta))
        except RankDeficient:
            pass
    return out


def test_generated_matroid_matches_rational_route():
    seen = {"wall": 0, "not_simple": 0, "not_unimodular": 0, "circuits": 0}
    for td in seeded_torus_data(200, 2026):
        want = matroid_oracle.circuits(td)
        if want is None:
            with pytest.raises(NonGenericStability):
                enumerate_circuits(td)
            seen["wall"] += 1
        else:
            got = [(c.support, c.plus, c.minus, c.beta, c.beta_k)
                   for c in enumerate_circuits(td)]
            assert got == want, td
            seen["circuits"] += len(got)
        cls = classify(td)
        assert cls["simple"] == matroid_oracle.simple(td), td
        assert [(v.basis, v.position) for v in vertices(td)] == \
            matroid_oracle.vertices(td), td
        seen["not_simple"] += not cls["simple"]
        seen["not_unimodular"] += not cls["unimodular"]
    assert all(seen.values()), seen
