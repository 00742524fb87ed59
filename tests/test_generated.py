"""Generated smooth d = 1 instances checked against oracles that need no
symbolic ring: the ring at a point has one standard monomial per vertex,
and its multiplication matrices commute and satisfy the linear relations
sum_i a_ji A_i = c_j, exactly over Q(i)."""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from hypertoric.arrangement import build_torus_data, classify, vertices
from hypertoric.params import PointField
from hypertoric.quantum_ring import ring

H, C = Fraction(1, 3), Fraction(1, 5)


@st.composite
def smooth_d1(draw):
    """Rows of +-1 on 2..5 hyperplanes with a generic theta_hat (distinct
    points -theta_i / a_i on the line, which is what smooth means here)."""
    n = draw(st.integers(2, 5))
    row = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    theta = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    td = build_torus_data([row], theta)
    assume(classify(td)["smooth"])
    return td


def matmul(A, B):
    return [[sum((x * y for x, y in zip(row, col)), PointField.zero)
             for col in zip(*B)] for row in A]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(td=smooth_d1(), seed=st.integers(0, 2**32 - 1))
def test_generated_d1_ring_at_point(td, seed):
    rng = np.random.default_rng(seed)
    q = (0.15 + 0.3 * rng.random(td.n)) * np.exp(2j * np.pi * rng.random(td.n))
    pres = ring(td).at(H, [C], q)
    assert pres.rank == len(vertices(td))
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
