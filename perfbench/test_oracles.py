"""Tests of the benchmark's own oracles and span arithmetic.

    python3 -m pytest perfbench/test_oracles.py
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from spans import Tracer  # noqa: E402

# The catalog instances, written out so the oracles are tested on their own.
CATALOG = {
    "t_star_p1": ([[1, -1]], [1, 0], 2),
    "t_star_p2": ([[1, 0, -1], [0, 1, -1]], [1, 0, 0], 3),
    "t_star_p3": ([[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]], [1, 0, 0, 0], 4),
    "a_tilde_1": ([[1, 1]], [1, 0], 2),
    "a_tilde_2": ([[1, 1, 1]], [2, 1, 0], 3),
    "a_tilde_3": ([[1, 1, 1, 1]], [3, 2, 1, 0], 4),
    "p1_times_p1": ([[1, -1, 0, 0], [0, 0, 1, -1]], [1, 0, 1, 0], 4),
    "rank8_d2": ([[0, 0, 1, 1, 1], [1, 1, 0, 0, -1]], [-2, -4, -5, -7, -4], 8),
}

# `hypertoric ring --matrices` on T*P^1, as the program prints it.
TP1_MATRICES = [
    [["0", "(-h**2*q1 - h*c1*q1)/(q1 - 1)"],
     ["1", "(2*h*q1 + c1*q1 - c1)/(q1 - 1)"]],
    [["-c1", "(-h**2*q1 - h*c1*q1)/(q1 - 1)"],
     ["1", "2*h*q1/(q1 - 1)"]],
]


def inst(name):
    a, theta, _ = CATALOG[name]
    return {"name": name, "a": a, "theta_hat": theta,
            "bases": oracles.bases(a), "circuits": oracles.circuits(a, theta)}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_bases_give_the_known_ring_ranks(name):
    a, _, rank = CATALOG[name]
    assert len(oracles.bases(a)) == rank


def test_rank8_circuits():
    got = [(tuple(i + 1 for i in c["support"]), c["beta"])
           for c in inst("rank8_d2")["circuits"]]
    assert [s for s, _ in got] == [(1, 2), (1, 3, 5), (1, 4, 5), (2, 3, 5),
                                   (2, 4, 5), (3, 4)]
    theta = CATALOG["rank8_d2"][1]
    for _, beta in got:
        assert sum(t * b for t, b in zip(theta, beta)) > 0


def test_t_star_p1_circuit_orientation():
    (c,) = inst("t_star_p1")["circuits"]
    assert c == {"support": (0, 1), "plus": (0, 1), "minus": (), "beta": (1, 1)}


def test_evaluate_rendered_rational_function():
    env = {"h": Fraction(1, 3), "c1": Fraction(1, 5), "q1": Fraction(2)}
    val = oracles.evaluate("(-h**2*q1 - h*c1*q1)/(q1 - 1)", env)
    assert val == (-Fraction(1, 9) * 2 - Fraction(1, 15) * 2) / 1
    with pytest.raises(ValueError):
        oracles.evaluate("__import__('os')", env)


def test_matrices_accepted_and_perturbation_rejected():
    i = inst("t_star_p1")
    iota = [[1], [1]]
    assert oracles.check_matrices(i["a"], i["circuits"], iota, TP1_MATRICES, 5) == []
    bad = json.loads(json.dumps(TP1_MATRICES))
    bad[1][1][1] = "2*h*q1/(q1 - 1) + 1/1000"
    assert oracles.check_matrices(i["a"], i["circuits"], iota, bad, 5)
    swapped = json.loads(json.dumps(TP1_MATRICES))
    swapped[0][0][0] = "c1"       # breaks sum_i a_ji A_i = c_j I
    assert oracles.check_matrices(i["a"], i["circuits"], iota, swapped, 5)


def test_kernel_basis_must_be_saturated():
    a = CATALOG["t_star_p1"][0]
    assert oracles.check_kernel_basis(a, [[1], [1]]) == []
    assert oracles.check_kernel_basis(a, [[2], [2]])
    assert oracles.check_kernel_basis(a, [[1], [0]])


def test_wrong_circuit_count_rejected():
    i = inst("rank8_d2")
    circuits = [{"support": [x + 1 for x in c["support"]],
                 "plus": [x + 1 for x in c["plus"]],
                 "minus": [x + 1 for x in c["minus"]],
                 "beta": list(c["beta"])} for c in i["circuits"]]
    rep = {"results": {"circuits": circuits, "circuit_count": 6,
                       "vertex_count": 8,
                       "torus_data": {"iota": _kernel_basis(i["a"])}}}
    assert oracles.check_check_report(rep, i) == []
    rep["results"]["circuit_count"] = 7
    assert oracles.check_check_report(rep, i)
    rep["results"]["circuit_count"] = 6
    rep["results"]["vertex_count"] = 7
    assert oracles.check_check_report(rep, i)
    rep["results"]["vertex_count"] = 8
    rep["results"]["circuits"][0]["plus"], rep["results"]["circuits"][0]["minus"] = \
        rep["results"]["circuits"][0]["minus"], rep["results"]["circuits"][0]["plus"]
    assert oracles.check_check_report(rep, i)


def _kernel_basis(a):
    # rank8_d2: a saturated basis of ker(a), found by hand
    basis = [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 1, -1, 0, 1]]
    assert all(sum(r[i] * v[i] for i in range(5)) == 0 for r in a for v in basis)
    return [list(col) for col in zip(*basis)]


def test_ring_rank_mismatch_rejected():
    i = inst("t_star_p1")
    rep = {"results": {"rank": 3, "standard_basis": [[0, 0]] * 3,
                       "multiplication_matrices": TP1_MATRICES}}
    assert oracles.check_ring_report(rep, i, [[1], [1]], 1)
    rep["results"].update(rank=2, standard_basis=[[0, 0], [1, 0]])
    assert oracles.check_ring_report(rep, i, [[1], [1]], 1) == []


def test_lattice_membership():
    assert oracles.lattice_contains([[2, 0], [0, 3]], [4, -3])
    assert not oracles.lattice_contains([[2, 0], [0, 3]], [1, 0])
    assert oracles.lattice_contains([[4, 6], [6, 9]], [2, 3])
    assert not oracles.lattice_contains([[4, 6], [6, 9]], [1, 1])
    # v in span{(1, 1)} + Z^2 iff v_1 - v_2 is an integer
    half = Fraction(1, 2)
    assert oracles.in_span_plus_lattice([half, Fraction(5, 2)], [[1, 1]])
    assert not oracles.in_span_plus_lattice([half, Fraction(1, 3)], [[1, 1]])
    assert not oracles.in_span_plus_lattice([half, 0], [])
    assert oracles.in_span_plus_lattice([2, -1], [])


def test_resonance_verdict_checked():
    i = inst("t_star_p1")
    minimal = oracles.minimal_saturated(2, i["circuits"])
    rep = {"results": {"resonance": {"non_resonant": True,
                                     "minimal_saturated_count": len(minimal)},
                       "genericity": {"per_Q": [{}] * len(minimal)}}}
    assert oracles.check_resonance_report(rep, i, "1/7", ["3/29"]) == []
    # h = 1 puts v = (h, h, c) in Z^2 + Lin(Q^c) for some minimal Q
    assert oracles.check_resonance_report(rep, i, "1", ["1/5"])
    rep["results"]["resonance"]["minimal_saturated_count"] += 1
    assert oracles.check_resonance_report(rep, i, "1/7", ["3/29"])


def test_spectra_tolerances_and_counts():
    i1, i2 = inst("a_tilde_2"), inst("rank8_d2")
    ok1 = {"count": 3, "rank": 3, "max_deviation": 1e-12}
    assert oracles.check_spectra(ok1, i1, 1) == []
    assert oracles.check_spectra(dict(ok1, max_deviation=1e-7), i1, 1)
    assert oracles.check_spectra(dict(ok1, count=2), i1, 1)
    ok2 = {"count": 8, "rank": 8, "max_deviation": 1e-7}
    assert oracles.check_spectra(ok2, i2, 2) == []
    assert oracles.check_spectra(dict(ok2, max_deviation=2e-6), i2, 2)
    assert oracles.check_spectra(dict(ok2, max_deviation=float("nan")), i2, 2)


def test_mirror_report_tolerances():
    i = inst("t_star_p1")
    rep = {"results": {
        "q_points": [[0, 0]] * 3,
        "gkz_on_periods": {"points": [{"max_relative_residual": 1e-9}] * 3},
        "transport": {"max_relative_deviation": 1e-10},
        "spectra": {"count": 2, "rank": 2, "max_deviation": 1e-15}}}
    assert oracles.check_mirror_report(rep, i, 3) == []
    assert oracles.check_mirror_report(rep, i, 2)
    rep["results"]["gkz_on_periods"]["points"][1] = {"max_relative_residual": 2e-6}
    assert oracles.check_mirror_report(rep, i, 3)


def test_span_self_times_and_counts():
    import time
    tr = Tracer()

    def inner():
        time.sleep(0.02)
        return [1, 2, 3]

    def outer():
        time.sleep(0.01)
        return wrapped_inner()

    wrapped_inner = tr.wrap("inner", inner, "inner.found")
    wrapped_outer = tr.wrap("outer", outer, None)
    wrapped_outer()
    wrapped_outer()
    assert tr.counts == {"outer.calls": 2, "inner.calls": 2,
                         "inner.found": 6}
    assert 0.035 < tr.self_s["inner"] < 0.2
    assert 0.015 < tr.self_s["outer"] < tr.self_s["inner"]
