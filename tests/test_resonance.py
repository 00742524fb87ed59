"""Non-resonance verdicts, checked against hand analysis and brute force.

For T*P^1 the machinery reduces to the classical hypergeometric condition:
non-resonant iff hbar, hbar + c, hbar - c are all non-integral.  That makes
good pinned oracles; everything else is cross-checked by the windowed
brute-force sweep of resonance_oracle (independent of the
Hermite-normal-form path).
"""

from fractions import Fraction

import pytest
from resonance_oracle import brute_force_resonant, nullspace_rational

from hypertoric import resonance
from hypertoric.arrangement import (build_torus_data, enumerate_circuits,
                                    vertices)
from hypertoric.catalog import INSTANCES
from hypertoric.errors import SearchBudgetExceeded
from hypertoric.resonance import (genericity_check, is_non_resonant,
                                  is_saturated, lin_complement_generators,
                                  minimal_saturated, split_circuit_sides)

F = Fraction

SMALL = ["t_star_p1", "a_tilde_1", "a_tilde_2", "t_star_p2", "a_tilde_3",
         "p1_times_p1"]  # n + d <= 6


def probes(d):
    # engineered so any true resonance needs only small integer shifts
    return [
        (F(1, 3), [F(1, 5 + 2 * j) for j in range(d)]),
        (F(0), [F(0)] * d),
        (F(1), [F(j + 1) for j in range(d)]),
        (F(1, 2), [F(1, 2)] * d),
        (F(2, 7), [F(3, 11)] * d),
        (F(1, 3), [F(2, 3)] * d),
    ]


def test_sides_t_star_p1():
    td = INSTANCES["t_star_p1"]()
    (circ,) = enumerate_circuits(td)
    left, right = split_circuit_sides(circ, td.n)
    assert left == {0, 1}
    assert right == {2, 3}


def test_minimal_saturated_t_star_p1():
    td = INSTANCES["t_star_p1"]()
    mins = minimal_saturated(td)
    assert sorted(tuple(sorted(q)) for q in mins) == \
        [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_star_pairs_always_saturated():
    # {i, i*} meets S^L iff it meets S^R for every circuit, by construction
    for name in INSTANCES:
        td = INSTANCES[name]()
        sides = [split_circuit_sides(c, td.n) for c in enumerate_circuits(td)]
        for i in range(td.n):
            assert is_saturated(frozenset({i, td.n + i}), sides)
        mins = minimal_saturated(td)
        for q in mins:
            assert q and is_saturated(q, sides)
        for q in mins:
            for p in mins:
                assert not (p < q)  # mutually incomparable


def test_t_star_p1_hypergeometric_conditions():
    td = INSTANCES["t_star_p1"]()
    assert is_non_resonant(td, F(1, 3), [F(1, 5)])["non_resonant"]
    assert not is_non_resonant(td, F(0), [F(0)])["non_resonant"]
    assert not is_non_resonant(td, F(2), [F(-1)])["non_resonant"]
    # hbar + c and hbar - c integral are each resonant on their own
    assert not is_non_resonant(td, F(1, 3), [F(2, 3)])["non_resonant"]
    assert not is_non_resonant(td, F(1, 2), [F(1, 2)])["non_resonant"]
    assert is_non_resonant(td, F(1, 2), [F(1, 5)])["non_resonant"]


def test_witness_reconstructs_vector():
    td = INSTANCES["t_star_p1"]()
    rep = is_non_resonant(td, F(1, 3), [F(2, 3)])
    assert not rep["non_resonant"]
    w = rep["witness"]
    gens = lin_complement_generators(td, frozenset(w["Q"]))
    coeffs = [Fraction(s) for s in w["subspace_coefficients"]]
    v = [F(1, 3)] * td.n + [F(2, 3)]
    for r in range(td.n + td.d):
        combo = sum(c * g[r] for c, g in zip(coeffs, gens))
        assert combo + w["integer_part"][r] == v[r]


def test_rejects_floats():
    td = INSTANCES["t_star_p1"]()
    with pytest.raises(TypeError):
        is_non_resonant(td, 0.333, [F(1, 5)])
    with pytest.raises(TypeError):
        is_non_resonant(td, F(1, 3), [0.2])


def test_accepts_strings_and_ints():
    td = INSTANCES["t_star_p1"]()
    rep = is_non_resonant(td, "1/3", ["1/5"])
    assert rep["non_resonant"]
    assert not is_non_resonant(td, 1, [0])["non_resonant"]


def test_brute_force_agreement():
    for name in SMALL:
        td = INSTANCES[name]()
        for hb, cs in probes(td.d):
            verdict = is_non_resonant(td, hb, cs)["non_resonant"]
            brute = brute_force_resonant(td, hb, cs)
            assert verdict == (not brute), (name, hb, cs)


def test_genericity_all_instances():
    for name in INSTANCES:
        rep = genericity_check(INSTANCES[name]())
        assert rep["pass"], name
        assert rep["per_Q"], name


def test_determinism():
    td = INSTANCES["p1_times_p1"]()
    r1 = is_non_resonant(td, F(1, 3), [F(1, 5), F(1, 7)])
    r2 = is_non_resonant(td, F(1, 3), [F(1, 5), F(1, 7)])
    assert r1 == r2
    assert minimal_saturated(td) == minimal_saturated(td)


def test_nullspace_rational():
    ns = nullspace_rational([[1, 1, 1]])
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0


def test_ground_set_cap(monkeypatch):
    td = build_torus_data([[1] * 13], list(range(13)))
    with pytest.raises(SearchBudgetExceeded):
        minimal_saturated(td)

    # the cap is checked before any circuit is enumerated
    def no_circuits(td):
        raise AssertionError("circuits enumerated past the cap")
    monkeypatch.setattr(resonance, "enumerate_circuits", no_circuits)
    with pytest.raises(SearchBudgetExceeded):
        minimal_saturated(td)


def test_matroid_objects_computed_once():
    td = INSTANCES["rank8_d2"]()
    assert enumerate_circuits(td) is enumerate_circuits(td)
    assert vertices(td) is vertices(td)
    assert minimal_saturated(td) is minimal_saturated(td)
