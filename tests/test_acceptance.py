"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; the test names are the lines.
Every numeric claim is checked at its stated tolerance; exact claims are
checked by symbolic identity over the parameter field.

Known honest failure, tracked as a strict xfail rather than hidden:
criterion 5's flatness sub-check on rank8_d2.  Any monomial staircase for
that instance contains a squared divisor class (the linear relations leave
3 free variables and the degree profile 1+3+4 needs four degree-2 monomials,
but only 3 squarefree ones exist), and squared classes carry q-dependent
quantum corrections, so no constant-frame presentation of the connection is
flat there.  Commutativity, symbols, spectra, and everything else about the
instance is fine and is asserted below.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from hypertoric.catalog import INSTANCES
from hypertoric.quantum_ring import wall_distance
from hypertoric.upoly import UPoly, sum_of_products

HB = Fraction(1, 3)


def line(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    msg = f"[criterion {num:>2}] {tag}  {label}" + \
        (f"  ({detail})" if detail else "")
    print(msg)
    assert ok, msg


def cvals_for(td):
    primes = [5, 7, 11, 13]
    return [Fraction(1, primes[j]) for j in range(td.d)]


def seeded_q(n, seed, count=1):
    rng = np.random.default_rng(seed)
    return [(0.15 + 0.45 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
            for _ in range(count)]


# -- polynomial builders for the hand-written patterns -----------------------


def _u(F, i, n):
    return UPoly.variable(i, n, F.one)


def _hmu(F, i, n):
    return UPoly.constant(F.h, n) - _u(F, i, n)


def _prod(F, n, factors):
    p = UPoly.constant(F.one, n)
    for f in factors:
        p = p * f
    return p


def test_criterion_01_circuit_supports_of_the_running_example():
    from hypertoric.arrangement import enumerate_circuits
    t0 = time.monotonic()
    td = INSTANCES["rank8_d2"]()
    supports = {tuple(i + 1 for i in c.support)
                for c in enumerate_circuits(td)}
    expected = {(1, 2), (3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5)}
    elapsed = time.monotonic() - t0
    line(1, "circuit supports {12,34,135,145,235,245}, exact",
         supports == expected and elapsed < 1.0,
         f"{sorted(supports)}, {elapsed * 1000:.0f} ms")


def _expected_classical(name, td, F):
    """Hand-written classical relation patterns, keyed by circuit support."""
    n = td.n
    if name.startswith("t_star_p"):
        m = n - 1
        linear = []
        for j in range(m):
            e_j = tuple(int(i == j) for i in range(n))
            e_m = tuple(int(i == m) for i in range(n))
            linear.append(UPoly(n, {e_j: F.one, e_m: -F.one,
                                    (0,) * n: -F.c[j]}))
        circ = {tuple(range(n)): _prod(F, n, [_u(F, i, n) for i in range(n)])}
        return linear, circ
    if name.startswith("a_tilde"):
        terms = {tuple(int(t == i) for t in range(n)): F.one for i in range(n)}
        terms[(0,) * n] = -F.c[0]
        linear = [UPoly(n, terms)]
        circ = {(i, j): _prod(F, n, [_u(F, i, n), _hmu(F, j, n)])
                for i in range(n) for j in range(i + 1, n)}
        return linear, circ
    assert name == "rank8_d2"
    lin1 = UPoly(n, {(0, 0, 1, 0, 0): F.one, (0, 0, 0, 1, 0): F.one,
                     (0, 0, 0, 0, 1): F.one, (0,) * n: -F.c[0]})
    lin2 = UPoly(n, {(1, 0, 0, 0, 0): F.one, (0, 1, 0, 0, 0): F.one,
                     (0, 0, 0, 0, 1): -F.one, (0,) * n: -F.c[1]})
    circ = {
        (0, 1): _prod(F, n, [_u(F, 0, n), _hmu(F, 1, n)]),
        (2, 3): _prod(F, n, [_u(F, 2, n), _hmu(F, 3, n)]),
        (0, 2, 4): _prod(F, n, [_u(F, 2, n), _hmu(F, 0, n), _hmu(F, 4, n)]),
        (0, 3, 4): _prod(F, n, [_u(F, 0, n), _u(F, 4, n), _hmu(F, 3, n)]),
        (1, 2, 4): _prod(F, n, [_u(F, 2, n), _hmu(F, 1, n), _hmu(F, 4, n)]),
        (1, 3, 4): _prod(F, n, [_u(F, 3, n), _hmu(F, 1, n), _hmu(F, 4, n)]),
    }
    return [lin1, lin2], circ


def test_criterion_02_classical_ring_pattern_and_q_to_zero():
    from hypertoric.quantum_ring import presentation
    names = ["t_star_p1", "t_star_p2", "t_star_p3",
             "a_tilde_1", "a_tilde_2", "a_tilde_3", "rank8_d2"]
    for name in names:
        td = INSTANCES[name]()
        presq = presentation(td, "quantum")
        F = presq.field
        presc = presentation(td, "classical")
        linear, circ = _expected_classical(name, td, F)
        got_linear = presc.generators[:td.d]
        assert [g.terms for g in got_linear] == [g.terms for g in linear], name
        for c, got in zip(presc.circuits, presc.generators[td.d:]):
            assert got.terms == circ[tuple(c.support)].terms, \
                (name, c.support)
        # q -> 0 degeneration, term for term: the quantum generator is the
        # classical one minus the Novikov monomial times the sign-swapped
        # product, and q^beta has positive theta-degree, so dropping the
        # Novikov terms reproduces the classical ideal exactly
        for j in range(td.d):
            assert presq.generators[j].terms == presc.generators[j].terms
        for c, gq, gc in zip(presc.circuits, presq.generators[td.d:],
                             presc.generators[td.d:]):
            assert sum(td.theta_hat[i] * c.beta[i] for i in range(td.n)) > 0
            swapped = _prod(F, td.n,
                            [UPoly.constant(F.q_monomial(c.beta_k), td.n)] +
                            [_hmu(F, i, td.n) for i in c.plus] +
                            [_u(F, i, td.n) for i in c.minus])
            assert (gc - gq).terms == swapped.terms, (name, c.support)
    line(2, "classical ring patterns + q=0 degeneration, exact", True,
         f"{len(names)} instances")


def test_criterion_03_rank_oracle():
    from hypertoric.quantum_ring import presentation
    expected = {"t_star_p1": 2, "t_star_p2": 3, "t_star_p3": 4,
                "a_tilde_1": 2, "a_tilde_2": 3, "a_tilde_3": 4,
                "p1_times_p1": 4, "rank8_d2": 8}
    got = {name: presentation(INSTANCES[name]()).rank for name in expected}
    line(3, "standard-monomial count = matroid basis count", got == expected,
         str(got))


def test_criterion_04_quantum_relations_of_the_two_surfaces():
    from hypertoric.quantum_ring import presentation
    ok = True
    td = INSTANCES["t_star_p1"]()
    pres = presentation(td)
    F = pres.field
    n = 2
    expected = _prod(F, n, [_u(F, 0, n), _u(F, 1, n)]) - \
        _prod(F, n, [UPoly.constant(F.q[0], n),
                     _hmu(F, 0, n), _hmu(F, 1, n)])
    ok &= pres.generators[td.d].terms == expected.terms
    td = INSTANCES["a_tilde_1"]()
    pres = presentation(td)
    F = pres.field
    expected = _prod(F, n, [_u(F, 0, n), _hmu(F, 1, n)]) - \
        _prod(F, n, [UPoly.constant(F.q[0], n), _hmu(F, 0, n), _u(F, 1, n)])
    ok &= pres.generators[td.d].terms == expected.terms
    line(4, "u1u2 - q(h-u1)(h-u2) and u1(h-u2) - q(h-u1)u2, exact", ok)


def _commutators_vanish(pres):
    n = pres.td.n
    r = pres.rank
    for i in range(n):
        for j in range(i + 1, n):
            A, B = pres.multiplication_matrix(i), pres.multiplication_matrix(j)
            for a in range(r):
                for b in range(r):
                    # sum_t A[a][t] B[t][b] - B[a][t] A[t][b]
                    comm = sum_of_products(
                        [*((x, row[b]) for x, row in zip(A[a], B)),
                         *((-x, row[b]) for x, row in zip(B[a], A))])
                    if comm:
                        return False
    return True


def _off_wall_points(nc, count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        mod = 0.15 + 0.5 * rng.random(nc.td.n)
        q = mod * np.exp(2j * np.pi * rng.random(nc.td.n))
        if wall_distance(nc.circuits, q) > 0.05:
            pts.append(q)
    return pts


FLAT = ["t_star_p1", "t_star_p2", "a_tilde_1", "a_tilde_2", "a_tilde_3",
        "p1_times_p1"]


def test_criterion_05_commutativity_and_flatness():
    from hypertoric.connection import (ConnectionFamily, NumericConnection,
                                       flatness_residual)
    from hypertoric.quantum_ring import presentation
    t0 = time.monotonic()
    for name in INSTANCES:
        assert _commutators_vanish(presentation(INSTANCES[name]())), name
    worst = 0.0
    for name in FLAT:
        td = INSTANCES[name]()
        fam = ConnectionFamily(presentation(td))
        nc = NumericConnection(fam, HB, cvals_for(td))
        pts = _off_wall_points(nc, 20, seed=11)
        worst = max(worst, flatness_residual(fam, HB, cvals_for(td), pts))
    elapsed = time.monotonic() - t0
    line(5, "[A_i,A_j]=0 exact on all 8 instances; flatness residual "
            "<= 1e-10 at 20 off-singular points",
         worst <= 1e-10 and elapsed < 60.0,
         f"max residual {worst:.2e}, {elapsed:.1f} s; rank8_d2 flatness is "
         f"the documented xfail below")


@pytest.mark.xfail(strict=True,
                   reason="rank8_d2: every staircase contains a squared "
                          "class; squared classes have q-dependent quantum "
                          "corrections, so the constant presentation frame "
                          "is not flat (module docstring has the argument)")
def test_criterion_05_flatness_on_rank8_d2_known_obstruction():
    from hypertoric.connection import (ConnectionFamily, NumericConnection,
                                       flatness_residual)
    from hypertoric.quantum_ring import presentation
    td = INSTANCES["rank8_d2"]()
    fam = ConnectionFamily(presentation(td))
    nc = NumericConnection(fam, HB, cvals_for(td))
    pts = _off_wall_points(nc, 20, seed=11)
    resid = flatness_residual(fam, HB, cvals_for(td), pts)
    line(5, "flatness on rank8_d2 (expected to fail)", resid <= 1e-10,
         f"residual {resid:.2e}")


def test_criterion_06_divisor_formula_round_trip():
    from hypertoric.quantum_ring import (verify_divisor_formula,
                                         verify_steinberg_identities)
    ok = True
    details = []
    for name in ["t_star_p1", "a_tilde_2", "p1_times_p1"]:
        td = INSTANCES[name]()
        div = verify_divisor_formula(td)
        ste = verify_steinberg_identities(td)
        ok &= div["all_exact"] and ste["all_pass"]
        details.append(f"{name}: divisor {div['all_exact']}, "
                       f"identities {ste['all_pass']}")
    line(6, "divisor-formula round trip + vanishing/product identities, "
            "exact", ok, "; ".join(details))


def test_criterion_07_gkz_symbols_reduce_to_zero():
    from hypertoric.connection import symbol_check
    from hypertoric.quantum_ring import presentation
    ok = True
    for name in INSTANCES:
        rep = symbol_check(presentation(INSTANCES[name]()))
        ok &= rep["pass"]
    line(7, "every GKZ symbol reduces to 0 mod the quantum ideal, exact",
         ok, f"{len(INSTANCES)} instances")


def test_criterion_08_gkz_annihilates_periods():
    from hypertoric.mirror import verify_gkz_on_periods
    t0 = time.monotonic()
    ok = True
    details = []
    for name in ["t_star_p1", "a_tilde_1"]:
        td = INSTANCES[name]()
        qpts = seeded_q(td.n, seed=17, count=3)
        rep, _ = verify_gkz_on_periods(td, Fraction(1, 3),
                                       [Fraction(1, 5)], qpts, tol=1e-6)
        worst = max(p["max_relative_residual"] for p in rep["points"])
        ranks = [p["period_matrix_rank"] for p in rep["points"]]
        ok &= rep["pass"] and ranks == [2, 2, 2]
        details.append(f"{name}: residual {worst:.1e}, ranks {ranks}")
    elapsed = time.monotonic() - t0
    line(8, "periods solve the GKZ system (rel residual <= 1e-6, "
            "rank 2, 3 random q)", ok and elapsed < 300.0,
         "; ".join(details) + f", {elapsed:.0f} s")


def test_criterion_09_spectra_match_critical_values():
    from hypertoric.mirror import compare_spectra
    ok = True
    details = []
    for name, tol in [("t_star_p1", 1e-8), ("a_tilde_1", 1e-8),
                      ("a_tilde_2", 1e-8), ("a_tilde_3", 1e-8),
                      ("rank8_d2", 1e-6)]:
        td = INSTANCES[name]()
        q = seeded_q(td.n, seed=53)[0]
        rep = compare_spectra(td, HB, cvals_for(td), q, seed=5, tol=tol)
        ok &= rep["pass"] and rep["count"] == rep["rank"]
        details.append(f"{name}: {rep['count']} pts, "
                       f"dev {rep['max_deviation']:.1e}")
    line(9, "critical values = eigenvalues (1e-8 d=1, 1e-6 d=2), "
            "count = rank", ok, "; ".join(details))


def test_criterion_10_transport_consistency():
    from hypertoric.mirror import transport_consistency
    td = INSTANCES["t_star_p1"]()
    q0 = np.array([0.31 + 0.12j, 0.22 - 0.17j])
    q1 = q0 * np.exp(np.array([0.09 - 0.05j, -0.06 + 0.08j]))
    rep = transport_consistency(td, HB, [Fraction(1, 5)], q0, q1, tol=1e-6)
    line(10, "transported period vector matches recomputation <= 1e-6",
         rep["pass"], f"deviation {rep['max_relative_deviation']:.1e}")


def test_criterion_11_resonance_verdicts():
    from resonance_oracle import brute_force_resonant

    from hypertoric.resonance import genericity_check, is_non_resonant
    td = INSTANCES["t_star_p1"]()
    ok = is_non_resonant(td, Fraction(1, 3), [Fraction(1, 5)])["non_resonant"]
    ok &= not is_non_resonant(td, Fraction(0), [Fraction(0)])["non_resonant"]
    ok &= not is_non_resonant(td, Fraction(2), [Fraction(-1)])["non_resonant"]
    agree = 0
    for name in ["t_star_p1", "a_tilde_1", "a_tilde_2", "t_star_p2",
                 "a_tilde_3", "p1_times_p1"]:  # all instances with n+d <= 6
        tdn = INSTANCES[name]()
        for hb, cs in [(Fraction(1, 3), cvals_for(tdn)),
                       (Fraction(0), [Fraction(0)] * tdn.d),
                       (Fraction(1), [Fraction(1)] * tdn.d),
                       (Fraction(1, 2), [Fraction(1, 2)] * tdn.d)]:
            verdict = is_non_resonant(tdn, hb, cs)["non_resonant"]
            assert verdict == (not brute_force_resonant(tdn, hb, cs)), \
                (name, hb, cs)
            agree += 1
    generic = all(genericity_check(INSTANCES[name]())["pass"]
                  for name in INSTANCES)
    line(11, "resonance verdicts + brute-force agreement + genericity, "
             "exact", ok and generic,
         f"{agree} brute-force agreements, genericity on 8 instances")


def test_criterion_12_determinism_same_seed(tmp_path, capsys):
    from hypertoric.cli import main
    spec = {"a": [[1, -1]], "theta_hat": [1, 0],
            "params": {"hbar": "1/3", "c": ["1/5"]}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    reports = []
    for _ in range(2):
        assert main(["mirror-verify", str(path), "--seed", "3",
                     "--points", "1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        rep.pop("wall_ms")
        reports.append(rep)
    same = reports[0] == reports[1]
    with capsys.disabled():
        line(12, "same --seed, identical reports (modulo wall_ms)", same)
