import random
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
import sympy
from sympy.polys.domains import QQ
from fraction_oracle import (SympyField, assert_matches_fraction_field,
                             to_sympy, to_sympy_matrix)
from normal_form_oracle import assert_columns_match_normal_forms
from point_oracle import QQIPointField, assert_matches_point_oracle
from point_ring import PointField, build, ring_at
from test_generated import K4

from hypertoric import catalog, quantum_ring
from hypertoric.arrangement import build_torus_data, vertices
from hypertoric.errors import (InconsistentExtraction, NotSmooth,
                               OutsideLocalization, PoleOrderError)
from hypertoric.exact import hermite_normal_form, mat_vec, rref, solve_rational
from hypertoric.params import WallRing
from hypertoric.quantum_ring import (
    QuantumRing,
    circuit_generator,
    extract_steinberg,
    linear_generators,
    presentation,
    q_shift,
    ring,
    verify_divisor_formula,
    verify_steinberg_identities,
)
from hypertoric.upoly import GrevlexOrder, UPoly, buchberger, staircase


def fr(field, s):
    """Parse a rational function string unambiguously via eval on generators."""
    env = {"h": field.h}
    for j, g in enumerate(field.c):
        env[f"c{j + 1}"] = g
    for l, g in enumerate(field.q):
        env[f"q{l + 1}"] = g
    env["F"] = field
    return eval(s, {"__builtins__": {}}, env)


def test_t_star_p1_oracle():
    # frozen by hand: u1^2 (1-q) = (c - 2qh - qc) u1 + q h (h + c), basis {1, u1}
    td = catalog.t_star_p(1)
    pres = presentation(td)
    F = pres.field
    assert pres.std == [(0, 0), (1, 0)]
    assert pres.rank == 2
    A1 = pres.multiplication_matrix(0)
    q, h, c = F.q[0], F.h, F.c[0]
    one = F.one
    assert A1[0][0] == F.zero
    assert A1[1][0] == one
    assert A1[0][1] == q * h * (h + c) / (one - q)
    assert A1[1][1] == (c - 2 * q * h - q * c) / (one - q)


def test_t_star_p1_steinberg_oracle():
    td = catalog.t_star_p(1)
    pres = presentation(td)
    F = pres.field
    L = extract_steinberg(pres, pres.circuits[0])
    assert L[0][0] == F.zero and L[1][0] == F.zero
    assert L[0][1] == F.h + F.c[0]
    assert L[1][1] == F.from_rational(-2)
    assert len(rref(to_sympy_matrix(L))[1]) == 1


def test_a_tilde_1_quantum_relation():
    # paper relation for the circuit {1,2} with S+={1}, S-={2}:
    # u1 (h - u2) - q (h - u1) u2 reduces to 0 in the quantum ring
    td = catalog.a_tilde(1)
    pres = presentation(td)
    F = pres.field
    n = td.n
    u1 = UPoly.variable(0, n, F.one)
    u2 = UPoly.variable(1, n, F.one)
    h = UPoly.constant(F.h, n)
    rel = u1 * (h - u2) - (h - u1) * u2 * UPoly.constant(F.q[0], n)
    assert pres.nf(rel).is_zero()
    # and it does NOT reduce to zero classically
    presc = presentation(td, "classical")
    assert not presc.nf(rel).is_zero()
    # order-2 circuit Steinberg operator has rank 1
    L = extract_steinberg(pres, pres.circuits[0])
    assert len(rref(to_sympy_matrix(L))[1]) == 1


def test_t_star_p1_quantum_relation_form():
    # Eq-style check: the circuit relation reduces to 0 quantum-mechanically
    td = catalog.t_star_p(1)
    pres = presentation(td)
    F = pres.field
    n = td.n
    u1 = UPoly.variable(0, n, F.one)
    u2 = UPoly.variable(1, n, F.one)
    rel = u1 * u2 - UPoly.constant(F.q[0], n) * \
        (UPoly.constant(F.h, n) - u1) * (UPoly.constant(F.h, n) - u2)
    assert pres.nf(rel).is_zero()


def test_rank_equals_vertex_count():
    for name, make in catalog.INSTANCES.items():
        td = make()
        pres = presentation(td)
        assert pres.rank == len(vertices(td)), name
        presc = presentation(td, "classical")
        assert presc.std == pres.std, name


def test_classical_is_quantum_at_q_zero():
    # structural: classical generators are the quantum ones with q^{beta}=0
    from hypertoric.quantum_ring import circuit_generator, linear_generators
    from hypertoric.arrangement import enumerate_circuits
    td = catalog.a_tilde(2)
    F = ring(td).field
    cs = enumerate_circuits(td)
    classical = [circuit_generator(td, F, c, F.zero) for c in cs]
    quantum = [circuit_generator(td, F, c, F.q_monomial(c.beta_k)) for c in cs]
    # quantum generator minus its q-part equals the classical generator
    for cl, qu, c in zip(classical, quantum, cs):
        qpart = qu - cl
        for m, coeff in qpart.terms.items():
            # every term of the difference carries the Novikov factor
            coeff = to_sympy(coeff)
            num_monoms = {mm for mm, _ in coeff.numer.terms()}
            qgen_indices = range(1 + td.d, 1 + td.d + td.k)
            assert all(any(mm[g] for g in qgen_indices) or
                       any(e for e in coeff.denom.LM) for mm in num_monoms)


def test_divisor_formula_trio_exact():
    for name in ["t_star_p1", "a_tilde_2", "p1_times_p1"]:
        rep = verify_divisor_formula(catalog.INSTANCES[name]())
        assert rep["all_exact"], name


def test_divisor_formula_more_instances():
    for name in ["t_star_p2", "a_tilde_3"]:
        rep = verify_divisor_formula(catalog.INSTANCES[name]())
        assert rep["all_exact"], name


def test_steinberg_identities_trio():
    for name in ["t_star_p1", "a_tilde_2", "p1_times_p1"]:
        rep = verify_steinberg_identities(catalog.INSTANCES[name]())
        assert rep["all_pass"], name


def test_rank8_extraction_pole_obstruction():
    # the rank-8 staircase contains u1^2/u2^2 whose classes carry corrections
    # with poles at the {1,2}-wall: the entrywise pole is genuinely double.
    # On the other five walls the pole is simple, but the residues in this
    # frame are not constant along the wall
    td = catalog.rank8_d2()
    pres = presentation(td)
    first, *rest = pres.circuits
    with pytest.raises(PoleOrderError):
        extract_steinberg(pres, first)
    assert len(rest) == 5
    for c in rest:
        with pytest.raises(InconsistentExtraction):
            extract_steinberg(pres, c)


def test_on_wall_a_tilde_2():
    # k = 2, so each wall is a curve in the (q1, q2) torus and an element
    # can vary along it
    F = ring(catalog.a_tilde(2)).field
    h, c, one = F.h, F.c[0], F.one
    q1, q2 = F.q
    diagonal = F.wall_index(1, (1, -1))       # q1 = q2
    q1_one = F.wall_index(1, (1, 0))          # q1 = 1
    # constant along q1 = q2, with content and a power of h left over
    x = (2 * h + c) * (q1 - one) * q2 / (3 * h * h * q1 * (q2 - one))
    assert F.on_wall(x, diagonal) == (2 * h + c) / (3 * h * h)
    # constant along q1 = 1, where the denominator's leading class is -q2
    assert F.on_wall(h * (q2 - one) / (q1 - q2), q1_one) == -h
    # q1 / (q2 - 1) is q / (q - 1) on the diagonal
    assert F.on_wall(q1 / (q2 - one), diagonal) is None
    # the wall in the numerator restricts to zero
    assert F.on_wall(h * (q1 - q2) / (q1 - one), diagonal) == F.zero
    with pytest.raises(ValueError, match="denominator"):
        F.on_wall(one / (q1 - q2), diagonal)


@pytest.mark.parametrize("mode", ["quantum", "classical"])
@pytest.mark.parametrize("name", list(catalog.INSTANCES))
def test_wall_ring_basis_matches_fraction_field(name, mode):
    # the gcd-free Buchberger gives the fraction-field staircase, relations
    # and multiplication matrices exactly
    assert_matches_fraction_field(ring(catalog.INSTANCES[name]()), mode)


def output_coefficients(pres):
    """Every coefficient the presentation hands out: basis relations and
    nonzero multiplication matrix entries."""
    out = [c for g in pres.gb for c in g.terms.values()]
    for i in range(pres.td.n):
        out += [x for row in pres.multiplication_matrix(i) for x in row if x]
    return out


def assert_prints_as_sympy(x):
    """x's canonical pair is sympy's, cancelled by sympy, and render
    prints what sympy's str prints."""
    want = to_sympy(x)
    num, den = x.dom.fraction(x)
    assert (num, den) == (dict(want.numer), dict(want.denom))
    assert x.dom.render(x) == str(want)


@pytest.mark.parametrize("mode", ["quantum", "classical"])
@pytest.mark.parametrize("name", list(catalog.INSTANCES))
def test_wall_ring_output_is_the_cancelled_pair(name, mode):
    # fraction forms sympy's canonical pair with no gcd, and render prints
    # it as sympy does, on every coefficient handed out
    pres = ring(catalog.INSTANCES[name]()).presentation(mode)
    for x in output_coefficients(pres):
        assert_prints_as_sympy(x)


def test_output_coefficients_and_steinberg_print_as_sympy():
    # the 770 coefficients of the 16 presentations above, and every entry
    # of every L_S that extraction finds
    count = 0
    for make in catalog.INSTANCES.values():
        r = ring(make())
        count += sum(len(output_coefficients(p))
                     for p in (r.quantum, r.classical))
        for c in r.quantum.circuits:
            try:
                L = extract_steinberg(r.quantum, c)
            except (PoleOrderError, InconsistentExtraction):
                continue   # rank8_d2's staircase frame
            for row in L:
                for x in row:
                    assert_prints_as_sympy(x)
    assert count == 770


def drop_first_wall(d, nq, walls):
    return WallRing(d, nq, walls[1:])


def test_leading_coefficient_outside_localization_is_typed(monkeypatch):
    # with the wall of the first circuit left out of the factor set, the
    # monic scaling meets a leading coefficient it cannot invert
    monkeypatch.setattr(quantum_ring, "WallRing", drop_first_wall)
    r = QuantumRing(catalog.a_tilde(2))
    with pytest.raises(OutsideLocalization, match="cannot invert"):
        r.quantum


def test_not_smooth_refused():
    td = build_torus_data([[1, 2]], [1, 0])
    with pytest.raises(NotSmooth):
        presentation(td)


def test_presentation_deterministic():
    td = catalog.p1_times_p1()
    p1 = presentation(td)
    # bypass the ring memo: a fresh ring and field
    p2 = QuantumRing(td).quantum
    assert [g.terms.keys() for g in p1.gb] == [g.terms.keys() for g in p2.gb]
    assert p1.std == p2.std
    s1 = p1.relation_strings()
    s2 = p2.relation_strings()
    assert s1 == s2


def test_q_shift_sign():
    td = catalog.t_star_p(1)
    pres = presentation(td)
    F = pres.field
    # |S| = 2: q^S = +q
    assert q_shift(F, pres.circuits[0]) == F.q[0]
    td2 = catalog.t_star_p(2)
    pres2 = presentation(td2)
    F2 = pres2.field
    # |S| = 3: q^S = -q
    assert q_shift(F2, pres2.circuits[0]) == -F2.q[0]


def test_commuting_multiplication():
    # quantum multiplication operators commute exactly (symbolic)
    for name in ["t_star_p1", "a_tilde_2", "p1_times_p1"]:
        td = catalog.INSTANCES[name]()
        pres = presentation(td)
        mats = [pres.multiplication_matrix(i) for i in range(td.n)]
        r = pres.rank
        for i in range(td.n):
            for j in range(i + 1, td.n):
                A, B = mats[i], mats[j]
                for r1 in range(r):
                    for c1 in range(r):
                        ab = sum((A[r1][t] * B[t][c1] for t in range(r)),
                                 pres.field.zero)
                        ba = sum((B[r1][t] * A[t][c1] for t in range(r)),
                                 pres.field.zero)
                        assert ab == ba, (name, i, j)


def test_ring_is_one_object_per_value():
    r = ring(catalog.p1_times_p1())
    assert ring(catalog.p1_times_p1()) is r
    assert presentation(catalog.p1_times_p1()) is r.quantum
    assert r.classical.field is r.quantum.field
    assert r.family.pres is r.quantum
    nc = r.numeric(Fraction(1, 3), [Fraction(1, 5), Fraction(1, 7)])
    assert r.numeric("1/3", ["1/5", "1/7"]) is nc
    assert nc.fam is r.family


def count_groebner_bases(monkeypatch):
    """Count Buchberger runs on fresh rings: quantum_ring.ring gets a fresh
    memo for the test, and the package-wide one is left intact."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(quantum_ring, "buchberger", counting)
    monkeypatch.setattr(quantum_ring, "ring", cache(QuantumRing))
    return calls


def test_ring_builds_only_what_is_asked(monkeypatch):
    calls = count_groebner_bases(monkeypatch)
    r = QuantumRing(catalog.t_star_p(2))
    assert not calls
    assert r.quantum.rank == 3
    assert len(calls) == 1
    assert r._family is None and not r._numeric


def test_divisor_formula_runs_two_groebner_bases(monkeypatch):
    # one quantum and one classical basis; Steinberg extraction reads the
    # residues off the cached A_i(q) and builds no presentation
    calls = count_groebner_bases(monkeypatch)
    td = catalog.a_tilde(3)
    assert verify_divisor_formula(td)["all_exact"]
    assert len(calls) == 2
    pres = presentation(td)
    for c in pres.circuits:
        extract_steinberg(pres, c)
    assert len(calls) == 2


def rebuilt_steinberg(pres, circuit, seed):
    """L_S by the independent route: rebuild the presentation over Q(h, c, s)
    along the HNF-completed line q_l -> gamma_l s^{W[0][l]} (on which
    q^S = (-1)^{|S|} s), then take the residue of A_i at s0 = (-1)^{|S|}."""
    td = pres.td
    _, W = hermite_normal_form([[b] for b in circuit.beta_k])
    s0 = Fraction((-1) ** circuit.size)
    fs = SympyField(td.d, 1, qnames=("s",))
    order = GrevlexOrder(td.n)
    rnd = random.Random(f"rebuilt:{seed}:{circuit.support}")
    for _ in range(8):
        rs = [Fraction(rnd.randint(1, 19), rnd.randint(1, 19))
              for _ in range(td.k - 1)]
        lines = []           # q^{beta} of each circuit is gamma s^{w0}
        for c2 in pres.circuits:
            w = mat_vec(W, list(c2.beta_k))
            gamma = Fraction(1)
            for m in range(1, td.k):
                gamma *= rs[m - 1] ** w[m]
            lines.append((c2, gamma, w[0]))
        # every other wall must miss s0
        if any((-1) ** c2.size * gamma * s0 ** w0 == 1
               for c2, gamma, w0 in lines if c2 != circuit):
            continue
        gens = linear_generators(td, fs)
        for c2, gamma, w0 in lines:
            qf = fs.from_rational(gamma) * fs.q[0] ** w0
            gens.append(circuit_generator(td, fs, c2, qf))
        gb = buchberger(gens, order)
        std = staircase(gb, order)
        if std == pres.std:
            break
    else:
        raise AssertionError("no generic line found")
    pres_s = quantum_ring.RingPresentation(td, "quantum", fs, order, gens,
                                           gb, std, pres.circuits)
    one_minus = fs.one - fs.from_rational(s0) * fs.q[0]
    mats = []
    for i in circuit.support[:2]:
        scale = fs.h * fs.from_rational(circuit.beta[i])
        mats.append([[fs.at_q(f * one_minus, [s0]) / scale for f in row]
                     for row in pres_s.multiplication_matrix(i)])
    assert mats[0] == mats[1]
    return mats[0]


def test_steinberg_matches_rebuilt_presentation_route():
    # the exact restriction against the residue of a presentation rebuilt
    # along three seeded lines through the wall, on every circuit of every
    # catalog instance where extraction works
    for name, make in catalog.INSTANCES.items():
        if name == "rank8_d2":
            continue
        pres = presentation(make())
        for c in pres.circuits:
            got = [[pres.field.render(x) for x in row]
                   for row in extract_steinberg(pres, c)]
            for seed in range(3):
                want = rebuilt_steinberg(pres, c, seed)
                assert got == [[str(x) for x in row] for row in want], \
                    (name, c.support, seed)


@pytest.mark.parametrize("name", list(catalog.INSTANCES))
def test_classical_spectrum_is_fixed_point_weights(name):
    # the joint spectrum of the A_i(0) is exactly the fixed-point weights:
    # at vertex B, u_i = 0 off B when a_i . x_B + theta_hat_i > 0 and h
    # otherwise, and on B the u_i solve sum_i a_ji u_i = c_j
    td = catalog.INSTANCES[name]()
    h, c = Fraction(1, 3), [Fraction(1, 5)] * td.d
    pres = ring(td).classical
    at = [QQ(x.numerator, x.denominator) for x in [h, *c]] + [QQ(0)] * td.k

    def exact(x):
        x = to_sympy(x)
        v = x.numer(*at) / x.denom(*at)
        return Fraction(int(v.numerator), int(v.denominator))

    rnd = random.Random(f"fixed-point:{name}")
    coef = [Fraction(rnd.randint(1, 97), rnd.randint(1, 97))
            for _ in range(td.n)]
    mats = [pres.multiplication_matrix(i) for i in range(td.n)]
    R = [[sum(coef[i] * exact(mats[i][a][b]) for i in range(td.n))
          for b in range(pres.rank)] for a in range(pres.rank)]
    weights = []
    for v in vertices(td):
        u = {}
        for i in range(td.n):
            if i not in v.basis:
                pairing = sum(td.a[j][i] * v.position[j] for j in range(td.d))
                u[i] = Fraction(0) if pairing + td.theta_hat[i] > 0 else h
        rows = [[td.a[j][i] for i in v.basis] for j in range(td.d)]
        rhs = [c[j] - sum(td.a[j][i] * x for i, x in u.items())
               for j in range(td.d)]
        u.update(zip(v.basis, solve_rational(rows, rhs)))
        weights.append(sum(coef[i] * u[i] for i in range(td.n)))
    x = sympy.Symbol("x")
    rat = lambda f: sympy.Rational(f.numerator, f.denominator)
    charpoly = sympy.Matrix([[rat(e) for e in row] for row in R]).charpoly(x)
    expected = sympy.Poly(sympy.prod([x - rat(w) for w in weights]), x)
    assert charpoly.all_coeffs() == expected.all_coeffs()


def seeded_q(n, seed):
    rng = np.random.default_rng(seed)
    return (0.15 + 0.3 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def near_hyperplane_q():
    # k = 40 of test_spectra_rank8_root_near_mirror_hyperplane
    rng = np.random.default_rng(1040)
    return (0.15 + (0.45 - 0.15) * rng.random(5)) * np.exp(
        2j * np.pi * rng.random(5))


ORACLE_INSTANCES = dict(catalog.INSTANCES,
                        k4=lambda: build_torus_data(*K4))


def off_wall_q(td, count, seed, gap=1e-3):
    """count seeded points of (C*)^n farther than gap from every wall."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        q = (0.15 + 0.3 * rng.random(td.n)) * np.exp(
            2j * np.pi * rng.random(td.n))
        if quantum_ring.wall_distance(ring(td).circuits, q) > gap:
            points.append(q)
    return points


@pytest.mark.parametrize("name", list(ORACLE_INSTANCES))
def test_ring_at_point_matches_symbolic_ring(name):
    # the ring built at (h, c, q) (the point-ring oracle) has the symbolic
    # staircase, and its matrices are the compiled symbolic A_i evaluated
    # at q, to 1e-13 relative, at 12 seeded points off the walls
    td = ORACLE_INSTANCES[name]()
    h, c = Fraction(1, 3), [Fraction(1, 5)] * td.d
    r = ring(td)
    nc = r.numeric(h, c)
    points = off_wall_q(td, 12, 700)
    if name == "rank8_d2":
        points.append(near_hyperplane_q())
    for q in points:
        pres = ring_at(r, h, c, q)
        assert pres.std == r.quantum.std
        for i, B in enumerate(nc.matrices_at(q)):
            A = np.array([[pres.field.to_complex(x) for x in row]
                          for row in pres.multiplication_matrix(i)])
            assert np.abs(A - B).max() <= 1e-13 * np.abs(A).max(), (q, i)
    # a batch of points gives what one call per point gives, on the
    # catalog (K4's differ by up to 1.5e-15 relative: the rounding of
    # the batched products)
    if name not in catalog.INSTANCES:
        return
    for q, B in zip(points, nc.matrices_at(np.array(points))):
        single = nc.matrices_at(q)
        assert B.shape == single.shape
        assert np.abs(B - single).max() <= 1e-15 * np.abs(single).max()


@pytest.mark.parametrize("name", list(catalog.INSTANCES))
def test_ring_at_point_matches_qq_i_oracle(name):
    # the first points of mirror-verify --seed 0 and --seed 1
    td = catalog.INSTANCES[name]()
    h, c = Fraction(1, 3), [Fraction(1, 5)] * td.d
    r = ring(td)
    for seed in (0, 1):
        q = seeded_q(td.n, seed)
        assert_matches_point_oracle(r, ring_at(r, h, c, q),
                                    QQIPointField.at(td, h, c, q))


@pytest.mark.parametrize("name", list(catalog.INSTANCES))
def test_generic_staircase_matches_qq_i_oracle(name):
    # the ring at a seeded random rational point (h, c, q), built as
    # ring_at builds it: it matches the QQ_I oracle and has the staircase
    # of the symbolic ring
    rnd = random.Random("generic-staircase")

    def draw():
        return Fraction(rnd.randint(1, 997), rnd.randint(1, 997))

    r = QuantumRing(catalog.INSTANCES[name]())
    F = PointField(draw(), [draw() for _ in range(r.td.d)],
                   [draw() for _ in range(r.td.k)])
    pres = build(r, F)
    assert pres.std == ring(r.td).quantum.std
    assert_matches_point_oracle(r, pres, QQIPointField.of(F))


@pytest.mark.parametrize("name", list(catalog.INSTANCES))
def test_border_columns_match_normal_forms(name):
    # the matrices read off the reduced basis equal one normal form per
    # column, exactly: both symbolic rings and the ring at 3 seeded points
    td = catalog.INSTANCES[name]()
    r = ring(td)
    for mode in ("quantum", "classical"):
        assert_columns_match_normal_forms(r.presentation(mode))
    for s in range(3):
        assert_columns_match_normal_forms(
            ring_at(r, Fraction(1, 3), [Fraction(1, 5)] * td.d,
                    seeded_q(td.n, 900 + s)))
