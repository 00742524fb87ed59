"""The point field Q(i) of the point-ring oracle (point_ring.py): exact
conversion of floats and of q^k, and GaussianRational arithmetic against
sympy's QQ_I.  The localized coefficient ring: WallRing arithmetic and
printing agree with sympy's fraction field."""

import random
import struct
from fractions import Fraction
from math import gcd
from operator import ge

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from fraction_oracle import sympy_field, to_sympy
from point_oracle import QQIPointField, bits, parts, qqi
from point_ring import GaussianRational, PointField, ring_at

from hypertoric.catalog import rank8_d2
from hypertoric.errors import (BudgetExceeded, HypertoricError,
                               OutsideLocalization, SingularEvaluation)
from hypertoric.params import (EXP_LIMIT, WallRing, _Packing, _pmul,
                               _wall_divider)
from hypertoric.quantum_ring import ring


def as_fraction(x):
    return Fraction(int(x.numerator), int(x.denominator))


def test_conversion_is_exact_and_rounds_back():
    rng = np.random.default_rng(0)
    zs = [complex(x, y) for x, y in
          rng.normal(size=(40, 2)) * 10.0 ** rng.integers(-300, 300, (40, 2))]
    zs += [complex(0.1, -1 / 3), complex(5e-324, -1.7976931348623157e308),
           complex(-2.5, 2.2250738585072014e-308)]
    for z in zs:
        x = PointField.exact(z)
        assert (as_fraction(x.x), as_fraction(x.y)) == \
            (Fraction(z.real), Fraction(z.imag))
        back = PointField.to_complex(x)
        assert struct.pack("<dd", back.real, back.imag) == \
            struct.pack("<dd", z.real, z.imag)


def gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gauss_pow(a, e):
    if e < 0:
        norm = a[0] ** 2 + a[1] ** 2
        a, e = (a[0] / norm, -a[1] / norm), -e
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = gauss_mul(out, a)
    return out


def test_q_k_is_exact_with_negative_iota():
    # q^k_l = prod_i q_i^{iota_il}, here with iota entries of both signs
    td = rank8_d2()
    assert any(w < 0 for row in td.iota for w in row)
    rng = np.random.default_rng(11)
    q = (0.15 + 0.3 * rng.random(td.n)) * np.exp(2j * np.pi * rng.random(td.n))
    field = ring_at(ring(td), Fraction(1, 3), [Fraction(1, 5)] * 2, q).field
    for l in range(td.k):
        want = (Fraction(1), Fraction(0))
        for i in range(td.n):
            z = (Fraction(q[i].real), Fraction(q[i].imag))
            want = gauss_mul(want, gauss_pow(z, td.iota[i][l]))
        got = field.q[l]
        assert (as_fraction(got.x), as_fraction(got.y)) == want


def wall_ring():
    """The WallRing of d = 1 with walls 1 - q1, 1 + q2 and 1 - q1/q2, and
    the sympy field of the same variables."""
    return sympy_field(1, 2), WallRing(1, 2, [(1, (1, 0)), (-1, (0, 1)),
                                              (1, (1, -1))])


def known_factors(S, D):
    """(WallElement, sympy element) pairs of the known factors: h, the
    q_l and the walls."""
    q1, q2 = D.q
    walls = [(D.one - q1, S.one - S.q[0]), (D.one + q2, S.one + S.q[1]),
             (D.one - q1 / q2, S.one - S.q[0] / S.q[1])]
    return [(D.h, S.h), *zip(D.q, S.q), *walls]


def random_fraction(S, D, rnd, small=False):
    """A random numerator in h, c, q over a random product of the known
    factors, formed in the WallRing and in the sympy field."""
    gens = [(D.h, S.h), *zip(D.c, S.c), *zip(D.q, S.q)]
    num, ref = D.zero, S.zero
    for _ in range(rnd.randint(1, 2 if small else 4)):
        k = Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))
        term, tref = D.from_rational(k), S.from_rational(k)
        for g, gref in gens:
            e = rnd.randint(0, 1 if small else 2)
            term, tref = term * g ** e, tref * gref ** e
        num, ref = num + term, ref + tref
    for f, fref in known_factors(S, D):
        e = rnd.randint(0, 1 if small else 2)
        num, ref = num / f ** e, ref / fref ** e
    return num, ref


def test_wall_ring_arithmetic_matches_sympy_field():
    S, D = wall_ring()
    rnd = random.Random("wall-ring")
    walls = [f for f, _ in known_factors(S, D)]
    for _ in range(60):
        (a, x), (b, y) = (random_fraction(S, D, rnd),
                          random_fraction(S, D, rnd))
        if rnd.random() < 0.3:
            # a sum in which a wall cancels out of the denominator
            w = walls[rnd.randrange(len(walls))]
            a, b, y = a, -a + w * b, -x + to_sympy(w) * y
        assert to_sympy(a) == x and to_sympy(b) == y
        assert to_sympy(a + b) == x + y
        assert to_sympy(a - b) == x - y
        assert to_sympy(a * b) == x * y
        assert to_sympy(-a) == -x
        assert bool(a) == bool(x) and bool(a - a) is False
        assert (a == b) == (x == y) and a * b == b * a
        assert (a == 1) == (x == 1)
        assert a / D.one == a * 1 == a


def test_wall_ring_inverts_products_of_known_factors():
    S, D = wall_ring()
    rnd = random.Random("wall-ring-units")
    for _ in range(60):
        k = Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 9), rnd.randint(1, 9))
        a, x = D.from_rational(k), S.from_rational(k)
        for f, fref in known_factors(S, D):
            e = rnd.randint(-2, 2)
            a, x = a * f ** e, x * fref ** e
        assert to_sympy(1 / a) == 1 / x
        assert to_sympy(a.inverse()) == S.one / x
        assert to_sympy(a * a.inverse()) == S.one
        assert a * a.inverse() == 1


def test_wall_ring_refuses_other_factors():
    S, D = wall_ring()
    q1, q2 = D.q
    with pytest.raises(OutsideLocalization):
        q1 / (D.h + q2)
    with pytest.raises(OutsideLocalization):
        (q1 * (D.one - q1 * q2)).inverse()
    with pytest.raises(OutsideLocalization):
        (D.one + q1).inverse()
    with pytest.raises(ZeroDivisionError):
        D.zero.inverse()


@pytest.mark.parametrize("m1, m2, eps", [
    ((0, 1, 0), (0, 0, 0), 1), ((0, 1, 0), (0, 0, 1), 1),
    ((0, 1, 1), (0, 0, 0), 1), ((0, 1, 0), (0, 0, 0), -1),
    ((0, 2, 0), (0, 0, 1), -1), ((0, 2, 0), (0, 0, 0), -1)],
    ids=["q-1", "q1-q2", "q1q2-1", "q+1", "q1^2+q2", "q^2+1"])
def test_wall_divider_matches_polynomial_division(m1, m2, eps):
    # half the cofactors vanish at the point of the wall that the divider
    # tests first, so that test passes and the full one must decide; the
    # oracle divides by the wall in sympy's ZZ[h, q1, q2].  The restriction
    # to the wall vanishes exactly when the division goes through.  The
    # divider works on packed monomials, and the oracle on their tuples
    from sympy import ZZ
    from sympy.polys.rings import ring as sympy_ring
    R, *_ = sympy_ring("h,q1,q2", ZZ)
    packing = _Packing(3)
    f = {m1: 1, m2: -eps}
    fp = {packing.pack(m): c for m, c in f.items()}
    odd = next((t for t in range(3) if (m1[t] - m2[t]) & 1), None)
    sign = (lambda m: 1) if eps > 0 else (
        lambda m: -1 if odd is not None and m[odd] & 1 else 1)
    divide, restrict = _wall_divider(packing, m1, m2, eps)
    rnd = random.Random(f"wall-divider-{m1}-{m2}-{eps}")
    for _ in range(40):
        g = {}
        for _ in range(rnd.randint(1, 4)):
            m = tuple(rnd.randint(0, 2) for _ in range(3))
            g[m] = g.get(m, 0) + rnd.randint(-5, 5)
        g = {m: c for m, c in g.items() if c}
        if g and rnd.random() < 0.5:   # make g vanish at that point
            value = sum(sign(m) * c for m, c in g.items())
            zero = (0, 0, 0)
            g[zero] = g.get(zero, 0) - value
            g = {m: c for m, c in g.items() if c}
        if not g:
            continue
        p = {packing.pack(m): c for m, c in g.items()}
        for _ in range(rnd.randint(0, 2)):
            p = _pmul(p, fp, packing.high)
        want, rest = 0, R.from_dict(packing.unpack_poly(p))
        while True:
            quo, rem = divmod(rest, R.from_dict(f))
            if rem:
                break
            want, rest = want + 1, quo
        quotient, got = divide(p, None)
        assert got == want
        # p restricts to zero on the wall exactly when the wall divides it
        assert any(restrict(p).values()) == (not want)
        assert R.from_dict(packing.unpack_poly(quotient)) == rest
        assert divide(p, 0) == (p, 0)


# exponent tuples of h, c1, q1, q2, small enough for sympy's dense
# arithmetic; the q parts of the walls include betas with two positive
# entries, whose walls are x^beta - eps
EXPONENTS = st.tuples(*[st.integers(0, 3)] * 4)
POLYS = st.dictionaries(EXPONENTS, st.integers(-6, 6).filter(bool),
                        min_size=1, max_size=5)
BETAS = st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (1, -1),
                         (2, -1), (-1, 3), (3, 2)])


def wall_monomials(sign, beta):
    """(m1, m2, eps) of the wall 1 - sign q^beta over h, c1, q1, q2."""
    plus = (0, 0) + tuple(max(b, 0) for b in beta)
    minus = (0, 0) + tuple(max(-b, 0) for b in beta)
    return max(plus, minus), min(plus, minus), sign


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(POLYS, POLYS, BETAS, st.sampled_from([1, -1]))
def test_packed_arithmetic_matches_tuple_oracle(g1, g2, beta, sign):
    # _pmul, the wall's normal form and division on packed monomials
    # against sympy's ZZ[h, c1, q1, q2] on the exponent tuples.  The normal
    # form is the remainder of the lex division by the wall: no term of it
    # is divisible by x^m1, and it differs from p by a multiple of the wall
    from sympy import ZZ
    from sympy.polys.rings import ring as sympy_ring
    R, *_ = sympy_ring("h,c1,q1,q2", ZZ)
    packing = _Packing(4)
    pack, unpack = packing.pack, packing.unpack
    m1, m2, eps = wall_monomials(sign, beta)
    f = R.from_dict({m1: 1, m2: -eps})
    p1 = {pack(m): c for m, c in g1.items()}
    p2 = {pack(m): c for m, c in g2.items()}
    prod = _pmul(p1, p2, packing.high)
    assert R.from_dict(packing.unpack_poly(prod)) == \
        R.from_dict(g1) * R.from_dict(g2)

    divide, normal_form = _wall_divider(packing, m1, m2, eps)
    fp = {pack(m1): 1, pack(m2): -eps}
    once = _pmul(p1, fp, packing.high)
    twice = _pmul(once, fp, packing.high)
    ref1 = R.from_dict(g1)
    for p, ref in ((p1, ref1), (once, ref1 * f), (twice, ref1 * f**2)):
        rest = {unpack(m): c for m, c in normal_form(p).items()}
        assert all(rest.values())
        assert not any(all(map(ge, r, m1)) for r in rest)
        moved = R.from_dict(rest) if rest else R.zero
        assert (ref - moved).rem(f) == 0
        assert moved == ref.rem(f)
        quotient, k = divide(p, None)
        qref = R.from_dict(packing.unpack_poly(quotient))
        assert qref * f**k == ref
        assert qref.rem(f) != 0
        assert (not rest) == (k > 0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(POLYS, POLYS, BETAS, st.sampled_from([1, -1]), st.integers(0, 2))
def test_on_wall_matches_sympy(ga, gy, beta, sign, e):
    # x = a / h^e + (1 - sign q^beta) y restricts to a / h^e on its wall,
    # for a free of q and any y without the wall in its denominator;
    # adding a q that is not constant on the wall leaves no constant
    other = (1, (1, 0)) if (sign, beta) != (1, (1, 0)) else (-1, (0, 1))
    D = WallRing(1, 2, [(sign, beta), other])
    S = sympy_field(1, 2)
    i = D.wall_index(sign, beta)
    h, (c1,), (q1, q2) = D.h, D.c, D.q
    # a denominator of y: q1 and the other wall
    den = q1 * (D.one - D.from_rational(other[0]) * D.q_monomial(other[1]))

    def element(g, free_of_q=False):
        out = D.zero
        for (eh, ec, e1, e2), k in g.items():
            out = out + (h**eh * c1**ec * (q1**e1 * q2**e2 if not free_of_q
                                           else D.one)) * k
        return out

    a = element(ga, free_of_q=True) / h**e
    y = element(gy) / den
    wall = D.one - D.from_rational(sign) * D.q_monomial(beta)
    x = a + wall * y
    got = D.on_wall(x, i)
    assert got == a and to_sympy(got) == to_sympy(a)
    free = q1 if beta[1] else q2
    assert D.on_wall(x + free, i) is None
    assert D.on_wall(D.zero, i) == D.zero
    with pytest.raises(ValueError):
        D.on_wall(x / wall, i)
    assert to_sympy(x) == to_sympy(a) + (S.one - S.from_rational(sign)
                                         * S.q_monomial(beta)) * to_sympy(y)


def test_exponent_outside_the_field_is_a_typed_error():
    # the packed fields hold exponents below EXP_LIMIT: a wall, a
    # q-monomial or a product that needs more raises BudgetExceeded
    with pytest.raises(BudgetExceeded):
        WallRing(1, 1, [(1, (EXP_LIMIT,))])
    D = WallRing(1, 2, [(1, (1, 0))])
    with pytest.raises(BudgetExceeded):
        D.q_monomial((0, EXP_LIMIT))
    big = D.q_monomial((EXP_LIMIT - 1, 0))
    assert isinstance(big * D.h, type(big))
    with pytest.raises(HypertoricError):
        big * D.q[0]
    with pytest.raises(HypertoricError):
        big * (D.h + D.q[0])


def test_render_matches_sympy_str():
    # the printer on small random fractions: signs, single terms, constant
    # and monomial numerators and denominators, powers
    S, D = wall_ring()
    rnd = random.Random("wall-ring-render")
    for _ in range(300):
        a, x = random_fraction(S, D, rnd, small=True)
        assert D.render(a) == str(x)
        assert D.render(-a) == str(-x)


def gaussian_sample(rnd):
    """Seeded Gaussian rationals as (re, im) Fraction pairs: dyadic floats
    over the whole exponent range with its extremes, small rationals, ints
    and zero."""
    rng = np.random.default_rng(rnd.randrange(2**32))
    floats = list((rng.normal(size=(12, 2))
                   * 10.0 ** rng.integers(-300, 300, (12, 2))).ravel())
    floats += [5e-324, -1.7976931348623157e308, 2.2250738585072014e-308, 0.1]
    out = [(0, 0), (1, 0), (0, 1), (-3, 0)]
    for _ in range(12):
        out.append((Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)),
                    Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))))
        out.append((rnd.randint(-99, 99), rnd.choice([0, rnd.randint(-9, 9)])))
        out.append((Fraction(rnd.choice(floats)),
                    rnd.choice([Fraction(0), Fraction(rnd.choice(floats))])))
    return [(Fraction(a), Fraction(b)) for a, b in out]


def test_gaussian_rational_matches_qq_i():
    rnd = random.Random("gaussian-rational")
    sample = gaussian_sample(rnd)
    new = [GaussianRational(*p) for p in sample]
    old = [qqi(*p) for p in sample]

    def same(x, y):
        assert isinstance(x, GaussianRational) and parts(x) == parts(y)
        assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
        try:
            want = bits(QQIPointField.to_complex(y))
        except SingularEvaluation:
            with pytest.raises(SingularEvaluation):
                PointField.to_complex(x)
        else:
            assert bits(PointField.to_complex(x)) == want

    for x, y in zip(new, old):
        same(x, y)
        same(-x, -y)
        assert bool(x) == bool(y)
        for e in (0, 1, 2, 3):
            same(x**e, y**e)
            if y:
                same(x**-e, y**-e)
    for _ in range(400):
        s, t = rnd.randrange(len(new)), rnd.randrange(len(new))
        x, y, u, v = new[s], new[t], old[s], old[t]
        same(x + y, u + v)
        same(x - y, u - v)
        same(x * y, u * v)
        if v:
            same(x / y, u / v)
            assert (x * y) / y == x and hash((x * y) / y) == hash(x)
        assert (x == y) == (sample[s] == sample[t]) == (u == v)
        if x == y:
            assert hash(x) == hash(y)
        # ints and Fractions on either side
        k = rnd.choice([0, 1, -2, Fraction(3, 7)])
        w = qqi(Fraction(k), Fraction(0))
        same(x + k, u + w)
        same(k + x, w + u)
        same(x - k, u - w)
        same(k - x, w - u)
        same(x * k, u * w)
        same(k * x, w * u)
        if k:
            same(x / k, u / w)
        if v:
            same(k / y, w / v)
        assert (x == k) == (parts(x) == (Fraction(k), 0))
        if x == k:
            assert hash(x) == hash(k)


def test_gaussian_sum_of_products_matches_qq_i():
    # one common denominator and one gcd give the sum the QQ_I products
    # and sums give, in lowest terms, with None standing for 1
    rnd = random.Random("sum-of-products")
    sample = gaussian_sample(rnd)
    new = [GaussianRational(*p) for p in sample]
    old = [qqi(*p) for p in sample]
    for _ in range(200):
        pairs, want = [], QQIPointField.zero
        for _ in range(rnd.randint(1, 6)):
            s = rnd.randrange(len(new))
            if rnd.random() < 0.3:
                pairs.append((new[s], None))
                want += old[s]
            else:
                t = rnd.randrange(len(new))
                pairs.append((new[s], new[t]))
                want += old[s] * old[t]
        got = GaussianRational.sum_of_products(pairs)
        assert parts(got) == parts(want)
        assert got.d > 0 and gcd(got.a, got.b, got.d) == 1


def test_gaussian_rational_refuses_division_by_zero():
    x = GaussianRational(Fraction(2, 3), -1)
    zero = PointField.zero
    assert not zero and zero == 0 and x
    for f in (lambda: x / zero, lambda: x / 0, lambda: 1 / zero,
              lambda: zero.inverse(), lambda: zero**-1,
              lambda: x / Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            f()
    assert x / 1 is x and x / PointField.one is x
