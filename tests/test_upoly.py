import random
from fractions import Fraction

import pytest

from hypertoric.errors import NotZeroDimensional
from hypertoric.upoly import (
    GrevlexOrder,
    UPoly,
    buchberger,
    mon_lcm,
    normal_form,
    s_polynomial,
    staircase,
)

ONE = Fraction(1)


def P(nvars, *terms):
    d = {}
    for c, m in terms:
        d[tuple(m)] = Fraction(c)
    return UPoly(nvars, d)


def test_order_key_grevlex():
    # default precedence u2 > u1 on 2 vars
    o = GrevlexOrder(2)
    u1 = (1, 0)
    u2 = (0, 1)
    assert o.key(u2) > o.key(u1)
    # classic grevlex tie-break on equal degree: compare from the lowest
    # precedence variable, fewer of it wins
    o3 = GrevlexOrder(3)  # x = u3 > y = u2 > z = u1
    x2z = (1, 0, 2)
    xy2 = (0, 2, 1)
    assert o3.key(xy2) > o3.key(x2z)  # x*y^2 > x^2*z in grevlex


def test_arithmetic_and_nf():
    o = GrevlexOrder(2)
    u1 = P(2, (1, (1, 0)))
    u2 = P(2, (1, (0, 1)))
    f = (u1 + u2) * (u1 - u2)
    assert f == P(2, (1, (2, 0)), (-1, (0, 2)))
    r = normal_form(f, [u1 - u2], o)
    # mod (u1 - u2): LT is u2 under default order, so u2 -> u1
    assert r.is_zero() or r == P(2)
    g = normal_form(u2 * u2, [u1 - u2], o)
    assert g == P(2, (1, (2, 0)))


def test_upoly_is_unhashable():
    # a UPoly is a mutable dict-backed value, compared by ==, and has no
    # value hash (its coefficients need not be hashable either)
    with pytest.raises(TypeError):
        hash(P(2, (1, (1, 0))))


def test_spoly():
    o = GrevlexOrder(2)
    f = P(2, (1, (2, 0)), (1, (0, 0)))     # u1^2 + 1
    g = P(2, (1, (1, 1)), (-1, (0, 0)))    # u1*u2 - 1
    sp = s_polynomial(f, g, o)
    assert sp == P(2, (1, (0, 1)), (1, (1, 0)))  # u2 + u1


def _to_sympy(polys, nvars):
    import sympy
    xs = sympy.symbols(f"x0:{nvars}")
    # my precedence u_n > ... > u_1 maps to sympy gens order (x_{n-1}, ..., x_0)
    gens = tuple(reversed(xs))
    exprs = []
    for p in polys:
        e = 0
        for m, c in p.terms.items():
            t = sympy.Rational(c.numerator, c.denominator)
            for i, ei in enumerate(m):
                t *= xs[i] ** ei
            e += t
        exprs.append(e)
    return exprs, xs, gens


def _from_sympy(expr, xs, nvars):
    import sympy
    p = sympy.Poly(expr, *xs)
    d = {}
    for mon, c in zip(p.monoms(), p.coeffs()):
        d[tuple(int(e) for e in mon)] = Fraction(int(sympy.fraction(c)[0]),
                                                 int(sympy.fraction(c)[1]))
    return UPoly(nvars, d)


@pytest.mark.parametrize("seed", range(6))
def test_buchberger_matches_sympy(seed):
    import sympy
    rnd = random.Random(seed)
    nvars = rnd.choice([2, 3])
    o = GrevlexOrder(nvars)
    gens = []
    for _ in range(rnd.randint(2, 3)):
        terms = []
        for _ in range(rnd.randint(2, 4)):
            m = tuple(rnd.randint(0, 2) for _ in range(nvars))
            c = rnd.randint(-4, 4)
            if c:
                terms.append((c, m))
        if terms:
            gens.append(P(nvars, *terms))
    if not gens:
        return
    mine = buchberger(gens, o)
    exprs, xs, sgens = _to_sympy(gens, nvars)
    gb = sympy.groebner(exprs, *sgens, order="grevlex")
    theirs = [_from_sympy(e, xs, nvars) for e in gb.exprs]

    def monic_set(polys):
        out = set()
        for p in polys:
            _, lc = p.leading(o)
            out.add(frozenset(p.scale(1 / lc).terms.items()))
        return out

    # sympy normalizes to primitive integer content, we to monic
    assert monic_set(mine) == monic_set(theirs)


def test_staircase_univariate_style():
    # ideal (u2 - u1, u1^2 - 2) in 2 vars: staircase {1, u1}, rank 2
    o = GrevlexOrder(2)
    gens = [P(2, (1, (0, 1)), (-1, (1, 0))), P(2, (1, (2, 0)), (-2, (0, 0)))]
    gb = buchberger(gens, o)
    sm = staircase(gb, o)
    assert sm == [(0, 0), (1, 0)]


def test_staircase_not_zero_dimensional():
    o = GrevlexOrder(2)
    gb = buchberger([P(2, (1, (1, 1)))], o)  # ideal (u1*u2)
    with pytest.raises(NotZeroDimensional):
        staircase(gb, o)


def test_gb_deterministic():
    o = GrevlexOrder(3)
    gens = [P(3, (1, (1, 1, 0)), (-1, (0, 0, 1))),
            P(3, (1, (0, 1, 1)), (-1, (1, 0, 0))),
            P(3, (2, (2, 0, 0)), (1, (0, 0, 0)))]
    g1 = buchberger(gens, o)
    g2 = buchberger(list(gens), o)
    assert g1 == g2


def test_mon_lcm():
    assert mon_lcm((1, 0, 2), (0, 3, 1)) == (1, 3, 2)
