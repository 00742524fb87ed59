"""The fraction-field oracle of the symbolic presentations: sympy's field
Q(h, c, q), which cancels with a gcd after every operation.

SympyField is the coefficient field on sympy's FracField, with the duck
type of params.WallRing that the generators use; to_sympy converts a
WallElement into it through WallRing.fraction, which decodes the packed
monomials (F.new cancels, so the result is sympy's canonical pair
whatever the input).  fraction_field_ring runs Buchberger directly on
SympyField coefficients and reads staircase, relations and multiplication
matrices off that basis."""

from fractions import Fraction
from functools import cache

from sympy.polys.domains import QQ
from sympy.polys.fields import field as _field

from hypertoric.upoly import (GrevlexOrder, UPoly, buchberger, normal_form,
                              staircase)


class SympyField:
    """Q(h, c_1..c_d, q_1..q_k) on sympy's fraction field."""

    def __init__(self, d, nq, qnames=None):
        if qnames is None:
            qnames = tuple(f"q{l + 1}" for l in range(nq))
        names = ["h"] + [f"c{j + 1}" for j in range(d)] + list(qnames)
        self.F, *gens = _field(",".join(names), QQ)
        self.d = d
        self.nq = nq
        self.h = gens[0]
        self.c = tuple(gens[1:1 + d])
        self.q = tuple(gens[1 + d:])
        self.zero = self.F.zero
        self.one = self.F.one

    def from_rational(self, x):
        x = Fraction(x)
        return self.F(QQ(x.numerator, x.denominator))

    def q_monomial(self, exps):
        out = self.one
        for g, e in zip(self.q, exps):
            if e:
                out = out * g**int(e)
        return out

    def at_q(self, fr, qvals):
        """fr with each q_l set to the rational qvals[l]; ZeroDivisionError
        if the denominator vanishes there."""
        ring = self.F.ring
        point = [(ring.gens[1 + self.d + l], QQ(v.numerator, v.denominator))
                 for l, v in enumerate(map(Fraction, qvals))]
        den = fr.denom.subs(point)
        if not den:
            raise ZeroDivisionError("denominator vanished at the q point")
        return self.F.new(fr.numer.subs(point), den)

    @staticmethod
    def render(fr):
        return str(fr)


@cache
def sympy_field(d, nq):
    return SympyField(d, nq)


def to_sympy(x, S=None):
    """The WallElement x as an element of the SympyField S (by default
    the one of x's WallRing), cancelled by sympy."""
    W = x.dom
    if S is None:
        S = sympy_field(W.d, W.nq)
    ring = S.F.ring
    num, den = W.fraction(x)
    return S.F.new(ring.from_dict({m: QQ(c) for m, c in num.items()}),
                   ring.from_dict({m: QQ(c) for m, c in den.items()}))


def to_sympy_matrix(M):
    return [[to_sympy(x) for x in row] for row in M]


def fraction_field_ring(r, mode):
    """(staircase, relation strings, multiplication matrices) of the
    presentation of the QuantumRing r in mode, over the SympyField."""
    td = r.td
    F = sympy_field(td.d, td.k)
    order = GrevlexOrder(td.n)
    gb = buchberger(r.generators(F, mode), order)
    std = staircase(gb, order)
    names = [f"u{i + 1}" for i in range(td.n)]
    rels = [g.render(names, coeff_str=F.render) for g in gb]
    mats = []
    for i in range(td.n):
        cols = []
        for m in std:
            shifted = tuple(e + (t == i) for t, e in enumerate(m))
            rem = normal_form(UPoly(td.n, {shifted: F.one}), gb, order)
            cols.append([rem.terms.get(s, F.zero) for s in std])
        mats.append([list(row) for row in zip(*cols)])
    return std, rels, mats


def assert_matches_fraction_field(r, mode):
    """The presentation r.presentation(mode), built in the WallRing, equals
    the fraction-field one term for term."""
    pres = r.presentation(mode)
    std, rels, mats = fraction_field_ring(r, mode)
    assert pres.std == std
    assert pres.relation_strings() == rels
    assert [to_sympy_matrix(pres.multiplication_matrix(i))
            for i in range(r.td.n)] == mats
    return pres
