"""The sympy oracle of the ring at a point: the unchanged Buchberger run
over sympy's QQ_I at the same exact point, whose reduced basis, staircase
and rounded multiplication matrices the GaussianRational ring of
point_ring.py must repeat exactly."""

import struct
from fractions import Fraction

from sympy.polys.domains import QQ, QQ_I
from point_ring import iota_coordinates

from hypertoric.errors import SingularEvaluation
from hypertoric.upoly import (GrevlexOrder, UPoly, buchberger, normal_form,
                              staircase)


def qqi(re, im):
    """The QQ_I element re + im i of two Fractions."""
    return QQ_I(QQ(re.numerator, re.denominator),
                QQ(im.numerator, im.denominator))


class QQIPointField:
    """Q(i) with h, c_j and q^k fixed at exact values, on QQ_I: the duck
    type of point_ring.PointField that QuantumRing.generators uses."""

    zero = QQ_I.zero
    one = QQ_I.one

    def __init__(self, hbar, cvals, qk):
        self.h = self.exact(hbar)
        self.c = tuple(self.exact(c) for c in cvals)
        self.q = tuple(self.exact(x) for x in qk)

    @classmethod
    def at(cls, td, hbar, cvals, qn):
        qz = [cls.exact(complex(z)) for z in qn]
        return cls(hbar, cvals, iota_coordinates(td, qz, cls.one))

    @classmethod
    def of(cls, field):
        """The oracle field at the exact point of a PointField."""
        def conv(x):
            return qqi(*parts(x))
        return cls(conv(field.h), map(conv, field.c), map(conv, field.q))

    @staticmethod
    def exact(x):
        if isinstance(x, QQ_I.dtype):
            return x
        if isinstance(x, complex):
            return qqi(Fraction(x.real), Fraction(x.imag))
        return qqi(Fraction(x), Fraction(0))

    from_rational = exact

    @staticmethod
    def to_complex(x):
        try:
            return complex(float(x.x), float(x.y))
        except OverflowError:
            raise SingularEvaluation(
                "an exact value at the point overflows a float") from None

    def q_monomial(self, exps):
        out = self.one
        for g, e in zip(self.q, exps):
            if e:
                out = out * g**int(e)
        return out


def parts(x):
    """(real part, imaginary part) of a GaussianRational or a QQ_I
    element, as Fractions."""
    return (Fraction(int(x.x.numerator), int(x.x.denominator)),
            Fraction(int(x.y.numerator), int(x.y.denominator)))


def bits(z):
    """The bytes of a complex number, so that == is bitwise."""
    return struct.pack("<dd", z.real, z.imag)


def qqi_point_ring(r, F):
    """(reduced basis, staircase, rounded multiplication matrices) of the
    quantum ring of the QuantumRing r over the QQIPointField F."""
    td = r.td
    order = GrevlexOrder(td.n)
    gb = buchberger(r.generators(F), order)
    std = staircase(gb, order)
    mats = []
    for i in range(td.n):
        cols = []
        for m in std:
            shifted = tuple(e + (t == i) for t, e in enumerate(m))
            rem = normal_form(UPoly(td.n, {shifted: F.one}), gb, order)
            cols.append([bits(F.to_complex(rem.terms.get(s, F.zero)))
                         for s in std])
        mats.append([list(row) for row in zip(*cols)])
    return gb, std, mats


def assert_matches_point_oracle(r, pres, F):
    """The point presentation pres of r equals the QQ_I one over F: the
    same point, the same reduced basis coefficient by coefficient, the same
    staircase and bitwise-equal rounded matrices."""
    P = pres.field
    assert [parts(x) for x in (P.h, *P.c, *P.q)] == \
        [parts(x) for x in (F.h, *F.c, *F.q)]
    gb, std, mats = qqi_point_ring(r, F)
    assert pres.std == std
    assert [{m: parts(c) for m, c in g.terms.items()} for g in pres.gb] == \
        [{m: parts(c) for m, c in g.terms.items()} for g in gb]
    assert [[[bits(P.to_complex(x)) for x in row]
             for row in pres.multiplication_matrix(i)]
            for i in range(r.td.n)] == mats
