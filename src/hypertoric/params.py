"""Coefficient fields of the ring presentations.

ParamField is the equivariant parameter field Q(h, c_1..c_d, q_1..q_k) of
the symbolic presentations.  It is backed by sympy's fraction fields
(exact, auto-cancelling, differentiable); this module pins the generator
layout and provides exact/complex evaluation and exact specialization of q.

PointField is Q(i) with h, c and q fixed at one exact point: the
coefficient field of a presentation at a numeric q.  A float is a dyadic
rational, so each coordinate of a complex q converts to a Gaussian
rational with no rounding, and values round once, back to complex, at the
end.  It is backed by sympy's QQ_I, loaded with the same domains module.

iota_coordinates is the one routine that forms q^k from a point of
(C*)^n, exactly (PointField.at) or in complex floats (the numeric
connection).

Nothing else in the package touches sympy directly.  h is the equivariant
weight of the dilation action, c_j the base torus weights, q_l the Kahler
(Novikov) coordinates in the iota basis.  Laurent monomials q^beta with
negative entries are ordinary field elements.
"""

from fractions import Fraction

from sympy.polys.domains import QQ, QQ_I
from sympy.polys.fields import field as _field

from .errors import SingularEvaluation


def iota_coordinates(td, qz, one):
    """q^k_l = prod_i q_i^{iota_il}: the iota-basis coordinates of the point
    qz of (C*)^n, in the arithmetic of qz's entries and one (exact or
    complex)."""
    qk = []
    for l in range(td.k):
        acc = one
        for i in range(td.n):
            w = td.iota[i][l]
            if w:
                acc = acc * qz[i] ** w
        qk.append(acc)
    return qk


class ParamField:
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
        """q_1^{e_1} ... q_k^{e_k}, integer exponents of either sign."""
        out = self.one
        for g, e in zip(self.q, exps):
            if e:
                out = out * g**int(e)
        return out

    def euler_q(self, fr, l):
        """q_l * d/dq_l applied to fr."""
        return fr.diff(self.q[l]) * self.q[l]

    @staticmethod
    def poly_terms(p):
        """Terms of a numerator/denominator as (exponent tuple, Fraction)."""
        return [(m, Fraction(int(c.numerator), int(c.denominator)))
                for m, c in p.terms()]

    def quotient(self, numer, denom):
        """numer / denom from two polynomials, without cancelling common
        factors; fit for at_q, which cancels."""
        return self.F.raw_new(numer, denom)

    def evaluate(self, fr, values):
        """Evaluate fr at values (one per generator, Fraction or complex).

        Exact if all values are Fractions, complex otherwise.  Raises
        ZeroDivisionError if the denominator vanishes (callers translate
        into SingularEvaluation / ParameterDegeneracy as appropriate).
        """
        num = self._eval_poly(fr.numer, values)
        den = self._eval_poly(fr.denom, values)
        if isinstance(den, Fraction) and den == 0:
            raise ZeroDivisionError("denominator vanished at exact point")
        return num / den

    @staticmethod
    def _eval_poly(p, values):
        total = None
        for m, c in p.terms():
            term = Fraction(int(c.numerator), int(c.denominator))
            for e, v in zip(m, values):
                if e:
                    term = term * v**e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def at_q(self, fr, qvals):
        """fr with each q_l set to the rational qvals[l], an element of this
        field free of q.  Raises ZeroDivisionError if the denominator
        vanishes there."""
        ring = self.F.ring
        point = [(ring.gens[1 + self.d + l], QQ(v.numerator, v.denominator))
                 for l, v in enumerate(map(Fraction, qvals))]
        den = fr.denom.subs(point)
        if not den:
            raise ZeroDivisionError("denominator vanished at the q point")
        return self.F.new(fr.numer.subs(point), den)

    def render(self, fr):
        return str(fr)


class PointField:
    """Q(i) with h, c_j and the iota-basis coordinates q_l fixed at exact
    values; duck-types the part of ParamField that builds generators."""

    zero = QQ_I.zero
    one = QQ_I.one

    def __init__(self, hbar, cvals, qk):
        self.h = self.exact(hbar)
        self.c = tuple(self.exact(c) for c in cvals)
        self.q = tuple(self.exact(x) for x in qk)

    @classmethod
    def at(cls, td, hbar, cvals, qn):
        """The field at the numeric point qn of (C*)^n: each coordinate of
        qn is converted exactly, and q^k is formed from them exactly."""
        qz = [cls.exact(complex(z)) for z in qn]
        return cls(hbar, cvals, iota_coordinates(td, qz, cls.one))

    @staticmethod
    def exact(x):
        """x as a Gaussian rational, exactly: x is a rational (Fraction,
        int or string), a float, a complex or already an element."""
        if isinstance(x, QQ_I.dtype):
            return x
        if isinstance(x, complex):
            re, im = Fraction(x.real), Fraction(x.imag)
        else:
            re, im = Fraction(x), Fraction(0)
        return QQ_I(QQ(re.numerator, re.denominator),
                    QQ(im.numerator, im.denominator))

    from_rational = exact

    @staticmethod
    def to_complex(x):
        """The nearest complex number: real and imaginary parts are each
        rounded once.  SingularEvaluation if a part overflows a float."""
        try:
            return complex(float(x.x), float(x.y))
        except OverflowError:
            raise SingularEvaluation(
                "an exact value at the point overflows a float") from None

    def q_monomial(self, exps):
        """q_1^{e_1} ... q_k^{e_k}, integer exponents of either sign."""
        out = self.one
        for g, e in zip(self.q, exps):
            if e:
                out = out * g**int(e)
        return out
