"""The equivariant parameter field Q(h, c_1..c_d, q_1..q_k).

Coefficients of all ring presentations live here.  Backed by sympy's
fraction fields (exact, auto-cancelling, differentiable); this module pins
the generator layout and provides exact/complex evaluation and exact
specialization of q, so nothing else in the package touches sympy directly.

h is the equivariant weight of the dilation action, c_j the base torus
weights, q_l the Kahler (Novikov) coordinates in the iota basis.  Laurent
monomials q^beta with negative entries are ordinary field elements.
"""

from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.fields import field as _field


class ParamField:
    def __init__(self, d, nq, qnames=None):
        if qnames is None:
            qnames = tuple(f"q{l + 1}" for l in range(nq))
        names = ["h"] + [f"c{j + 1}" for j in range(d)] + list(qnames)
        self.F, *gens = _field(",".join(names), QQ)
        self.d = d
        self.nq = nq
        self.names = tuple(names)
        self.h = gens[0]
        self.c = tuple(gens[1:1 + d])
        self.q = tuple(gens[1 + d:])
        self.gens = tuple(gens)
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

    def is_zero(self, fr):
        return not fr

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
