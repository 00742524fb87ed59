"""Coefficient fields and rings of the ring presentations.

ParamField is the equivariant parameter field Q(h, c_1..c_d, q_1..q_k) of
the symbolic presentations.  It is backed by sympy's fraction fields
(exact, auto-cancelling, differentiable); this module pins the generator
layout and provides exact specialization of q.

WallRing is the ring the Groebner computations over Q(h, c, q) run in:
Q[h, c, q] localized at the q_l and at the wall polynomials
q^{beta-} -+ q^{beta+} of the circuits.  An element is a numerator over Q
and an exponent vector over those known factors, so no gcd is ever taken:
products and sums only divide known factors out of the numerator, exactly,
by trial division.  Inverting an element whose numerator has any other
factor raises OutsideLocalization.  Results become ParamField elements
once, at the end (WallRing.to_field), again with no gcd: they are in
lowest terms already.

PointField is Q(i) with h, c and q fixed at one exact point: the
coefficient field of a presentation at a numeric q.  A float is a dyadic
rational, so each coordinate of a complex q converts to a Gaussian
rational with no rounding, and values round once, back to complex, at the
end.  Its elements are GaussianRationals: (a + b i) / d on Python ints in
lowest terms, one gcd per operation.

iota_coordinates is the one routine that forms q^k from a point of
(C*)^n, exactly (PointField.at) or in complex floats (the numeric
connection).

Nothing else in the package touches sympy directly.  h is the equivariant
weight of the dilation action, c_j the base torus weights, q_l the Kahler
(Novikov) coordinates in the iota basis.  Laurent monomials q^beta with
negative entries are ordinary field elements.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from sympy.polys.domains import QQ
from sympy.polys.fields import field as _field

from .errors import OutsideLocalization, SingularEvaluation

_new = object.__new__


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

    @staticmethod
    def poly_terms(p):
        """Terms of a numerator/denominator as (exponent tuple, Fraction)."""
        return [(m, Fraction(int(c.numerator), int(c.denominator)))
                for m, c in p.terms()]

    def quotient(self, numer, denom):
        """numer / denom from two polynomials, without cancelling common
        factors; fit for at_q, which cancels."""
        return self.F.raw_new(numer, denom)

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


class WallRing:
    """Q[h, c, q] localized at the q_l and at the wall polynomials, the
    numerators of 1 - s for each Laurent monomial s in shifts (the q^S of
    the circuits).  Elements are WallElements; duck-types the coefficient
    arithmetic that upoly needs (+, -, *, /, bool, == 1)."""

    def __init__(self, field, shifts):
        self.field = field
        self.ring = ring = field.F.ring
        factors = [g.numer for g in field.q]
        for s in shifts:
            wall = (field.one - s).numer.monic()
            if wall not in factors:
                factors.append(wall)
        self.factors = tuple(factors)
        self._tests = [self._divisibility_test(f) for f in factors]
        self._powers = {}
        self._logs = {}
        self.nil = (0,) * len(factors)
        self.zero = WallElement(self, ring.zero, self.nil)
        self.one = WallElement(self, ring.one, self.nil)

    @staticmethod
    def _divisibility_test(f):
        """A predicate that says, without dividing, whether f divides a
        polynomial p.  For a variable x_g: every term of p has x_g.  For a
        wall x^m1 - eps x^m2 (disjoint supports, eps = +-1): f is
        squarefree and prime to the variables, so it divides p
        exactly when p vanishes on {x^beta = eps}, beta = m1 - m2.  There
        x^m = eps^k x^(m - k beta), and the characters of distinct classes
        modulo Z beta are linearly independent, so p vanishes there exactly
        when, for each class, the sum of eps^k c_m is 0; k = floor(m_j /
        beta_j) picks one representative per class."""
        if f.is_generator:
            g = f.LM.index(1)
            return lambda p: all(m[g] for m in p.itermonoms())
        (m1, _), (m2, c2) = f.terms()     # f is monic
        beta = tuple(x - y for x, y in zip(m1, m2))
        j = next(t for t, b in enumerate(beta) if b)
        flip = c2 > 0       # eps = -c2 = -1

        def test(p):
            sums = {}
            for m, c in p.iterterms():
                k = m[j] // beta[j]
                if k:
                    m = tuple(x - k * b for x, b in zip(m, beta))
                    if flip and k % 2:
                        c = -c
                sums[m] = sums.get(m, 0) + c
            return not any(sums.values())
        return test

    def power(self, i, e):
        """factors[i]**e, cached."""
        p = self._powers.get((i, e))
        if p is None:
            p = self._powers[(i, e)] = self.factors[i] ** e
        return p

    def strip(self, num, i, limit=None):
        """(num / f**m, m) for f = factors[i] and the largest m (at most
        limit) with f**m dividing num."""
        f, test, m = self.factors[i], self._tests[i], 0
        while (limit is None or m < limit) and test(num):
            num, m = num.exquo(f), m + 1
        return num, m

    def split(self, num):
        """(rest, exps) with num = rest * prod_i factors[i]**exps[i] and no
        known factor dividing rest."""
        exps = []
        for i in range(len(self.factors)):
            num, m = self.strip(num, i)
            exps.append(m)
        return num, tuple(exps)

    def convert(self, x):
        """x (a rational, or a ParamField element in lowest terms, as
        field arithmetic leaves it) as a WallElement; OutsideLocalization
        if its denominator has another factor."""
        if isinstance(x, (int, Fraction)):
            x = Fraction(x)
            num = self.ring.ground_new(QQ(x.numerator, x.denominator))
            return WallElement(self, num, self.nil)
        rest, exps = self.split(x.denom)
        if not rest.is_ground:
            raise OutsideLocalization(
                f"denominator {x.denom.as_expr()} has a factor outside the "
                f"q_l and the walls")
        return WallElement(self, x.numer.quo_ground(rest.LC), exps)

    def _euler_poly(self, p, w):
        """sum_l w_l q_l d/dq_l of the polynomial p: each term times its
        w-weighted degree in q."""
        out = self.ring.zero
        o = 1 + self.field.d
        for m, c in p.iterterms():
            k = sum(map(mul, w, m[o:]))
            if k:
                out[m] = c * k
        return out

    def euler(self, x, w):
        """The Euler derivative sum_l w_l q_l d/dq_l of x (w a tuple of
        ints), with no gcd.  By
        the product rule on x = num prod_i f_i^{-e_i},

            E x = E(num) / prod_i f_i^{e_i} - x sum_i e_i E(f_i) / f_i,

        summed in this ring, whose sums divide out only the factors both
        sides share."""
        out = (WallElement(self, self._euler_poly(x.num, w), self.nil)
               * WallElement(self, self.ring.one, x.exps))
        logs = self.zero
        for i, e in enumerate(x.exps):
            if e:
                logs = logs + self._log_derivative(i, w) * e
        return out - x * logs

    def _log_derivative(self, i, w):
        """E(f_i) / f_i for factors[i], cached."""
        p = self._logs.get((i, w))
        if p is None:
            unit = tuple(int(t == i) for t in range(len(self.factors)))
            p = self._logs[(i, w)] = (
                WallElement(self, self._euler_poly(self.factors[i], w),
                            self.nil)
                * WallElement(self, self.ring.one, unit))
        return p

    def to_field(self, x):
        """x as a ParamField element, with no polynomial gcd.  num / den
        is in lowest terms already: no known factor of den divides num, and
        the factors are irreducible.  So sympy's canonical pair, which F.new
        would find by cancelling, is formed directly: clear the denominators
        of num (num = P / cn), and divide P and cn den by the gcd g of their
        integer contents (den is monic over Z, so its content is 1).  The
        leading coefficient cn / g of the new denominator is positive."""
        if not x.num:
            return self.field.zero
        den = self.ring.one
        for i, e in enumerate(x.exps):
            if e:
                den = den * self.power(i, e)
        cn, num = x.num.clear_denoms()
        g = QQ.gcd(num.content(), QQ(cn))
        return self.field.F.raw_new(num.quo_ground(g),
                                    den.mul_ground(QQ(cn) / g))


class WallElement:
    """num / prod_i factors[i]**exps[i], with no factors[i] of positive
    exponent dividing num.  The walls are irreducible (each circuit's beta
    is primitive), so this form is unique and == compares it directly."""

    __slots__ = ("dom", "num", "exps")

    def __init__(self, dom, num, exps):
        self.dom = dom
        self.num = num
        self.exps = exps

    def _lift(self, x):
        return x if isinstance(x, WallElement) else self.dom.convert(x)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._lift(other)
        return self.exps == other.exps and self.num == other.num

    def __neg__(self):
        return WallElement(self.dom, -self.num, self.exps)

    def __add__(self, other):
        other = self._lift(other)
        if not other.num:
            return self
        if not self.num:
            return other
        dom = self.dom
        a, b, ea, eb = self.num, other.num, self.exps, other.exps
        if ea == eb:
            exps = ea
        else:
            exps = tuple(max(x, y) for x, y in zip(ea, eb))
            for i, (x, y) in enumerate(zip(ea, eb)):
                if x < y:
                    a = a * dom.power(i, y - x)
                elif y < x:
                    b = b * dom.power(i, x - y)
        num = a + b
        if not num:
            return dom.zero
        # a factor can divide the sum only where both sides had it equally
        cut = None
        for i, (x, y) in enumerate(zip(ea, eb)):
            if x and x == y:
                num, m = dom.strip(num, i, x)
                if m:
                    cut = cut or list(exps)
                    cut[i] -= m
        return WallElement(dom, num, exps if cut is None else tuple(cut))

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        other = self._lift(other)
        dom = self.dom
        a, b, ea, eb = self.num, other.num, self.exps, other.exps
        if not a or not b:
            return dom.zero
        exps = [x + y for x, y in zip(ea, eb)]
        # a known factor of one side's numerator cancels the other's
        # denominator; no other cancellation can happen
        for i, (x, y) in enumerate(zip(ea, eb)):
            if x and not y:
                b, m = dom.strip(b, i, x)
                exps[i] -= m
            elif y and not x:
                a, m = dom.strip(a, i, y)
                exps[i] -= m
        return WallElement(dom, a * b, tuple(exps))

    def inverse(self):
        """1 / self; OutsideLocalization unless the numerator is a
        constant times known factors."""
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        dom = self.dom
        rest, exps = dom.split(self.num)
        if not rest.is_ground:
            raise OutsideLocalization(
                f"cannot invert {rest.as_expr()}: a factor outside the q_l "
                f"and the walls")
        num = dom.ring.ground_new(1 / rest.LC)
        for i, e in enumerate(self.exps):
            if e:
                num = num * dom.power(i, e)
        return WallElement(dom, num, exps)

    def __truediv__(self, other):
        other = self._lift(other)
        if other.exps == other.dom.nil and other.num == 1:
            return self
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __repr__(self):
        return f"WallElement({self.dom.to_field(self)})"


def _gauss(a, b, d):
    """(a + b i) / d, d > 0, put in lowest terms by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = _new(GaussianRational)
    x.a, x.b, x.d = a, b, d
    return x


class GaussianRational:
    """The Gaussian rational (a + b i) / d on Python ints, kept with d > 0
    and gcd(a, b, d) = 1.  That form is unique, so == and hash compare the
    three ints, and each +, -, *, / puts its result in it with one gcd.
    Ints and Fractions are accepted on either side of the arithmetic and of
    ==; a real element hashes as the equal Fraction does."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re, im=0):
        """re + im i from two rationals (ints, Fractions or strings)."""
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def x(self):
        """The real part, as a Fraction."""
        return Fraction(self.a, self.d)

    @property
    def y(self):
        """The imaginary part, as a Fraction."""
        return Fraction(self.b, self.d)

    @staticmethod
    def _lift(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return _gauss(x, 0, 1)
        if isinstance(x, Fraction):
            return _gauss(x.numerator, 0, x.denominator)
        return None

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.d == other.d)

    def __hash__(self):
        if not self.b:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __neg__(self):
        x = _new(GaussianRational)
        x.a, x.b, x.d = -self.a, -self.b, self.d
        return x

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _gauss(self.a + other.a, self.b + other.b, d1)
        return _gauss(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1,
                      d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _gauss(self.a - other.a, self.b - other.b, d1)
        return _gauss(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1,
                      d1 * d2)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _gauss(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self * conj(other) * other.d / |other.d * other|^2."""
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a2, b2, d2 = other.a, other.b, other.d
        if not b2 and a2 == d2:
            return self
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        a1, b1 = self.a, self.b
        return _gauss((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                      self.d * norm)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        """1 / self, through the conjugate and the norm."""
        a, b, d = self.a, self.b, self.d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _gauss(a * d, -b * d, norm)

    def __pow__(self, e):
        """self ** e for an int e of either sign, by squaring on the
        integer parts, in lowest terms at the end."""
        x = self if e >= 0 else self.inverse()
        e = abs(e)
        a, b, d = 1, 0, x.d ** e
        pa, pb = x.a, x.b
        while e:
            if e & 1:
                a, b = a * pa - b * pb, a * pb + b * pa
            e >>= 1
            if e:
                pa, pb = pa * pa - pb * pb, 2 * pa * pb
        return _gauss(a, b, d)

    def __repr__(self):
        return f"GaussianRational({self.x}, {self.y})"


class PointField:
    """Q(i) with h, c_j and the iota-basis coordinates q_l fixed at exact
    values, in GaussianRational arithmetic; duck-types the part of
    ParamField that builds generators."""

    zero = _gauss(0, 0, 1)
    one = _gauss(1, 0, 1)

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
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, complex):
            return GaussianRational(x.real, x.imag)
        return GaussianRational(x)

    from_rational = exact

    @staticmethod
    def to_complex(x):
        """The nearest complex number: real and imaginary parts are each
        rounded once (int true division rounds correctly, as float of a
        Fraction does).  SingularEvaluation if a part overflows a float."""
        try:
            return complex(x.a / x.d, x.b / x.d)
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
