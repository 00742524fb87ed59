"""The point-ring oracle: the quantum ring at one exact point (h, c, q),
built by its own Buchberger run over Q(i).

The package never builds a ring at a point: it reads A_i(q) off the one
Q(h, c, q) ring of an instance, compiled (QuantumRing.numeric and
NumericConnection.matrices_at).  That is sound because a completed WallRing
build divides only by h, the q_l and the walls, so off the walls the ring
at q has the symbolic staircase and its matrices are the symbolic ones
evaluated at q (Kalkbrener, On the stability of Groebner bases under
specializations, 1997).  This module is the independent route those
evaluations are checked against.

PointField is Q(i) with h, c and q fixed at one exact point.  A float is a
dyadic rational, so each coordinate of a complex q converts to a Gaussian
rational with no rounding (PointField.at, through iota_coordinates, which
forms q^k exactly), and values round once, back to complex, at the end.
Its elements are GaussianRationals: (a + b i) / d on Python ints in lowest
terms, one gcd per operation, and one per sum of products
(GaussianRational.sum_of_products, which the normal forms of build use).
point_oracle.py checks this ring in turn against sympy's QQ_I.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

from hypertoric import quantum_ring, upoly
from hypertoric.arrangement import vertices
from hypertoric.errors import ParameterDegeneracy, SingularEvaluation
from hypertoric.quantum_ring import check_regular

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
    three ints, and each +, -, *, / puts its result in it with one gcd;
    sum_of_products forms a whole sum of products with one.
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

    @staticmethod
    def sum_of_products(pairs):
        """sum x * y over the pairs (x, y) of elements, y = None standing
        for 1: the products over one common denominator, in lowest terms
        by one gcd."""
        nums = []
        for x, y in pairs:
            if y is None:
                nums.append((x.a, x.b, x.d))
            else:
                a1, b1, a2, b2 = x.a, x.b, y.a, y.b
                nums.append((a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                             x.d * y.d))
        den = lcm(*{d for _, _, d in nums})
        a = b = 0
        for x, y, d in nums:
            if d != den:
                k = den // d
                x, y = x * k, y * k
            a += x
            b += y
        return _gauss(a, b, den)

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
    WallRing that builds generators."""

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


def _sum_of_products(pairs, _terms=upoly.sum_of_products):
    """upoly.sum_of_products, by GaussianRational.sum_of_products where
    the coefficients are GaussianRationals."""
    if len(pairs) > 1 and isinstance(pairs[0][0], GaussianRational):
        return GaussianRational.sum_of_products(pairs)
    return _terms(pairs)


@contextmanager
def _gaussian_sums():
    """Normal forms and border columns formed by _sum_of_products."""
    with mock.patch.object(upoly, "sum_of_products", _sum_of_products), \
            mock.patch.object(quantum_ring, "sum_of_products",
                              _sum_of_products):
        yield


def build(r, F):
    """The quantum presentation of the QuantumRing r over the field F,
    built as the package builds its symbolic one; its multiplication
    matrices are read while the Gaussian sums are in force, and cached."""
    with _gaussian_sums():
        pres = r._build(F, "quantum")
        for i in range(r.td.n):
            pres.multiplication_matrix(i)
    return pres


def ring_at(r, hbar, cvals, qn):
    """The quantum presentation of the QuantumRing r at exact (hbar,
    cvals) and the numeric point qn of (C*)^n, built over Q(i): one
    Buchberger run.  Its multiplication matrices are the A_i(qn);
    PointField.to_complex rounds each entry once.

    SingularEvaluation if qn has a zero coordinate or lies within WALL_TOL
    of a wall, checked first.  ParameterDegeneracy if the rank is not the
    vertex count: the point then lies on the bad locus of the
    specialization (Gianni 1987, Kalkbrener 1997)."""
    qn = check_regular(r.circuits, qn)
    pres = build(r, PointField.at(r.td, hbar, cvals, qn))
    expected = len(vertices(r.td))
    if pres.rank != expected:
        raise ParameterDegeneracy(
            f"the staircase at q has {pres.rank} monomials, not one per "
            f"vertex ({expected}): q lies on the bad locus of the "
            f"specialization")
    return pres
