"""Coefficient domains of the ring presentations.

WallRing is the parameter domain of the symbolic presentations: the
polynomials in h, c_1..c_d, q_1..q_k over Q, localized at h, at the q_l
and at the wall polynomials q^{beta-} -+ q^{beta+} of the circuits.
Every quantity the package forms over Q(h, c, q) (relations, Groebner
bases, multiplication matrices, Steinberg operators, the connection and the
GKZ checks) has its denominator in that multiplicative set.  An element, a
WallElement, is

    content * num / prod_i factors[i] ** exps[i],

where num is a sparse polynomial over Z, a dict from exponent tuples to
Python ints, kept primitive with a positive lex-leading coefficient;
content is a rational (an int when integral, else a Fraction), and no
factor of positive exponent divides num.
The factors are irreducible and pairwise prime, so the form is unique and
== compares it directly.  No polynomial gcd is ever taken: products and
sums only divide known factors out of the numerator, exactly, by trial
division.  Inverting an element whose numerator has any other factor
raises OutsideLocalization.  render prints an element exactly as sympy
prints the same element of its fraction field Q(h, c, q) (terms in lex
order of h, c, q; the canonical pair of integer polynomials).

PointField is Q(i) with h, c and q fixed at one exact point: the
coefficient field of a presentation at a numeric q.  A float is a dyadic
rational, so each coordinate of a complex q converts to a Gaussian
rational with no rounding, and values round once, back to complex, at the
end.  Its elements are GaussianRationals: (a + b i) / d on Python ints in
lowest terms, one gcd per operation, and one per sum of products
(GaussianRational.sum_of_products, which normal forms use).

iota_coordinates is the one routine that forms q^k from a point of
(C*)^n, exactly (PointField.at) or in complex floats (the numeric
connection).

h is the equivariant weight of the dilation action, c_j the base torus
weights, q_l the Kahler (Novikov) coordinates in the iota basis.  Laurent
monomials q^beta with negative entries are ordinary elements.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from .errors import OutsideLocalization, SingularEvaluation

_new = object.__new__


def _rational(c):
    """c as an int when it is one, else as a Fraction: contents are mostly
    integers, and int arithmetic is several times faster."""
    return c.numerator if c.denominator == 1 else c


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


# -- sparse polynomials over Z: {exponent tuple: nonzero int} ---------------


def _pmul(p1, p2):
    """The product of two polynomials.  Polynomials are never mutated, so
    a factor may be returned as it is."""
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    if len(p1) == 1:
        ((m1, c1),) = p1.items()
        if not any(m1):
            return p2 if c1 == 1 else {m: c * c1 for m, c in p2.items()}
        return {tuple(map(add, m1, m)): c * c1 for m, c in p2.items()}
    out = {}
    get = out.get
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _primitive(p):
    """(g, p / g) with g the content of p, signed so that p / g has a
    positive lex-leading coefficient."""
    g = gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    if g != 1:
        p = {m: c // g for m, c in p.items()}
    return g, p


def _poly_str(p, names):
    """p as sympy prints a PolyElement: terms in lex order, highest first,
    joined by ' + ' or ' - '; '*' between a coefficient other than 1 and
    the variables, '**' for powers."""
    parts = []
    for m, c in sorted(p.items(), reverse=True):
        parts.append(" - " if c < 0 else " + ")
        c = abs(c)
        mon = [n if e == 1 else f"{n}**{e}" for n, e in zip(names, m) if e]
        if c != 1 or not mon:
            mon.insert(0, str(c))
        parts.append("*".join(mon))
    return ("-" if parts[0] == " - " else "") + "".join(parts[1:])


def _variable_divider(g):
    """Division of a polynomial by the largest power, at most limit, of
    the variable x_g dividing it: (quotient, exponent)."""
    def divide(p, limit):
        k = min(m[g] for m in p)
        if limit is not None and k > limit:
            k = limit
        if not k:
            return p, 0
        return {m[:g] + (m[g] - k,) + m[g + 1:]: c for m, c in p.items()}, k
    return divide


def _wall_divider(m1, m2, eps):
    """(divide, restrict) of the wall f = x^m1 - eps x^m2 (disjoint
    supports, eps = +-1, m1 lex-leading).  divide(p, limit) divides p by
    the largest power, at most limit, of f dividing it: (quotient,
    exponent); restrict(p) is p on the wall.

    With beta = m1 - m2 and y = x^beta, f = x^m2 (y - eps), and the terms
    of p fall into classes modulo Z beta: p = sum_r x^r C_r(y), where
    k = floor(m_j / beta_j) on the first coordinate j of beta picks the
    representative r = m - k beta of each class.  restrict(p) =
    {r: C_r(eps)}, zeros kept, is the canonical form of p modulo f in the
    Laurent ring.  f divides p exactly when every C_r(eps) = 0, and then
    synthetic division gives each quotient d_{k-1} = c_k + eps d_k from
    the top down.  Only the coordinates in the support of beta move.

    Most tests fail, and a cheaper necessary condition settles those
    first: p vanishes at a point of the wall, the all-ones point when
    eps = 1, and for eps = -1 the point with -1 at the first odd
    coordinate t of beta and 1 elsewhere (then y = -1), where p takes
    the value sum of (-1)^m_t c over its terms."""
    beta = tuple(map(sub, m1, m2))
    supp = [(t, b, m2[t]) for t, b in enumerate(beta) if b]
    j, bj, _ = supp[0]      # bj = m1[j] > 0, since m1 leads in lex
    odd = next((t for t, b, _ in supp if b & 1), None)

    def off_wall(p):
        """Whether p is nonzero at the point of the wall above; False
        when there is none (eps = -1 and beta even)."""
        if eps > 0:
            return bool(sum(p.values()))
        if odd is None:
            return False
        return bool(sum(-c if m[odd] & 1 else c for m, c in p.items()))

    def shifted(m, k):
        """m - k beta."""
        r = list(m)
        for t, b, _ in supp:
            r[t] -= k * b
        return tuple(r)

    def restrict(p):
        sums = {}
        get = sums.get
        for m, c in p.items():
            k = m[j] // bj
            if k:
                m = shifted(m, k)
                if eps < 0 and k & 1:
                    c = -c
            sums[m] = get(m, 0) + c
        return sums

    def divides(p):
        return not off_wall(p) and not any(restrict(p).values())

    def once(p):
        classes = {}
        for m, c in p.items():
            k = m[j] // bj
            r = shifted(m, k) if k else m
            cl = classes.get(r)
            if cl is None:
                classes[r] = {k: c}
            else:
                cl[k] = c
        out = {}
        for r, cl in classes.items():
            d = 0
            for k in range(max(cl), 0, -1):
                d = cl.get(k, 0) + eps * d
                if d:
                    q = list(r)
                    for t, b, y in supp:
                        q[t] += (k - 1) * b - y
                    out[tuple(q)] = d
        return out

    def divide(p, limit):
        m = 0
        while (limit is None or m < limit) and divides(p):
            p, m = once(p), m + 1
        return p, m
    return divide, restrict


class WallRing:
    """Q[h, c, q] localized at h, the q_l and the walls, the numerators of
    1 - s for the Laurent monomials s = sign q^beta given as (sign, beta)
    in walls (the q^S of the circuits).  The coefficient domain of the
    symbolic presentations: elements are WallElements, with the
    coefficient arithmetic that upoly needs (+, -, *, /, bool, == 1)
    and the exact restriction to a wall (on_wall).

    factors[0] is h, factors[1 + l] is q_l, and the walls follow."""

    def __init__(self, d, nq, walls):
        self.d = d
        self.nq = nq
        nv = 1 + d + nq
        self.names = ("h", *(f"c{j + 1}" for j in range(d)),
                      *(f"q{l + 1}" for l in range(nq)))
        self.zero_monomial = (0,) * nv

        def unit(g):
            return tuple(int(t == g) for t in range(nv))

        variables = [0, *range(1 + d, nv)]
        factors = [{unit(g): 1} for g in variables]
        self._dividers = [_variable_divider(g) for g in variables]
        self._walls = {}
        self._restrictors = {}
        for sign, beta in walls:
            key = self._wall_key(sign, beta)
            if key not in self._walls:
                i = self._walls[key] = len(factors)
                m1, m2, eps = key
                factors.append({m1: 1, m2: -eps})
                divide, self._restrictors[i] = _wall_divider(m1, m2, eps)
                self._dividers.append(divide)
        self.factors = tuple(factors)
        self._powers = {}
        self._dens = {}
        self._logs = {}
        self.nil = (0,) * len(factors)
        self.zero = WallElement(self, 0, {}, self.nil)
        self.one = self.convert(1)
        self.h = WallElement(self, 1, factors[0], self.nil)
        self.c = tuple(WallElement(self, 1, {unit(1 + j): 1}, self.nil)
                       for j in range(d))
        self.q = tuple(WallElement(self, 1, f, self.nil)
                       for f in factors[1:1 + nq])

    def _wall_key(self, sign, beta):
        """(m1, m2, eps) of the wall of 1 - sign q^beta: the monic
        numerator x^m1 - eps x^m2, with m1 the lex-larger of the positive
        and negative parts of beta."""
        pad = (0,) * (1 + self.d)
        plus = pad + tuple(max(b, 0) for b in beta)
        minus = pad + tuple(max(-b, 0) for b in beta)
        return max(plus, minus), min(plus, minus), sign

    def wall_index(self, sign, beta):
        """The index in factors of the wall of 1 - sign q^beta."""
        return self._walls[self._wall_key(sign, tuple(beta))]

    def power(self, i, e):
        """factors[i]**e, cached."""
        p = self._powers.get((i, e))
        if p is None:
            p = self.factors[i] if e == 1 else _pmul(self.power(i, e - 1),
                                                     self.factors[i])
            self._powers[(i, e)] = p
        return p

    def denominator(self, exps):
        """prod_i factors[i]**exps[i], cached."""
        p = self._dens.get(exps)
        if p is None:
            p = {self.zero_monomial: 1}
            for i, e in enumerate(exps):
                if e:
                    p = _pmul(p, self.power(i, e))
            self._dens[exps] = p
        return p

    def strip(self, num, i, limit=None):
        """(num / f**m, m) for f = factors[i] and the largest m (at most
        limit) with f**m dividing num."""
        return self._dividers[i](num, limit)

    def split(self, num):
        """(rest, exps) with num = rest * prod_i factors[i]**exps[i] and no
        known factor dividing rest."""
        exps = []
        for i in range(len(self.factors)):
            num, m = self.strip(num, i)
            exps.append(m)
        return num, tuple(exps)

    def _element(self, c, num, exps, check=None):
        """c * num / prod_i factors[i]**exps[i] in canonical form, for a
        rational c and a polynomial num of any content.  Only the factors
        with indices in check (all of positive exponent if None) are
        divided out of num."""
        if not num or not c:
            return self.zero
        g, num = _primitive(num)
        cut = None
        if check is None:
            check = [i for i, e in enumerate(exps) if e]
        for i in check:
            num, m = self.strip(num, i, exps[i])
            if m:
                cut = cut or list(exps)
                cut[i] -= m
        return WallElement(self, _rational(c * g), num,
                           exps if cut is None else tuple(cut))

    def convert(self, x):
        """x (a WallElement, or a rational: int, Fraction or string) as a
        WallElement."""
        if isinstance(x, WallElement):
            return x
        x = Fraction(x)
        if not x:
            return self.zero
        return WallElement(self, _rational(x), {self.zero_monomial: 1},
                           self.nil)

    from_rational = convert

    def q_monomial(self, exps):
        """q_1^{e_1} ... q_k^{e_k}, integer exponents of either sign."""
        pad = (0,) * (1 + self.d)
        mono = pad + tuple(max(int(e), 0) for e in exps)
        den = (0,) + tuple(max(-int(e), 0) for e in exps)
        den += (0,) * (len(self.factors) - len(den))
        return WallElement(self, 1, {mono: 1}, den)

    def dot(self, xs, ys):
        """sum_t xs[t] * ys[t], brought to one denominator and put in
        canonical form once, instead of after every product and sum."""
        prods = [(x.c * y.c, x.p, y.p, tuple(map(add, x.exps, y.exps)))
                 for x, y in zip(xs, ys) if x.p and y.p]
        if not prods:
            return self.zero
        if len(prods) == 1:
            exps = prods[0][3]
        else:
            exps = tuple(map(max, *(e for *_, e in prods)))
        den = lcm(*(c.denominator for c, *_ in prods))
        acc = {}
        get = acc.get
        for c, a, b, e in prods:
            t = _pmul(a, b)
            if e != exps:
                t = _pmul(t, self.denominator(tuple(map(sub, exps, e))))
            k = c.numerator * (den // c.denominator)
            for m, v in t.items():
                acc[m] = get(m, 0) + k * v
        return self._element(Fraction(1, den) if den != 1 else 1,
                             {m: v for m, v in acc.items() if v}, exps)

    def _euler_poly(self, p, w):
        """sum_l w_l q_l d/dq_l of the polynomial p: each term times its
        w-weighted degree in q."""
        out = {}
        o = 1 + self.d
        for m, c in p.items():
            k = sum(map(mul, w, m[o:]))
            if k:
                out[m] = c * k
        return out

    def euler(self, x, w):
        """The Euler derivative sum_l w_l q_l d/dq_l of x (w a tuple of
        ints), with no gcd.  By the product rule on
        x = num prod_i f_i^{-e_i},

            E x = E(num) / prod_i f_i^{e_i} - x sum_i e_i E(f_i) / f_i,

        summed in this ring, whose sums divide out only the factors both
        sides share."""
        w = tuple(w)
        out = self._element(x.c, self._euler_poly(x.p, w), x.exps)
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
            p = self._logs[(i, w)] = self._element(
                1, self._euler_poly(self.factors[i], w), unit)
        return p

    def on_wall(self, x, i):
        """x on the wall factors[i] if it is constant there (an element
        free of q), else None; ValueError if the wall divides x's
        denominator.  With x = c p / (h^e D), D free of h and c, it is
        constant exactly when restrict(p) = a restrict(D) with a free of
        q.  The lex-leading class r0 of restrict(D) (not zero: the factors
        are pairwise prime) has an integer coefficient b, and a is read
        off the classes mu + r0 of restrict(p), mu in h and c."""
        if x.exps[i]:
            raise ValueError("the wall divides the denominator")
        restrict = self._restrictors[i]
        p = {m: v for m, v in restrict(x.p).items() if v}
        if not p:
            return self.zero
        den = {m: v for m, v in
               restrict(self.denominator((0,) + x.exps[1:])).items() if v}
        r0 = max(den)
        b = den[r0]
        o = 1 + self.d
        tail = r0[o:]
        a = {m[:o] + self.zero_monomial[o:]: v for m, v in p.items()
             if m[o:] == tail}
        if {m: v * b for m, v in p.items()} != {
                mu[:o] + r[o:]: u * v for mu, u in a.items()
                for r, v in den.items()}:
            return None
        hexps = x.exps[:1] + (0,) * (len(self.factors) - 1)
        return self._element(Fraction(x.c, b), a, hexps)

    def fraction(self, x):
        """x as the pair (numerator, denominator) of integer polynomials
        that sympy's fraction field keeps: content a/b in lowest terms
        gives a * num over b * prod_i factors[i]**exps[i], whose
        lex-leading coefficient b is positive."""
        a, b = x.c.numerator, x.c.denominator
        den = self.denominator(x.exps)
        return ({m: a * c for m, c in x.p.items()},
                {m: b * c for m, c in den.items()} if b != 1 else den)

    def render(self, x):
        """x as sympy's str prints the same fraction-field element."""
        if not x.p:
            return "0"
        num, den = self.fraction(x)
        top = _poly_str(num, self.names)
        if den == {self.zero_monomial: 1}:
            return top
        # a sum is parenthesized on either side of "/", and so is anything
        # below it but a constant or a bare variable
        if len(num) > 1:
            top = f"({top})"
        bottom = _poly_str(den, self.names)
        atom = len(den) == 1 and all(not any(m) or (c == 1 and sum(m) == 1)
                                     for m, c in den.items())
        if not atom:
            bottom = f"({bottom})"
        return f"{top}/{bottom}"


class WallElement:
    """c * p / prod_i factors[i]**exps[i] over the WallRing dom: c a
    rational (an int when integral), p a primitive integer polynomial with
    a positive lex-leading coefficient ({} for zero, with c = 0), and no
    factors[i] of positive exponent dividing p.  The walls are irreducible
    (each circuit's beta is primitive), so this form is unique and ==
    compares it directly."""

    __slots__ = ("dom", "c", "p", "exps")

    def __init__(self, dom, c, p, exps):
        self.dom = dom
        self.c = c
        self.p = p
        self.exps = exps

    def __bool__(self):
        return bool(self.p)

    def __eq__(self, other):
        if not isinstance(other, WallElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.dom.convert(other)
        return (self.c == other.c and self.exps == other.exps
                and self.p == other.p)

    def __neg__(self):
        return WallElement(self.dom, -self.c, self.p, self.exps)

    def __add__(self, other):
        dom = self.dom
        if not isinstance(other, WallElement):
            other = dom.convert(other)
        if not other.p:
            return self
        if not self.p:
            return other
        a, b, ea, eb = self.p, other.p, self.exps, other.exps
        if ea == eb:
            exps = ea
        else:
            exps = tuple(map(max, ea, eb))
            for i, (x, y) in enumerate(zip(ea, eb)):
                if x < y:
                    a = _pmul(a, dom.power(i, y - x))
                elif y < x:
                    b = _pmul(b, dom.power(i, x - y))
        c1, c2 = self.c, other.c
        d1, d2 = c1.denominator, c2.denominator
        den = d1 if d1 == d2 else lcm(d1, d2)
        k1, k2 = c1.numerator * (den // d1), c2.numerator * (den // d2)
        s = {m: k1 * v for m, v in a.items()}
        get = s.get
        for m, v in b.items():
            s[m] = get(m, 0) + k2 * v
        s = {m: v for m, v in s.items() if v}
        if not s:
            return dom.zero
        # a factor can divide the sum only where both sides had it equally
        return dom._element(Fraction(1, den) if den != 1 else 1, s, exps,
                            [i for i, (x, y) in enumerate(zip(ea, eb))
                             if x and x == y])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, WallElement):
            other = self.dom.convert(other)
        return self + -other

    def __mul__(self, other):
        dom = self.dom
        if not isinstance(other, WallElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other or not self.p:
                return dom.zero
            return WallElement(dom, _rational(self.c * other), self.p,
                               self.exps)
        a, b, ea, eb = self.p, other.p, self.exps, other.exps
        if not a or not b:
            return dom.zero
        exps = list(map(add, ea, eb))
        # a known factor of one side's numerator cancels the other's
        # denominator; no other cancellation can happen
        for i, (x, y) in enumerate(zip(ea, eb)):
            if x and not y:
                b, m = dom.strip(b, i, x)
                exps[i] -= m
            elif y and not x:
                a, m = dom.strip(a, i, y)
                exps[i] -= m
        return WallElement(dom, _rational(self.c * other.c), _pmul(a, b),
                           tuple(exps))

    __rmul__ = __mul__

    def inverse(self):
        """1 / self; OutsideLocalization unless the numerator is a
        constant times known factors."""
        if not self.p:
            raise ZeroDivisionError("inverse of zero")
        dom = self.dom
        rest, exps = dom.split(self.p)
        if len(rest) != 1 or dom.zero_monomial not in rest:
            raise OutsideLocalization(
                f"cannot invert {_poly_str(rest, dom.names)}: a factor "
                f"outside h, the q_l and the walls")
        return WallElement(dom, _rational(Fraction(1) / self.c),
                           dom.denominator(self.exps), exps)

    def __truediv__(self, other):
        if not isinstance(other, WallElement):
            return self * (1 / Fraction(other))
        if other.c == 1 and other.exps == other.dom.nil and \
                other.p == {other.dom.zero_monomial: 1}:
            return self
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        """self ** e for an int e of either sign."""
        x = self if e >= 0 else self.inverse()
        out = self.dom.one
        for _ in range(abs(e)):
            out = out * x
        return out

    def __repr__(self):
        return f"WallElement({self.dom.render(self)})"


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
