"""Coefficient domains of the ring presentations.

WallRing is the parameter domain of the symbolic presentations: the
polynomials in h, c_1..c_d, q_1..q_k over Q, localized at h, at the q_l
and at the wall polynomials q^{beta-} -+ q^{beta+} of the circuits.
Every quantity the package forms over Q(h, c, q) (relations, Groebner
bases, multiplication matrices, Steinberg operators, the connection and the
GKZ checks) has its denominator in that multiplicative set.  An element, a
WallElement, is

    content * num / prod_i factors[i] ** exps[i],

where num is a sparse polynomial over Z, a dict from packed monomials to
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

A monomial h^e0 c^e q^e' is one Python int (Monagan-Pearce packing):
fields of FIELD = 32 bits hold e0, e_1..e_d, e'_1..e'_k, h most
significant, so the int is sum_t e_t 2^(32 (nv - 1 - t)) for the nv =
1 + d + k variables.  The map is linear: a product of monomials is one int
addition.  Exponents are never negative and stay below EXP_LIMIT = 2^15
(BudgetExceeded otherwise), so a sum never carries from one field into the
next, and int order is lex order of the exponent tuples: max(num) is the
lex-leading term (_primitive's sign rule) and sorting ints sorts terms as
sympy prints them.  A wall is divided out, and an element restricted to
its wall, by one lex long division on these ints (_wall_divider).
Exponent tuples appear only at the boundaries: fraction (the pair sympy's
field keeps, for the test oracles), the exponent tables of the numeric
connection, render and error messages; on_wall and the Euler derivative
read the fields they need off the ints.

Every division a completed presentation build makes is by a product of
h, the q_l and the walls, so the build specializes to any point where none
of them vanishes: the ring at such a point has the symbolic staircase, and
its matrices are the symbolic ones evaluated there (Kalkbrener 1997).  No
ring is built at a point; connection.CompiledFractions evaluates these
elements from log q, with the iota pullback folded into its exponent
tables, so q^k is never formed.

h is the equivariant weight of the dilation action, c_j the base torus
weights, q_l the Kahler (Novikov) coordinates in the iota basis.  Laurent
monomials q^beta with negative entries are ordinary elements.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, and_, or_, rshift, sub
from struct import Struct

from .errors import BudgetExceeded, OutsideLocalization


FIELD = 32                  # bits of one exponent field of a packed monomial
EXP_LIMIT = 1 << 15         # bound on every numerator and wall exponent
TERM_BUDGET = 8_000_000     # numerator terms one presentation build may form
_MASK = (1 << FIELD) - 1
_HALF = 1 << (FIELD - 1)


def _rational(c):
    """c as an int when it is one, else as a Fraction: contents are mostly
    integers, and int arithmetic is several times faster."""
    return c.numerator if c.denominator == 1 else c


# -- packed monomials -------------------------------------------------------


class _Packing:
    """Exponent vectors of nv variables as ints, FIELD bits per variable,
    the first variable most significant.  shifts[t] is the offset of
    field t, read as m >> shifts[t] & _MASK.  top has the top bit of every
    field: x^a divides x^m exactly when every field of m - a + top keeps
    its top bit, since each field of it is m_t - a_t + 2^31, in [0, 2^32),
    and borrows from no other.  high has every bit that a product of two
    monomials with all exponents below EXP_LIMIT sets only when one of its
    exponents reaches EXP_LIMIT."""

    def __init__(self, nv):
        self.nv = nv
        self.shifts = tuple(FIELD * (nv - 1 - t) for t in range(nv))
        self.top = sum(_HALF << s for s in self.shifts)
        self._ints = Struct(f">{nv}I")      # FIELD = 32: one C int a field
        self._tuples = {}                   # unpack's memo
        self.high = (-1 << FIELD * nv) | sum(
            (_MASK ^ (EXP_LIMIT - 1)) << s for s in self.shifts)

    def pack(self, m):
        """The exponent tuple m as an int; BudgetExceeded for an entry
        outside [0, EXP_LIMIT)."""
        x = 0
        for e in m:
            if not 0 <= e < EXP_LIMIT:
                raise BudgetExceeded(
                    f"exponent {e} does not fit a packed field: exponents "
                    f"lie in [0, {EXP_LIMIT})")
            x = (x << FIELD) + e
        return x

    def unpack(self, x):
        """The exponent tuple of the int x, memoized."""
        t = self._tuples.get(x)
        if t is None:
            t = self._tuples[x] = self._ints.unpack(
                x.to_bytes(4 * self.nv, "big"))
        return t

    def unpack_poly(self, p, scale=1):
        """The polynomial scale * p with exponent-tuple keys."""
        unpack = self.unpack
        return {unpack(m): c * scale for m, c in p.items()}


# -- sparse polynomials over Z: {packed monomial: nonzero int} -------------


def _pmul(p1, p2, high):
    """The product of two polynomials; BudgetExceeded if an exponent
    reaches EXP_LIMIT (a bit of high is set).  Polynomials are never
    mutated, so a factor may be returned as it is."""
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    if len(p1) == 1:
        m1, = p1
        c1 = p1[m1]
        if not m1:
            return p2 if c1 == 1 else {m: c * c1 for m, c in p2.items()}
        out = {m1 + m: c * c1 for m, c in p2.items()}
    else:
        out = {}
        get = out.get
        for m1, c1 in p1.items():
            for m2, c2 in p2.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        out = {m: c for m, c in out.items() if c}
        if not out:
            return out
    if reduce(or_, out) & high:
        raise BudgetExceeded(
            f"a product reached an exponent of {EXP_LIMIT}, past the packed "
            f"field")
    return out


def _primitive(p):
    """(g, p / g) with g the content of p, signed so that p / g has a
    positive lex-leading coefficient."""
    g = gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    if g != 1:
        p = {m: c // g for m, c in p.items()}
    return g, p


def _variable_divider(shift):
    """Division of a polynomial by the largest power, at most limit, of
    the variable whose field is at shift: (quotient, exponent)."""
    def divide(p, limit):
        # the least exponent of the variable over p's terms
        k = min(map(and_, map(rshift, p, repeat(shift)), repeat(_MASK)))
        if limit is not None and k > limit:
            k = limit
        if not k:
            return p, 0
        d = k << shift
        return {m - d: c for m, c in p.items()}, k
    return divide


def _wall_divider(packing, m1, m2, eps):
    """(divide, normal_form) of the wall f = x^m1 - eps x^m2 (exponent
    tuples with disjoint supports, eps = +-1, m1 lex-leading) on
    polynomials packed by packing.  divide(p, limit) divides p by the
    largest power, at most limit, of f dividing it: (quotient, exponent);
    normal_form(p) is the remainder of p modulo f, the unique polynomial
    congruent to p with no term that x^m1 divides: p on the wall.

    Both run one lex long division by f (Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, 2.3).  A term c x^m that x^m1 divides moves
    c x^(m - m1) into the quotient and leaves the carry eps c x^(m - B),
    B = m1 - m2, below it in lex order; any other term is left over in the
    remainder.  Only m + B carries to m, so the division walks each chain
    m, m - B, m - 2B, ... down from its top term, which the descending scan
    of p's terms meets first.  A carry subtracts m1 only from a monomial
    that x^m1 divides, so no field goes negative.  f divides p exactly when
    the remainder is empty, and an exact division stops at the first term
    left over.

    Most tests fail, and cheaper necessary conditions settle those first:
    p is not a monomial, and p vanishes at a point of the wall, the
    all-ones point when eps = 1, and for eps = -1 the point with -1 at the
    first odd coordinate t of B and 1 elsewhere, where p takes the value
    sum of (-1)^m_t c over its terms: the terms whose field t has its low
    bit set count twice, negatively.  divide repeats the test and the
    exact division on each quotient."""
    M1 = packing.pack(m1)
    B = M1 - packing.pack(m2)
    top = packing.top
    borrow = top - M1           # m + borrow keeps every top bit iff x^m1 | x^m
    odd = next((t for t, b in enumerate(map(sub, m1, m2)) if b & 1), None)
    odd_bit = 0 if odd is None else 1 << packing.shifts[odd]

    def long_division(p, exact):
        """(quotient, remainder) of p by f; None when exact and a term is
        left over."""
        quo, rem = {}, {}
        pop = dict(p).pop
        for m in sorted(p, reverse=True):
            c = pop(m, 0)       # 0 once a chain from above has taken m
            while c and (m + borrow) & top == top:
                quo[m - M1] = c
                m -= B
                c = eps * c + pop(m, 0)
            if c:
                if exact:
                    return None
                rem[m] = c
        return quo, rem

    def at_point(p):
        # the necessary condition above (for eps = -1 and B even there is
        # no point)
        if eps > 0:
            return not sum(p.values())
        return not odd_bit or sum(p.values()) == 2 * sum(
            compress(p.values(), map(and_, p, repeat(odd_bit))))

    def divide(p, limit):
        mult = 0
        while (limit is None or mult < limit) and len(p) > 1 and at_point(p):
            out = long_division(p, True)
            if out is None:
                break
            p, mult = out[0], mult + 1
        return p, mult

    def normal_form(p):
        return long_division(p, False)[1]
    return divide, normal_form


class _Supports(dict):
    """exps tuple -> the indices of its nonzero entries, memoized."""

    def __missing__(self, exps):
        s = self[exps] = tuple(i for i, e in enumerate(exps) if e)
        return s


class WallRing:
    """Q[h, c, q] localized at h, the q_l and the walls, the numerators of
    1 - s for the Laurent monomials s = sign q^beta given as (sign, beta)
    in walls (the q^S of the circuits).  The coefficient domain of the
    symbolic presentations: elements are WallElements, with the
    coefficient arithmetic that upoly needs (+, -, *, /, bool, == 1)
    and the exact restriction to a wall (on_wall).

    factors[0] is h, factors[1 + l] is q_l, and the walls follow.
    Numerator monomials are ints packed by packing (module docstring):
    h's field most significant, then c_1..c_d, then q_1..q_k, FIELD bits
    each; exponent tuples of h, c, q appear only where fraction, render
    and error messages decode them.

    Products count the numerator terms they form in work.  Inside
    metered() (one presentation build) BudgetExceeded stops them once
    work passes TERM_BUDGET; cached powers of the factors are not
    counted, so the count does not depend on what earlier builds left."""

    def __init__(self, d, nq, walls):
        self.d = d
        self.nq = nq
        nv = 1 + d + nq
        self.names = ("h", *(f"c{j + 1}" for j in range(d)),
                      *(f"q{l + 1}" for l in range(nq)))
        self.packing = _Packing(nv)
        self.high = self.packing.high
        shifts = self.packing.shifts
        self.work = 0
        self.cap = math.inf
        variables = [0, *range(1 + d, nv)]
        factors = [{1 << shifts[g]: 1} for g in variables]
        self._dividers = [_variable_divider(shifts[g]) for g in variables]
        self._walls = {}
        self._normal_forms = {}
        for sign, beta in walls:
            key = self._wall_key(sign, beta)
            if key not in self._walls:
                i = self._walls[key] = len(factors)
                m1, m2, eps = key
                factors.append({self.packing.pack(m1): 1,
                                self.packing.pack(m2): -eps})
                divide, self._normal_forms[i] = _wall_divider(
                    self.packing, m1, m2, eps)
                self._dividers.append(divide)
        self.factors = tuple(factors)
        self._powers = {}
        self._dens = {}
        self._logs = {}
        self._supports = _Supports()
        self._words = {}            # _poly_str's spelling of each monomial
        self.nil = (0,) * len(factors)
        self.zero = WallElement(self, 0, {}, self.nil)
        self.one = self.convert(1)
        self.h = WallElement(self, 1, factors[0], self.nil)
        self.c = tuple(WallElement(self, 1, {1 << shifts[1 + j]: 1}, self.nil)
                       for j in range(d))
        self.q = tuple(WallElement(self, 1, f, self.nil)
                       for f in factors[1:1 + nq])

    def _wall_key(self, sign, beta):
        """(m1, m2, eps) of the wall of 1 - sign q^beta: the monic
        numerator x^m1 - eps x^m2, with m1 the lex-larger of the positive
        and negative parts of beta (exponent tuples)."""
        pad = (0,) * (1 + self.d)
        plus = pad + tuple(max(b, 0) for b in beta)
        minus = pad + tuple(max(-b, 0) for b in beta)
        return max(plus, minus), min(plus, minus), sign

    def wall_index(self, sign, beta):
        """The index in factors of the wall of 1 - sign q^beta."""
        return self._walls[self._wall_key(sign, tuple(beta))]

    @contextmanager
    def metered(self):
        """Count the numerator terms products form from zero, and raise
        BudgetExceeded once the count passes TERM_BUDGET."""
        self.work, self.cap = 0, TERM_BUDGET
        try:
            yield
        finally:
            self.cap = math.inf

    def count(self, terms):
        """Add terms to work; BudgetExceeded, with the count, once work
        passes the cap."""
        self.work += terms
        if self.work > self.cap:
            raise BudgetExceeded(
                f"WallRing products formed {self.work} numerator terms in one "
                f"presentation build, past the budget of {self.cap}")

    def power(self, i, e):
        """factors[i]**e, cached."""
        p = self._powers.get((i, e))
        if p is None:
            p = self.factors[i] if e == 1 else _pmul(
                self.power(i, e - 1), self.factors[i], self.high)
            self._powers[(i, e)] = p
        return p

    def times_power(self, p, i, e):
        """p * factors[i]**e, counted in work."""
        f = self.power(i, e)
        self.count(len(p) * len(f))
        return _pmul(p, f, self.high)

    def denominator(self, exps):
        """prod_i factors[i]**exps[i], cached."""
        p = self._dens.get(exps)
        if p is None:
            p = {0: 1}
            for i in self._supports[exps]:
                p = _pmul(p, self.power(i, exps[i]), self.high)
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
        num, exps = self._cancel(
            num, exps, self._supports[exps] if check is None else check)
        return WallElement(self, c * g if type(c) is int else _rational(c * g),
                           num, exps)

    def _cancel(self, num, exps, indices):
        """(num / prod_i factors[i]**m_i, exps - m) for i in indices, with
        m_i the largest power, at most exps[i], dividing num."""
        cut = None
        dividers = self._dividers
        for i in indices:
            num, m = dividers[i](num, exps[i])
            if m:
                cut = cut or list(exps)
                cut[i] -= m
        return num, exps if cut is None else tuple(cut)

    def convert(self, x):
        """x (a WallElement, or a rational: int, Fraction or string) as a
        WallElement."""
        if isinstance(x, WallElement):
            return x
        x = Fraction(x)
        if not x:
            return self.zero
        return WallElement(self, _rational(x), {0: 1}, self.nil)

    from_rational = convert

    def q_monomial(self, exps):
        """q_1^{e_1} ... q_k^{e_k}, integer exponents of either sign."""
        pad = (0,) * (1 + self.d)
        mono = self.packing.pack(pad + tuple(max(int(e), 0) for e in exps))
        den = (0,) + tuple(max(-int(e), 0) for e in exps)
        den += (0,) * (len(self.factors) - len(den))
        return WallElement(self, 1, {mono: 1}, den)

    def _euler_poly(self, p, w):
        """sum_l w_l q_l d/dq_l of the polynomial p: each term times its
        w-weighted degree in q, read off the q fields."""
        weights = [(wl, s) for wl, s in
                   zip(w, self.packing.shifts[1 + self.d:]) if wl]
        out = {}
        for m, c in p.items():
            k = sum(wl * (m >> s & _MASK) for wl, s in weights)
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
        for i in self._supports[x.exps]:
            logs = logs + self._log_derivative(i, w) * x.exps[i]
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
        constant exactly when p = a D modulo the wall with a free of q,
        that is when the normal forms (_wall_divider) have N(p) = a N(D):
        the normal form is unique, and multiplying by h and c, which the
        wall does not move, commutes with it.  N(D) is not zero (the
        factors are pairwise prime) and is free of h and c, so its
        lex-leading term r0, with integer coefficient b, picks out b a as
        the terms of N(p) whose q part, the low nq fields, is r0."""
        if x.exps[i]:
            raise ValueError("the wall divides the denominator")
        normal_form = self._normal_forms[i]
        p = normal_form(x.p)
        if not p:
            return self.zero
        den = normal_form(self.denominator((0,) + x.exps[1:]))
        r0 = max(den)
        b = den[r0]
        low = (1 << FIELD * self.nq) - 1
        a = {m - r0: v for m, v in p.items() if m & low == r0}
        if {m: v * b for m, v in p.items()} != {
                mu + r: u * v for mu, u in a.items() for r, v in den.items()}:
            return None
        hexps = x.exps[:1] + (0,) * (len(self.factors) - 1)
        return self._element(Fraction(x.c, b), a, hexps)

    def fraction(self, x):
        """x as the pair (numerator, denominator) of integer polynomials
        that sympy's fraction field keeps, keyed by exponent tuples:
        content a/b in lowest terms gives a * num over
        b * prod_i factors[i]**exps[i], whose lex-leading coefficient b is
        positive."""
        unpack_poly = self.packing.unpack_poly
        return (unpack_poly(x.p, x.c.numerator),
                unpack_poly(self.denominator(x.exps), x.c.denominator))

    def _poly_str(self, p, scale=1):
        """scale * p as sympy prints a PolyElement: terms in lex order (the
        order of the packed monomials), highest first, joined by ' + ' or
        ' - '; '*' between a coefficient other than 1 and the variables,
        '**' for powers.  Each monomial's variables are spelled once."""
        words = self._words
        parts = []
        for m, c in sorted(p.items(), reverse=True):
            c *= scale
            parts.append(" - " if c < 0 else " + ")
            c = abs(c)
            w = words.get(m)
            if w is None:
                w = words[m] = "*".join(
                    n if e == 1 else f"{n}**{e}"
                    for n, e in zip(self.names, self.packing.unpack(m)) if e)
            parts.append(w if c == 1 and w else f"{c}*{w}" if w else str(c))
        return ("-" if parts[0] == " - " else "") + "".join(parts[1:])

    def render(self, x):
        """x as sympy's str prints the same fraction-field element."""
        if not x.p:
            return "0"
        a, b = x.c.numerator, x.c.denominator
        top = self._poly_str(x.p, a)
        if x.exps == self.nil and b == 1:
            return top
        # a sum is parenthesized on either side of "/", and so is anything
        # below it but a constant or a bare variable
        if len(x.p) > 1:
            top = f"({top})"
        den = self.denominator(x.exps)
        bottom = self._poly_str(den, b)
        atom = len(den) == 1 and all(
            not m or (c * b == 1 and sum(self.packing.unpack(m)) == 1)
            for m, c in den.items())
        if not atom:
            bottom = f"({bottom})"
        return f"{top}/{bottom}"


class WallElement:
    """c * p / prod_i factors[i]**exps[i] over the WallRing dom: c a
    rational (an int when integral), p a primitive integer polynomial on
    packed monomials with a positive lex-leading coefficient ({} for zero,
    with c = 0), and no factors[i] of positive exponent dividing p.  The
    walls are irreducible (each circuit's beta is primitive), so this form
    is unique and == compares it directly.

    Products and sums visit only the factors in the support of exps
    (memoized per exps tuple), take a short path when a side has no
    denominator, and multiply int contents without Fraction."""

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
        sa = dom._supports[ea]
        if ea == eb:
            exps, check = ea, sa
        else:
            sb = dom._supports[eb]
            exps = tuple(map(max, ea, eb))
            check = []
            for i in sa:
                x, y = ea[i], eb[i]
                if x < y:
                    a = dom.times_power(a, i, y - x)
                elif y < x:
                    b = dom.times_power(b, i, x - y)
                else:
                    check.append(i)
            for i in sb:
                if not ea[i]:
                    a = dom.times_power(a, i, eb[i])
        c1, c2 = self.c, other.c
        if type(c1) is int and type(c2) is int:
            den, k1, k2 = 1, c1, c2
        else:
            d1, d2 = c1.denominator, c2.denominator
            den = d1 if d1 == d2 else lcm(d1, d2)
            k1, k2 = c1.numerator * (den // d1), c2.numerator * (den // d2)
        s = dict(a) if k1 == 1 else {m: k1 * v for m, v in a.items()}
        get = s.get
        for m, v in b.items():
            v = get(m, 0) + k2 * v
            if v:
                s[m] = v
            else:
                del s[m]
        if not s:
            return dom.zero
        # a factor can divide the sum only where both sides had it equally
        return dom._element(Fraction(1, den) if den != 1 else 1, s, exps,
                            check)

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
        # a known factor of one side's numerator cancels the other's
        # denominator; no other cancellation can happen
        supports = dom._supports
        sa, sb = supports[ea], supports[eb]
        if not sb:
            exps = ea
            if sa:
                b, exps = dom._cancel(b, ea, sa)
        elif not sa:
            a, exps = dom._cancel(a, eb, sb)
        else:
            dividers = dom._dividers
            exps = list(map(add, ea, eb))
            for i in sa:
                if not eb[i]:
                    b, m = dividers[i](b, ea[i])
                    exps[i] -= m
            for i in sb:
                if not ea[i]:
                    a, m = dividers[i](a, eb[i])
                    exps[i] -= m
            exps = tuple(exps)
        dom.count(len(a) * len(b))
        c1, c2 = self.c, other.c
        c = c1 * c2 if type(c1) is int and type(c2) is int else \
            _rational(c1 * c2)
        return WallElement(dom, c, _pmul(a, b, dom.high), exps)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self; OutsideLocalization unless the numerator is a
        constant times known factors."""
        if not self.p:
            raise ZeroDivisionError("inverse of zero")
        dom = self.dom
        rest, exps = dom.split(self.p)
        if len(rest) != 1 or 0 not in rest:
            raise OutsideLocalization(
                f"cannot invert "
                f"{dom._poly_str(rest)}: a "
                f"factor outside h, the q_l and the walls")
        return WallElement(dom, _rational(Fraction(1) / self.c),
                           dom.denominator(self.exps), exps)

    def __truediv__(self, other):
        if not isinstance(other, WallElement):
            return self * (1 / Fraction(other))
        if other.c == 1 and other.exps == other.dom.nil and \
                other.p == {0: 1}:
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
