"""Sparse polynomials in the divisor classes u_1..u_n and a budgeted Buchberger.

Coefficients are duck-typed; they must support +, -, *, bool, == (and /
for the Groebner routines, which divide only by leading coefficients).  The
domains in use:

  * WallElements of params.WallRing, Q[h, c, q] localized at h, the q_l
    and the circuits' walls: the symbolic presentations over Q(h, c, q) and
    everything read off them (matrices, connection, Steinberg operators),
    with no polynomial gcd.  Dividing by a leading coefficient outside that
    localization raises OutsideLocalization.
  * complex numbers: the mirror side's Euler insertions.

Monomials are exponent tuples; the arithmetic also takes negative exponents
(Laurent polynomials).

Term order: graded reverse lex with variable precedence u_n > ... > u_1
(the default).  With this order the linear relations sum(a_ij u_i) = c_j
eliminate high-index variables and circuit monomials prod_{i in S} u_i lead
the circuit relations, so staircases come out in the low-index variables.
"""

from heapq import heapify, heappop, heappush
from operator import add, le, sub

from .errors import BudgetExceeded, NotZeroDimensional

BUDGET = 20000          # S-polynomial reductions one Buchberger run may make
STAIRCASE_CAP = 10000   # standard monomials a staircase may have


class GrevlexOrder:
    """Grevlex with precedence u_n > ... > u_1: higher degree first; on equal
    degree, fewer of the lowest-index variable that differs wins."""

    def __init__(self, nvars):
        self.nvars = nvars
        self._cache = {}

    def key(self, exp):
        k = self._cache.get(exp)
        if k is None:
            k = (sum(exp), tuple(-e for e in exp))
            self._cache[exp] = k
        return k

    @staticmethod
    def descending(exp):
        """A key that sorts larger monomials first."""
        return -sum(exp), exp


def mon_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def mon_divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def mon_div(m1, m2):
    return tuple(a - b for a, b in zip(m1, m2))


def mon_lcm(m1, m2):
    return tuple(max(a, b) for a, b in zip(m1, m2))


class UPoly:
    __slots__ = ("terms", "nvars")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    @classmethod
    def constant(cls, c, nvars):
        if not c:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i, nvars, one):
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exp: one})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return UPoly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = -c
            else:
                s = s - c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return UPoly(self.nvars, out)

    def __neg__(self):
        return UPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mon_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    if c:
                        out[m] = c
                else:
                    s = s + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return UPoly(self.nvars, out)

    def scale(self, c):
        if not c:
            return UPoly(self.nvars)
        return UPoly(self.nvars, {m: cc * c for m, cc in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.terms == other.terms

    def leading(self, order):
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def render(self, names=None, coeff_str=str):
        if not self.terms:
            return "0"
        if names is None:
            names = [f"u{i + 1}" for i in range(self.nvars)]
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            mon = "*".join(
                (names[i] if e == 1 else f"{names[i]}^{e}")
                for i, e in enumerate(m) if e)
            cs = coeff_str(c)
            if any(op in cs for op in "+-") and not (cs.startswith("-") and "+" not in cs[1:] and "-" not in cs[1:]):
                cs = f"({cs})"
            parts.append(f"{cs}*{mon}" if mon else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"UPoly({self.render()})"


def sum_of_products(pairs):
    """sum x * y over the pairs (x, y) of coefficients, where y = None
    stands for 1."""
    x, y = pairs[0]
    s = x if y is None else x * y
    for x, y in pairs[1:]:
        s = s + (x if y is None else x * y)
    return s


def normal_form(p, basis, order):
    """Remainder of p under division by basis (monic leading coeffs not
    required)."""
    return _reduce({m: [(c, None)] for m, c in p.terms.items()},
                   [_reducer(g, order) for g in basis if g.terms], order)


def _reducer(g, order):
    """(leading monomial, leading coefficient, tail terms) of g."""
    lm, lc = g.leading(order)
    return lm, lc, [(m, c) for m, c in g.terms.items() if m != lm]


def _reduce(work, reducers, order):
    """Remainder under division by the _reducer rows of the polynomial
    whose coefficient at m is sum_of_products(work[m]).  Each monomial
    keeps the products that reach it, and its coefficient is formed once,
    when the monomial is taken."""
    down = order.descending
    heap = [(down(m), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = sum_of_products(work.pop(m))
        if not c:
            continue
        for lm, lc, tail in reducers:
            if all(map(le, lm, m)):
                break
        else:
            rem[m] = c
            continue
        shift = tuple(map(sub, m, lm))
        f = -(c / lc)
        for gm, gc in tail:
            mm = tuple(map(add, gm, shift))
            s = work.get(mm)
            if s is None:
                work[mm] = [(gc, f)]
                heappush(heap, (down(mm), mm))
            else:
                s.append((gc, f))
    return UPoly(order.nvars, rem)


def _s_pairs(r1, r2):
    """The S-polynomial of two _reducer rows as _reduce's work: the tails
    times the other's leading coefficient; the leading terms cancel."""
    (m1, c1, t1), (m2, c2, t2) = r1, r2
    l = mon_lcm(m1, m2)
    work = {}
    for m, c, tail in ((m1, c2, t1), (m2, -c1, t2)):
        shift = mon_div(l, m)
        for t, x in tail:
            work.setdefault(mon_mul(t, shift), []).append((x, c))
    return work


def s_polynomial(f, g, order):
    """The S-polynomial of f and g, formed as buchberger forms it."""
    work = _s_pairs(_reducer(f, order), _reducer(g, order))
    terms = {m: sum_of_products(pairs) for m, pairs in work.items()}
    return UPoly(f.nvars, {m: c for m, c in terms.items() if c})


def _substitute_linear(gens, order):
    """gens with its linear members brought to reduced echelon form and
    every other member replaced by its normal form modulo them.  The ideal
    is the same, so the reduced basis is too; the leading terms of the
    echelon rows are distinct variables that no other member contains, so
    Buchberger's pairs involving them are all coprime."""
    echelon, rest = [], []
    for g in gens:
        if all(sum(m) <= 1 for m in g.terms):
            r = normal_form(g, echelon, order)
            if not r.is_zero():
                r = r.scale(1 / r.leading(order)[1])
                echelon = [normal_form(e, [r], order) for e in echelon] + [r]
        else:
            rest.append(g)
    return echelon + [normal_form(g, echelon, order) for g in rest]


def buchberger(gens, order):
    """Reduced Groebner basis: monic, fully inter-reduced, sorted by leading term.

    At most BUDGET S-polynomial reductions; BudgetExceeded when exhausted.
    The linear generators are eliminated first (_substitute_linear); the
    coprimality and chain criteria prune pairs.
    """
    G = []
    for g in _substitute_linear(gens, order):
        if not g.is_zero():
            _, lc = g.leading(order)
            G.append(g.scale(1 / lc) if lc != 1 else g)
    G.sort(key=lambda g: order.key(g.leading(order)[0]))
    reducers = [_reducer(g, order) for g in G]
    lts = [lm for lm, _, _ in reducers]
    queue = []    # pairs not yet treated, keyed for selection
    steps = 0

    def add_pair(i, j):
        heappush(queue, (order.key(mon_lcm(lts[i], lts[j])), (i, j)))

    for j in range(len(G)):
        for i in range(j):
            add_pair(i, j)
    done = set()
    while queue:
        # deterministic normal selection: smallest lcm, then indices
        _, best = heappop(queue)
        i, j = best
        done.add(best)
        li, lj = lts[i], lts[j]
        l = mon_lcm(li, lj)
        if l == mon_mul(li, lj):
            continue  # coprime leading terms
        chain = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mon_divides(lts[k], l):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in done and p2 in done:
                    chain = True
                    break
        if chain:
            continue
        steps += 1
        if steps > BUDGET:
            raise BudgetExceeded(f"Buchberger exceeded {BUDGET} reductions")
        r = _reduce(_s_pairs(reducers[i], reducers[j]), reducers, order)
        if r.is_zero():
            continue
        _, lc = r.leading(order)
        r = r.scale(1 / lc)
        G.append(r)
        reducers.append(_reducer(r, order))
        lts.append(reducers[-1][0])
        newi = len(G) - 1
        for t in range(newi):
            add_pair(t, newi)
    # inter-reduce: drop redundant leading terms, then reduce tails
    reduced = []
    minimal = []
    for i, g in enumerate(G):
        lm = lts[i]
        redundant = False
        for j in range(len(G)):
            if j == i:
                continue
            if mon_divides(lts[j], lm) and (lts[j] != lm or j < i):
                redundant = True
                break
        if not redundant:
            minimal.append(g)
    for g in minimal:
        others = [h for h in minimal if h is not g]
        # no other leading term divides g's, so r keeps it and is nonzero
        r = normal_form(g, others, order) if others else g
        _, lc = r.leading(order)
        reduced.append(r.scale(1 / lc))
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
    return reduced


def staircase(gb, order):
    """Standard monomials (complement of the leading-term ideal), sorted.

    Raises NotZeroDimensional unless every variable has a pure power among
    the leading terms (zero-dimensionality over the coefficient field), or
    if the staircase grows past STAIRCASE_CAP monomials.
    """
    if not gb:
        raise NotZeroDimensional("empty basis has infinite staircase")
    nvars = gb[0].nvars
    lts = [g.leading(order)[0] for g in gb]
    bounds = [None] * nvars
    for lm in lts:
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or lm[nz[0]] < bounds[i]:
                bounds[i] = lm[i]
        if not nz:
            return []  # ideal contains a unit
    if any(b is None for b in bounds):
        missing = [i + 1 for i, b in enumerate(bounds) if b is None]
        raise NotZeroDimensional(
            f"no pure power of u_{missing} in the leading-term ideal")
    out = []
    def rec(prefix, i):
        if len(out) > STAIRCASE_CAP:
            raise NotZeroDimensional("staircase exceeded cap")
        if i == nvars:
            m = tuple(prefix)
            if not any(mon_divides(lm, m) for lm in lts):
                out.append(m)
            return
        for e in range(bounds[i]):
            rec(prefix + [e], i + 1)
    rec([], 0)
    out.sort(key=order.key)
    return out
