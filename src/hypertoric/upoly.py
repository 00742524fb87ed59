"""Sparse polynomials in the divisor classes u_1..u_n and a budgeted Buchberger.

Coefficients are duck-typed field elements (ParamField FracElements, or plain
Fractions for specialized computations): they must support +, -, *, /, bool,
==.  Monomials are exponent tuples.

Term order: graded reverse lex with variable precedence u_n > ... > u_1
(the default).  With this order the linear relations sum(a_ij u_i) = c_j
eliminate high-index variables and circuit monomials prod_{i in S} u_i lead
the circuit relations, so staircases come out in the low-index variables.
"""

from .errors import BudgetExceeded, NotZeroDimensional


class GrevlexOrder:
    """Grevlex with precedence prec[0] > prec[1] > ... (variable indices)."""

    def __init__(self, nvars, precedence=None):
        self.nvars = nvars
        if precedence is None:
            precedence = tuple(range(nvars - 1, -1, -1))  # u_n > ... > u_1
        if sorted(precedence) != list(range(nvars)):
            raise ValueError("precedence must be a permutation of variables")
        self.precedence = tuple(precedence)
        self._rev = tuple(reversed(self.precedence))  # lowest first
        self._cache = {}

    def key(self, exp):
        k = self._cache.get(exp)
        if k is None:
            k = (sum(exp), tuple(-exp[i] for i in self._rev))
            self._cache[exp] = k
        return k


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
    def zero(cls, nvars):
        return cls(nvars)

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

    def copy(self):
        return UPoly(self.nvars, dict(self.terms))

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

    def mul_term(self, mon, c):
        if not c:
            return UPoly(self.nvars)
        return UPoly(self.nvars, {mon_mul(m, mon): cc * c for m, cc in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def leading(self, order):
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def coeff(self, mon):
        return self.terms.get(mon)

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


def normal_form(p, basis, order):
    """Remainder of p under division by basis (monic leading coeffs not required)."""
    work = dict(p.terms)
    rem = {}
    lts = [(g.leading(order), g) for g in basis if not g.is_zero()]
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        hit = None
        for (lm, lc), g in lts:
            if mon_divides(lm, m):
                hit = (lm, lc, g)
                break
        if hit is None:
            rem[m] = c
            continue
        lm, lc, g = hit
        shift = mon_div(m, lm)
        f = c / lc
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            mm = mon_mul(gm, shift)
            s = work.get(mm)
            val = gc * f
            if s is None:
                if val:
                    work[mm] = -val
            else:
                s = s - val
                if s:
                    work[mm] = s
                else:
                    del work[mm]
    return UPoly(p.nvars, rem)


def s_polynomial(f, g, order):
    (mf, cf) = f.leading(order)
    (mg, cg) = g.leading(order)
    l = mon_lcm(mf, mg)
    return f.mul_term(mon_div(l, mf), cg) - g.mul_term(mon_div(l, mg), cf)


def buchberger(gens, order, budget=20000):
    """Reduced Groebner basis: monic, fully inter-reduced, sorted by leading term.

    budget counts S-polynomial reductions; BudgetExceeded when exhausted.
    Uses the coprimality and chain criteria to prune pairs.
    """
    G = []
    for g in gens:
        if not g.is_zero():
            _, lc = g.leading(order)
            G.append(g.scale(1 / lc) if lc != 1 else g)
    G.sort(key=lambda g: order.key(g.leading(order)[0]))
    lts = [g.leading(order)[0] for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    done = set()
    steps = 0
    while pairs:
        # deterministic normal selection: smallest lcm, then indices
        best = min(pairs, key=lambda ij: (order.key(mon_lcm(lts[ij[0]], lts[ij[1]])), ij))
        pairs.discard(best)
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
                if p1 in done and p2 in done and p1 not in pairs and p2 not in pairs:
                    chain = True
                    break
        if chain:
            continue
        steps += 1
        if steps > budget:
            raise BudgetExceeded(f"Buchberger exceeded {budget} reductions")
        r = normal_form(s_polynomial(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        _, lc = r.leading(order)
        r = r.scale(1 / lc)
        G.append(r)
        lts.append(r.leading(order)[0])
        newi = len(G) - 1
        for t in range(newi):
            pairs.add((t, newi))
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
        r = normal_form(g, others, order) if others else g
        if r.is_zero():
            continue
        _, lc = r.leading(order)
        reduced.append(r.scale(1 / lc))
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
    return reduced


def staircase(gb, order, cap=10000):
    """Standard monomials (complement of the leading-term ideal), sorted.

    Raises NotZeroDimensional unless every variable has a pure power among
    the leading terms (zero-dimensionality over the coefficient field).
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
        if len(out) > cap:
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
