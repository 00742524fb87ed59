"""The Fraction oracle of connection.CompiledFractions' numerator table: each
numerator coefficient formed term by term in Fraction arithmetic, with h
and the c_j substituted, times the fraction's content, and rounded once to
complex.  The compiled table forms the same rationals over the ints, so
its N must equal this one bit for bit."""

from fractions import Fraction
from math import prod
from operator import sub

import numpy as np


def fraction_numerators(field, fracs, hbar, cvals):
    """The (T, M) complex array of numerator coefficients of fracs, in the
    column order of CompiledFractions.E, formed in Fraction arithmetic."""
    d, nq = field.d, field.nq
    unpack = field.packing.unpack
    m2, eps = [], []                    # wall f_w = q^m1 - eps q^m2
    for f in field.factors[1 + nq:]:
        m2.append(unpack(min(f))[1 + d:])
        eps.append(-f[min(f)])
    index, rows = {}, []
    for x in fracs:
        wall_exps = x.exps[1 + nq:]
        scale = (Fraction(x.c) / hbar ** x.exps[0]
                 * prod(map(pow, eps, wall_exps)))
        shift = x.exps[1:1 + nq]
        for m, e in zip(m2, wall_exps):
            shift = [s + e * v for s, v in zip(shift, m)]
        num = {}
        for m, coeff in sorted(x.p.items(), reverse=True):
            m = unpack(m)
            col = index.setdefault(tuple(map(sub, m[1 + d:], shift)),
                                   len(index))
            num[col] = num.get(col, 0) + prod(
                map(pow, cvals, m[1:1 + d]), start=coeff * hbar ** m[0])
        rows.append({col: complex(v * scale) for col, v in num.items()})
    N = np.zeros((len(rows), len(index)), dtype=complex)
    for t, num in enumerate(rows):
        N[t, list(num)] = list(num.values())
    return N
