"""The fraction-field oracle of the symbolic presentations: Buchberger run
directly on ParamField coefficients, where sympy cancels after every
operation, with staircase, relations and multiplication matrices read off
that basis."""

from hypertoric.upoly import (GrevlexOrder, UPoly, buchberger, normal_form,
                              staircase)


def fraction_field_ring(r, mode):
    """(staircase, relation strings, multiplication matrices) of the
    presentation of the QuantumRing r in mode, over the ParamField."""
    td, F = r.td, r.field
    order = GrevlexOrder(td.n)
    gb = buchberger(r.generators(F, mode), order)
    std = staircase(gb, order)
    names = [f"u{i + 1}" for i in range(td.n)]
    rels = [g.render(names, coeff_str=F.render) for g in gb]
    mats = []
    for i in range(td.n):
        cols = []
        for m in std:
            shifted = tuple(e + (t == i) for t, e in enumerate(m))
            rem = normal_form(UPoly(td.n, {shifted: F.one}), gb, order)
            cols.append([rem.terms.get(s, F.zero) for s in std])
        mats.append([list(row) for row in zip(*cols)])
    return std, rels, mats


def assert_matches_fraction_field(r, mode):
    """The presentation r.presentation(mode), built in the WallRing, equals
    the fraction-field one term for term."""
    pres = r.presentation(mode)
    std, rels, mats = fraction_field_ring(r, mode)
    assert pres.std == std
    assert pres.relation_strings() == rels
    assert [pres.multiplication_matrix(i) for i in range(r.td.n)] == mats
    return pres
