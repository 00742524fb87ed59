"""The normal-form oracle of the multiplication matrices: each column by
its own division of u_i s by the reduced basis, as the matrices were formed
before they were read off the basis by RingPresentation.column."""

from hypertoric.upoly import UPoly


def normal_form_matrix(pres, i):
    """The matrix of u_i on the staircase of pres, one normal form per
    column."""
    one = pres.field.one
    cols = [pres.nf_vector(UPoly(pres.td.n, {
        tuple(e + (t == i) for t, e in enumerate(s)): one})) for s in pres.std]
    return [list(row) for row in zip(*cols)]


def assert_columns_match_normal_forms(pres):
    """Every multiplication matrix of pres equals its normal-form oracle,
    entry for entry, by exact ==."""
    for i in range(pres.td.n):
        assert pres.multiplication_matrix(i) == normal_form_matrix(pres, i), i
