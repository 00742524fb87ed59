"""The point field Q(i): exact conversion of floats and of q^k."""

import struct
from fractions import Fraction

import numpy as np

from hypertoric.catalog import rank8_d2
from hypertoric.params import PointField
from hypertoric.quantum_ring import ring


def as_fraction(x):
    return Fraction(int(x.numerator), int(x.denominator))


def test_conversion_is_exact_and_rounds_back():
    rng = np.random.default_rng(0)
    zs = [complex(x, y) for x, y in
          rng.normal(size=(40, 2)) * 10.0 ** rng.integers(-300, 300, (40, 2))]
    zs += [complex(0.1, -1 / 3), complex(5e-324, -1.7976931348623157e308),
           complex(-2.5, 2.2250738585072014e-308)]
    for z in zs:
        x = PointField.exact(z)
        assert (as_fraction(x.x), as_fraction(x.y)) == \
            (Fraction(z.real), Fraction(z.imag))
        back = PointField.to_complex(x)
        assert struct.pack("<dd", back.real, back.imag) == \
            struct.pack("<dd", z.real, z.imag)


def gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gauss_pow(a, e):
    if e < 0:
        norm = a[0] ** 2 + a[1] ** 2
        a, e = (a[0] / norm, -a[1] / norm), -e
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = gauss_mul(out, a)
    return out


def test_q_k_is_exact_with_negative_iota():
    # q^k_l = prod_i q_i^{iota_il}, here with iota entries of both signs
    td = rank8_d2()
    assert any(w < 0 for row in td.iota for w in row)
    rng = np.random.default_rng(11)
    q = (0.15 + 0.3 * rng.random(td.n)) * np.exp(2j * np.pi * rng.random(td.n))
    field = ring(td).at(Fraction(1, 3), [Fraction(1, 5)] * 2, q).field
    for l in range(td.k):
        want = (Fraction(1), Fraction(0))
        for i in range(td.n):
            z = (Fraction(q[i].real), Fraction(q[i].imag))
            want = gauss_mul(want, gauss_pow(z, td.iota[i][l]))
        got = field.q[l]
        assert (as_fraction(got.x), as_fraction(got.y)) == want
