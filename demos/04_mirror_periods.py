"""Twisted periods of the mirror and the two numerical mirror checks.

The mirror of a d=1 instance is C* minus the punctures {t : 1 + q_i t^{a_i}
= 0}; periods of Omega over Pochhammer double-commutator cycles between
adjacent punctures solve the GKZ system.  Verified two ways:

  1. exact Euler derivatives of the periods (integrand insertions
     E_i Omega = h phi_i Omega), plugged into every GKZ operator
     (relative residual ~1e-15);
  2. critical values h*phi_i(t*) of the superpotential against the joint
     spectrum of quantum multiplication (agreement ~1e-15); each critical
     point t* is found by Newton from an eigenvalue.
"""

from fractions import Fraction

import numpy as np

from hypertoric.catalog import INSTANCES
from hypertoric.mirror import (MirrorModel, compare_spectra, cycle_basis,
                               period, transport_consistency,
                               verify_gkz_on_periods)

HB, C1 = Fraction(1, 3), [Fraction(1, 5)]
q = np.array([0.31 + 0.12j, 0.22 - 0.17j])

model = MirrorModel(INSTANCES["t_star_p1"](), HB, C1, q)
print("punctures of the T*P^1 mirror at q:",
      [f"{p:.6g}" for p in model.punctures()])
periods, _ = period(model, cycle_basis(model))
for k, J in enumerate(periods):
    print(f"  period over cycle {k}: {J:.12g}")

rep, _ = verify_gkz_on_periods(INSTANCES["t_star_p1"](), HB, C1, [q])
print("GKZ on periods:", rep["points"][0])

### critical points of the superpotential vs multiplication spectra
for name in ["t_star_p1", "a_tilde_2", "rank8_d2"]:
    td = INSTANCES[name]()
    rng = np.random.default_rng(7)
    qq = (0.2 + 0.3 * rng.random(td.n)) * \
        np.exp(2j * np.pi * rng.random(td.n))
    spec = compare_spectra(td, HB, [Fraction(1, 5), Fraction(1, 7)][:td.d],
                           qq, seed=5, tol=1e-6)
    print(f"{name}: {spec['count']} critical points, spectra deviation "
          f"{spec['max_deviation']:.2e} over {spec['rank']} eigenvalues")

### parallel transport of the period vector: one basis change at q0,
### then the connection predicts the periods at q1
q1 = q * np.exp(np.array([0.09 - 0.05j, -0.06 + 0.08j]))
tc = transport_consistency(INSTANCES["t_star_p1"](), HB, C1, q, q1)
print("transport consistency deviation:", tc["max_relative_deviation"])
