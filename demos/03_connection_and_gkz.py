"""The quantum connection nabla_i = E_i + A_i(q) and its GKZ system.

Flatness E_i A_j - E_j A_i + [A_i, A_j] = 0 is checked symbolically; the
GKZ operators' symbols reduce to zero modulo the quantum ideal (that is
the sense in which the system presents the ring).  Transport around a loop
encircling q1 = 0 on T*P^1 has holonomy spectrum {1, exp(-2 pi i c)}: the
residue of the connection at the origin is A_1(0), whose eigenvalues are
{0, c}.
"""

from fractions import Fraction

import numpy as np

from hypertoric.catalog import INSTANCES
from hypertoric.connection import (QPath, gkz_annihilates_unit, gkz_system,
                                   symbol_check, transport_matrix)
from hypertoric.quantum_ring import ring

HB, C = Fraction(1, 3), Fraction(1, 5)

for name in ["t_star_p1", "a_tilde_2", "p1_times_p1", "rank8_d2"]:
    td = INSTANCES[name]()
    fam = ring(td).family       # the connection of the quantum presentation
    pres = fam.pres
    print(f"== {name}: rank {pres.rank}, {len(gkz_system(td))} GKZ operators")
    print("   flat (exact):", fam.flatness_exact(),
          "| symbols in ideal:", symbol_check(pres)["pass"],
          "| annihilates unit:", gkz_annihilates_unit(fam))
    # rank8_d2 prints flat=False: its staircase forces a squared class,
    # and squared classes carry q-corrections, so the constant frame fails

### monodromy around q1 = 0
nc = ring(INSTANCES["t_star_p1"]()).numeric(HB, [C])   # compiled once
loop = QPath.circle(np.array([0.05 + 0j, 0.23 + 0.11j]), coord=0, turns=1)
Phi = transport_matrix(nc, loop)
ev = np.sort_complex(np.linalg.eigvals(Phi))
want = np.sort_complex(np.array([1.0, np.exp(-2j * np.pi * float(C))]))
print("\nholonomy eigenvalues:", ev)
print("exp(-2 pi i * spec A1(0)):", want, "| agree to",
      np.abs(ev - want).max())
