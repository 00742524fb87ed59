"""Exact non-resonance verdicts for equivariant parameters.

Periods span all solutions of the GKZ system only for non-resonant (h, c):
the vector (h,...,h,c) must avoid Lin(Q^c) + Z^{n+d} for every minimal
saturated subset Q of the doubled hyperplane set.  Everything is decided
exactly (integer Hermite normal form), so a verdict is a proof.  For T*P^1
the condition unwinds to the classical hypergeometric one: h, h+c, h-c
all non-integral.
"""

from fractions import Fraction as F

from hypertoric.catalog import INSTANCES
from hypertoric.resonance import (genericity_check, is_non_resonant,
                                  minimal_saturated)

td = INSTANCES["t_star_p1"]()
print("minimal saturated subsets:", [sorted(q) for q in minimal_saturated(td)])

for hb, c in [(F(1, 3), F(1, 5)), (F(0), F(0)), (F(2), F(-1)),
              (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (F(1, 2), F(1, 5))]:
    rep = is_non_resonant(td, hb, [c])
    tag = "non-resonant" if rep["non_resonant"] else \
        f"RESONANT via Q={rep['witness']['Q']}"
    print(f"  (h, c) = ({hb}, {c}): {tag}")

### genericity: the resonance conditions cut out proper subvarieties of the
### parameter space, so non-resonant parameters are Zariski-dense
for name, make in INSTANCES.items():
    rep = genericity_check(make())
    dims = [e["intersection_dim"] for e in rep["per_Q"]]
    print(f"{name}: genericity {rep['pass']}, "
          f"max intersection dim {max(dims)} < d+1 = {make().d + 1}")
