"""Classical vs quantum cohomology ring presentations.

For T*P^1 the single circuit relation deforms from u1*u2 = 0 (classical,
after the linear relation) to u1*u2 = q*(h-u1)*(h-u2); the shared staircase
{1, u1} shows the rank is 2 either way.  Also runs the divisor-formula
round trip: A_i(q) rebuilt from the extracted residue operators L_S matches
the direct multiplication matrices as rational-function identities.
"""

from hypertoric.catalog import INSTANCES
from hypertoric.quantum_ring import (ring, verify_divisor_formula,
                                     verify_steinberg_identities)

for name in ["t_star_p1", "a_tilde_1", "rank8_d2"]:
    td = INSTANCES[name]()
    names = [f"u{i+1}" for i in range(td.n)]
    r = ring(td)    # one object per instance: both presentations, one field
    for pres in (r.classical, r.quantum):
        mode = pres.mode
        print(f"== {name} ({mode}), rank {pres.rank}")
        for g in pres.generators:
            print("   gen:", g.render(names, coeff_str=pres.field.render))
        print("   staircase:", pres.std)

### reconstruction of quantum multiplication from Steinberg operators,
### exact over the parameter field (no numerics involved)
for name in ["t_star_p1", "a_tilde_2", "p1_times_p1"]:
    td = INSTANCES[name]()
    div = verify_divisor_formula(td)
    ste = verify_steinberg_identities(td)
    print(f"{name}: divisor formula exact per divisor ->",
          [e["exact"] for e in div["per_divisor"]],
          "| identities ->",
          [(e['circuit'], e['product_identity_A'], e['product_identity_B'],
            e['vanishing']) for e in ste["circuits"]])
