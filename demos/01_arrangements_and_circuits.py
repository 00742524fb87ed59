"""Torus data -> arrangement combinatorics.

Builds the catalog instances, classifies them (simple/unimodular/smooth),
and prints circuits, vertices and the root hyperplanes.  The d=2 rank-8
instance is the interesting one: two order-2 circuits and four order-3.
"""

from hypertoric.arrangement import (build_torus_data, classify,
                                    enumerate_circuits, root_hyperplanes,
                                    vertices)
from hypertoric.catalog import INSTANCES

for name, make in INSTANCES.items():
    td = make()
    cls = classify(td)
    circs = enumerate_circuits(td)
    verts = vertices(td)
    print(f"== {name}: d={td.d} n={td.n} k={td.k}  {cls}")
    for c in circs:
        print(f"   circuit {tuple(i+1 for i in c.support)}  "
              f"S+={tuple(i+1 for i in c.plus)} S-={tuple(i+1 for i in c.minus)}"
              f"  beta={c.beta}")
    print(f"   {len(verts)} vertices (= ring rank on simple arrangements)")

### the root hyperplane of each circuit: span of iota rows off the support
td = INSTANCES["rank8_d2"]()
print("\nroot hyperplanes for rank8_d2 (rows spanning each):")
for c, rows in root_hyperplanes(td):
    print(f"   {tuple(i+1 for i in c.support)}: {rows}")

### a non-example: a=[[1,2]] is simple but not unimodular, hence not smooth
bad = build_torus_data([[1, 2]], [1, 0])
print("\n[[1,2]] classifies as", classify(bad))
