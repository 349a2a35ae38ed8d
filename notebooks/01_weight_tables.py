"""Norm weight tables: what one instance contributes, measure by measure.

Run:  python3 notebooks/01_weight_tables.py
"""

from rps import (
    BaseMeasure,
    MeasureSpec,
    instance_weight,
    plain_itemset,
    sequence,
    weight_table,
    weighted_itemset,
)
from rps.oracle import enumerate_patterns, pattern_measure

A, B, C = 0, 1, 2


def show(title, z, spec):
    t = weight_table(z, spec)
    print(f"  {title:28s} {t}  total={instance_weight(z, spec):g}")


print("A plain itemset {A,B,C} has C(3,ell) patterns per norm ell;")
print("the measure's norm factor scales each band:")
abc = plain_itemset([A, B, C])
show("freq", abc, MeasureSpec(BaseMeasure.FREQ))
show("area", abc, MeasureSpec(BaseMeasure.AREA))
show("decay alpha=0.5", abc, MeasureSpec(BaseMeasure.DECAY, alpha=0.5))
show("freq, norms [2..3]", abc, MeasureSpec(BaseMeasure.FREQ, min_norm=2, max_norm=3))

print()
print("A weighted itemset {A:2, B:1.5, C:2} sums pattern utilities instead.")
print("Each item sits in C(n-1, ell-1) patterns of norm ell, so the whole")
print("band weighs W * C(n-1, ell-1) * f(ell) with W = 5.5:")
wz = weighted_itemset({A: 2.0, B: 1.5, C: 2.0})
show("util", wz, MeasureSpec(BaseMeasure.UTIL))
show("avgutil", wz, MeasureSpec(BaseMeasure.AVGUTIL))

print()
print("Sequences count distinct subsequence patterns. <{B}{A,C}{A}> holds")
print("13 distinct patterns; note {A} counts once although it occurs twice:")
z3 = sequence([[B], [A, C], [A]])
show("freq", z3, MeasureSpec(BaseMeasure.FREQ))

print()
print("The closed forms agree with brute-force enumeration:")
spec = MeasureSpec(BaseMeasure.AREA)
by_norm: dict[int, float] = {}
for x in enumerate_patterns(z3):
    by_norm[x.norm] = by_norm.get(x.norm, 0.0) + pattern_measure(x, z3, spec)
print(f"  enumerated area masses       {by_norm}")
print(f"  closed-form area table       {weight_table(z3, spec)}")
print(f"  instance weight (area)       {instance_weight(z3, spec):g}")
