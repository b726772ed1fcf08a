"""Distinct triangle decompositions, Dehon's theorem, and simple GDDs.

The leave-graph machinery ultimately rests on knowing when a multigraph
splits into *distinct* triangles covering each pair exactly its
multiplicity many times.  Two classical exact results do the heavy
lifting: Dehon's theorem for lambda*K_n, and the existence theorem for
simple group divisible designs on uniform groups.  This script
exercises both, the search engines behind them, and the juxtaposition
trick that assembles large-index GDDs from disjoint small ones.
"""

from triplepack.decomp import (
    SearchStatus,
    dehon_conditions,
    find_triangle_decomposition,
    verify_decomposition,
)
from triplepack.gdd import (
    gadget_multigraph,
    lgdd_exists,
    search_simple_gdd,
    verify_gdd,
)
from triplepack.multigraph import complete

# ---------------------------------------------------------------------
# The Fano plane: K7 decomposes into 7 distinct triangles.
# ---------------------------------------------------------------------
res = find_triangle_decomposition(complete(7, 1))
print("K7 triangle decomposition (a Steiner triple system):")
for t in sorted(res.cliques):
    print(f"  {t}")
print(f"  verified: {verify_decomposition(complete(7, 1), res.cliques)}")

# ---------------------------------------------------------------------
# Dehon's theorem gives the exact condition for lambda*K_n; the search
# engine agrees with it on a small grid.  Note the distinctness cap:
# lambda can never exceed n - 2.
# ---------------------------------------------------------------------
print("\nlambda*K_n decomposability (predicate vs search):")
for n, lam in ((5, 3), (6, 4), (7, 2), (8, 1), (5, 4)):
    predicted = dehon_conditions(n, lam)
    found = find_triangle_decomposition(complete(n, lam)).status is SearchStatus.FOUND
    print(f"  {lam}K{n}: predicted {predicted!s:<5} search {found!s:<5}")

# ---------------------------------------------------------------------
# Simple GDDs: triangles covering every cross-group pair exactly
# lambda times and no within-group pair.  The "gadget" multigraph makes
# this a triangle-decomposition instance.
# ---------------------------------------------------------------------
status, inst, _ = search_simple_gdd(2, 3, 1)
print(f"\nsimple (3,1)-GDD on groups 2^3: {status.value}")
print(f"  groups: {inst.groups}")
print(f"  blocks: {sorted(inst.blocks)}")
print(f"  verified: {verify_gdd(inst)}")

# Large sets: all transverse triples partition into disjoint simple
# GDDs -- except the famous (1, 1, 7) case.
print(f"\nlgdd_exists(1, 7, 1) = {lgdd_exists(1, 7, 1)}   (the exception)")
print(f"lgdd_exists(1, 9, 1) = {lgdd_exists(1, 9, 1)}")

# ---------------------------------------------------------------------
# Juxtaposition: disjoint simple GDDs with index 1 union into a simple
# GDD with a higher index.  The search takes this route itself, so
# big-lambda witnesses are assembled without a big search.
# ---------------------------------------------------------------------
_, pair, _ = search_simple_gdd(2, 6, 2)
print(f"\ntwo disjoint (3,1)-GDDs on 2^6 as a (3,2)-GDD: {verify_gdd(pair)} "
      f"({len(pair.blocks)} blocks)")

_, big, _ = search_simple_gdd(2, 6, 5)
print(f"assembled (3,5)-GDD on 2^6: {big is not None and verify_gdd(big)}")
print(f"  ({len(big.blocks)} distinct blocks; cap on lambda here is g(u-2) = 8)")

# The gadget multigraph view of the same object:
g = gadget_multigraph(2, 6, 5)
print(f"  gadget multigraph: n = {g.n}, 2|E| = {2 * g.edge_count()}")
