"""Desk-scale nonexistence: why D(14, 5, 3) <= J(14, 5, 3) - 3.

The generic q-case argument gives D(n, 5, 3) <= J - 3 for large n, but
(14, 5) sits far below the construction floor.  Still, the bound holds
-- and can be *proved* at desk scale: if a packing of size J - 2 = 34
existed, its leave would be a multigraph with a fixed total degree
whose components all admit distinct triangle decompositions.  The
search enumerates every possible component ("brick") up to the weight
budget and shows no multiset of decomposable bricks adds up.

Run with --exhaustive to reproduce the full proof (about 3.5 minutes);
by default this script runs only the relaxed sanity check, which drops
the multiplicity-residue condition and *does* find a witness -- showing
the exhaustive search is not vacuously tight.
"""

import sys
import time

from triplepack.oracle import ReportStatus, search_leave_nonexistence
from triplepack.params import johnson_bound

J = johnson_bound(14, 5, 3)
print(f"J(14, 5, 3) = {J}; target packing size J - 2 = {J - 2}")
print(f"a size-{J - 2} packing needs a leave of total degree "
      f"{14 * 13 * 12 - 5 * 4 * 3 * (J - 2)}")

# ---------------------------------------------------------------------
# Relaxed mode: drop the per-pair multiplicity condition.  Components
# certified by Dehon's theorem are admitted directly, and a witness
# appears immediately: 3K5 together with 2K7.
# ---------------------------------------------------------------------
t0 = time.time()
rep = search_leave_nonexistence(14, 5, relax=True)
print(f"\nrelaxed search: {rep.status.value} ({time.time() - t0:.2f}s)")
for g in rep.witness or ():
    print(f"  component: {g.max_mult()}K{g.n}  (degree sum {2 * g.edge_count()})")

# ---------------------------------------------------------------------
# Exhaustive mode: with the multiplicity condition back in force, every
# admissible brick is enumerated (isomorph-reduced, connectivity- and
# decomposability-filtered) and no combination reaches the budget.
# Conclusion: no qualifying leave exists, so D(14, 5, 3) <= 33.
# ---------------------------------------------------------------------
if "--exhaustive" in sys.argv[1:]:
    t0 = time.time()
    rep = search_leave_nonexistence(14, 5)
    assert rep.status is ReportStatus.NONE_EXISTS
    print(f"\nexhaustive search: {rep.status.value} ({time.time() - t0:.0f}s)")
    print(f"therefore D(14, 5, 3) <= {J - 3}")
else:
    print("\n(pass --exhaustive to run the full nonexistence proof)")
