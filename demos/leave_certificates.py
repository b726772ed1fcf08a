"""Leave graphs: how lower bounds for D(n, k, 3) are certified.

A packing of xi blocks misses some triples; projecting the missed
triples to pairs gives the "leave" multigraph.  Conversely (for large
n), any multigraph satisfying a short list of arithmetic conditions
plus triangle-decomposability is the leave of some packing of size xi.
So a lower bound is certified by *constructing* a small leave graph:
this script builds certificates in each residue case, checks their
conditions, and round-trips one through JSON.
"""

from triplepack import jsonio
from triplepack.errors import NTooSmallError
from triplepack.leave import achieved_lower_bound, construct_q_leave, verify_certificate
from triplepack.params import johnson_bound, upper_bound

# ---------------------------------------------------------------------
# The q-case: the leave is t disjoint copies of (k-2)K_{l(k-1)+1}.
# For (74, 5): four copies of 3K9, certifying xi = J - 14.
# ---------------------------------------------------------------------
cert = construct_q_leave(74, 5)
print("certificate for (n, k) = (74, 5):")
print(f"  case       : {cert.case.value}")
print(f"  xi         : {cert.xi}  (J = {johnson_bound(74, 5, 3)},",
      f"upper bound = {upper_bound(74, 5)})")
print(f"  parameters : {cert.parameters}")
print(f"  leave edges: {cert.graph.edge_count()}, max multiplicity {cert.sigma}")

report = cert.conditions()
print(f"  conditions : edge_total={report.edge_total} degrees={report.degrees}",
      f"mults={report.mults} mult_cap={report.mult_cap}")

# Every connected component comes with decomposability evidence --
# here, Dehon's theorem applied to each 3K9 copy.
for item in cert.evidence:
    print(f"  evidence   : {item.kind} {item.params} x{item.copies}")

# ---------------------------------------------------------------------
# Constructions have vertex floors.  When n is too small the
# constructor refuses with the smallest n in the same residue class
# that works, instead of silently emitting a bogus certificate.
# ---------------------------------------------------------------------
for n, k in ((14, 5), (13, 5)):
    try:
        construct_q_leave(n, k) if n == 14 else achieved_lower_bound(n, k)
    except NTooSmallError as exc:
        print(f"\n(n, k) = ({n}, {k}) is below the construction floor:")
        print(f"  {exc}")

# ---------------------------------------------------------------------
# Certificates serialize to JSON so a third party can re-verify them
# without trusting the constructor: `verify_certificate` is the check
# every constructor runs, and the `triplepack verify` CLI subcommand runs
# it on a file.
# ---------------------------------------------------------------------
payload = jsonio.certificate_to_dict(cert)
restored = jsonio.certificate_from_dict(payload)
same = (restored.xi == cert.xi
        and restored.graph.mult_map == cert.graph.mult_map
        and verify_certificate(restored))
print(f"\nJSON round-trip intact and re-verified: {same}")

# ---------------------------------------------------------------------
# The dispatcher picks the right constructor from the residues alone.
# ---------------------------------------------------------------------
print("\nachieved lower bounds across the cases:")
for n, k in ((12, 5), (74, 5), (11, 5), (8, 4)):
    xi, c = achieved_lower_bound(n, k)
    print(f"  D({n}, {k}, 3) >= {xi:5d}   [{c.case.value}]"
          f"  (upper bound {upper_bound(n, k)})")
