"""Independent re-checks of triplepack answers.

Each check reads the answer in its plain form (JSON dicts, tuples of
blocks, integers) and re-derives the claimed property with its own
arithmetic, so a defect in one of the package's checkers cannot hide a
defect in the answer it checks.  Every check returns a list of reasons
the answer is wrong; an empty list means the answer holds.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations


def johnson(n: int, k: int, t: int = 3) -> int:
    """Nested-floor Johnson bound J(n, k, t)."""
    val = 1
    for i in range(t - 1, -1, -1):
        val = (n - i) * val // (k - i)
    return val


def certificate_errors(d: dict, upper: int) -> list:
    """Leave conditions of a certificate in its JSON form.

    Recomputes the edge total, every degree and every multiplicity from
    the listed edges (pairs not listed sit at multiplicity ``base``), and
    checks the 2|E| identity, the degree and multiplicity residues, the
    multiplicity ceiling n - 2 that a distinct triangle decomposition
    needs, xi <= ``upper``, and the explicit evidence blocks.
    """
    errs = []
    n, k, xi = int(d["n"]), int(d["k"]), int(d["xi"])
    graph = d["graph"]
    if int(graph["n"]) != n:
        errs.append("graph order differs from n")
    deg, twice_edges, mults, bad = graph_tally(graph)
    errs += bad
    if twice_edges != n * (n - 1) * (n - 2) - k * (k - 1) * (k - 2) * xi:
        errs.append("edge total does not match xi")
    if sum(deg) != twice_edges:
        errs.append("degree sum is not 2|E|")
    unit = (k - 1) * (k - 2)
    if any(x % unit != (n - 1) * (n - 2) % unit for x in deg):
        errs.append("degree residue")
    if any(m % (k - 2) != (n - 2) % (k - 2) for m in mults):
        errs.append("multiplicity residue")
    if mults and max(mults) > n - 2:
        errs.append("multiplicity above n - 2")
    if xi > upper:
        errs.append("xi above the upper bound")
    for item in d["evidence"]:
        if item.get("blocks"):
            g, u, lam = item["params"]
            if item["kind"] != "simple-gdd" or not gdd_blocks_ok(g, u, lam, item["blocks"]):
                errs.append(f"evidence blocks {item['kind']} {item['params']}")
    return errs


def graph_tally(graph: dict):
    """Degrees, 2|E|, the set of multiplicities and malformed entries of a
    multigraph in its JSON form (pairs not listed sit at ``base``)."""
    n = int(graph["n"])
    base = int(graph.get("base", 0))
    deg = [base * (n - 1)] * n
    twice_edges = base * n * (n - 1)
    mults = set()
    pairs = set()
    bad = []
    for u, v, m in graph["edges"]:
        if not 0 <= u < v < n or (u, v) in pairs or m < 0:
            bad.append(f"bad edge entry {[u, v, m]}")
            continue
        pairs.add((u, v))
        deg[u] += m - base
        deg[v] += m - base
        twice_edges += 2 * (m - base)
        mults.add(m)
    if len(pairs) < n * (n - 1) // 2:
        mults.add(base)
    return deg, twice_edges, mults, bad


def gdd_blocks_ok(g: int, u: int, lam: int, blocks) -> bool:
    """Blocks form a simple (3, lam)-GDD(g^u) on groups {ig .. ig+g-1}."""
    v = g * u
    seen = set()
    cover = Counter()
    for b in blocks:
        t = tuple(sorted(b))
        if len(t) != 3 or t in seen or not all(0 <= x < v for x in t):
            return False
        if len({x // g for x in t}) != 3:
            return False
        seen.add(t)
        cover.update(combinations(t, 2))
    cross = sum(1 for a, b in combinations(range(v), 2) if a // g != b // g)
    return len(cover) == cross and all(c == lam for c in cover.values())


def triangles_decompose(mult: dict, triangles) -> bool:
    """Distinct triangles covering each pair (u < v) exactly mult[(u, v)] times."""
    seen = set()
    cover = Counter()
    for tri in triangles:
        t = tuple(sorted(tri))
        if len(set(t)) != 3 or t in seen:
            return False
        seen.add(t)
        cover.update(combinations(t, 2))
    return cover == Counter({p: m for p, m in mult.items() if m})


def packing_errors(n: int, k: int, t: int, value: int, expected: int, blocks) -> list:
    """A t-(n, k, 1) packing of the expected size, every t-set covered at most once."""
    errs = []
    if value != expected:
        errs.append(f"value {value} != {expected}")
    if blocks is None or len(blocks) != value:
        return errs + ["witness size differs from value"]
    cover = Counter()
    for b in blocks:
        if len(set(b)) != k or not all(0 <= x < n for x in b):
            return errs + [f"bad block {b}"]
        cover.update(combinations(sorted(b), t))
    if cover and max(cover.values()) > 1:
        errs.append("a t-subset is covered twice")
    return errs


def avoidance_errors(equalities, avoidances, x: int, bound: int) -> list:
    """x >= 1 meets every congruence, misses every forbidden residue, x <= bound."""
    errs = []
    if x < 1 or x > bound:
        errs.append(f"solution {x} outside 1..{bound}")
    if any(x % p != a for p, a in equalities):
        errs.append("an equality fails")
    if any(x % q in forb for q, forb in avoidances):
        errs.append("a forbidden residue is hit")
    return errs


def reduction_errors(n: int, mult: dict, cliques, residual: dict) -> list:
    """Greedy triangle removal: distinct cliques, each valid when removed,
    the residual is what is left, and (3, 2)-divisibility is preserved."""
    errs = []
    if len(set(cliques)) != len(cliques):
        errs.append("repeated clique")
    rem = Counter(mult)
    for c in cliques:
        if len(set(c)) != 3:
            errs.append(f"clique {c} is not a triangle")
            continue
        for p in combinations(sorted(c), 2):
            rem[p] -= 1
            if rem[p] < 0:
                errs.append(f"clique {c} used a missing edge")
    left = {p: m for p, m in rem.items() if m}
    if left != {p: m for p, m in residual.items() if m}:
        errs.append("residual differs from the replay")
    if _q2_divisible(n, mult) != _q2_divisible(n, left):
        errs.append("(3, 2)-divisibility changed")
    return errs


def _q2_divisible(n: int, mult: dict) -> bool:
    deg = [0] * n
    for (u, v), m in mult.items():
        deg[u] += m
        deg[v] += m
    return sum(mult.values()) % 3 == 0 and all(d % 2 == 0 for d in deg)
