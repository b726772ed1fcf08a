"""Distinct triangle decompositions: exact search, verification, and the
greedy clique-reduction procedure for multiplicities above a target level.

The exact engine is pair-driven backtracking: branch on the uncovered
pair with the fewest completing third vertices, choosing all triangles
through that pair at once.  "Distinct" means no triangle (as a vertex
set) is used twice, so the triangles through a pair have pairwise
distinct third vertices.

The search state is a bitset kernel over the active vertices, renumbered
0..V-1 in label order (so bit order is label order):

- ``rem``, a flat V*V list of remaining pair multiplicities;
- ``adj[a]``, an integer whose bit b is set while pair (a, b) still has
  multiplicity >= 1;
- ``allowed[a*V+b]``, the third vertices c with {a, b, c} not forbidden.

The candidates for pair (a, b) are ``adj[a] & adj[b] & allowed[a*V+b]``,
counted with ``int.bit_count``.  Triangles already chosen need no entry:
choosing the triangles through a pair sets that pair to 0 for the whole
subtree, so no triangle through it can be a candidate again.  A branch is
applied and undone in place.

The greedy clique reduction keeps the same kind of state over all n
vertices: a flat n*n list ``rem`` of remaining multiplicities, ``adj[x]``
with bit y set while pair (x, y) still has multiplicity >= 1, and a list
of per-vertex appearance counts.  The candidates for the next clique
vertex are the AND of ``adj`` over the members chosen so far; each removed
clique is applied in place.
"""

from __future__ import annotations

import enum
from collections import Counter, namedtuple
from itertools import chain, combinations, repeat
from math import comb

from .errors import InvalidParameterError, TriplepackError
from .multigraph import Multigraph


class SearchStatus(enum.Enum):
    FOUND = "found"
    NONE = "none-found"
    BUDGET = "budget-exceeded"
    INCONCLUSIVE = "inconclusive"


class DecompositionResult(namedtuple("DecompositionResult", "status cliques nodes")):
    """A SearchStatus, the cliques (a tuple, or None unless FOUND) and the
    nodes searched."""

    __slots__ = ()


def dehon_conditions(n: int, lam: int) -> bool:
    """Existence of a distinct triangle decomposition of lam*K_n, a simple
    (3, lam)-GDD(1^n): lam(n-1) even, 3 | lam*n*(n-1), lam <= n-2."""
    if n < 3 or lam < 1:
        raise InvalidParameterError(f"need n >= 3, lam >= 1, got {(n, lam)}")
    return _simple_gdd_conditions(1, n, lam)


def _simple_gdd_conditions(g: int, u: int, lam: int) -> bool:
    """Existence of a simple (3, lam)-GDD(g^u), g, u, lam >= 1: the one body
    of dehon_conditions (g = 1) and of gdd's two predicates."""
    return (lam * g * (u - 1) % 2 == 0 and lam * g * g * u * (u - 1) % 3 == 0
            and u >= 3 and lam <= g * (u - 2))


def verify_decomposition(g: Multigraph, cliques) -> bool:
    """True iff the cliques are pairwise distinct vertex sets of g that
    cover every pair exactly its multiplicity many times.

    One pass over each clique's sorted points checks them (strictly
    increasing ints in 0..n-1); a point that does not compare with ints,
    such as a string or None, fails the sort and the check.  Covers are
    counted over the cliques: every covered pair must meet its multiplicity
    and the covers must add up to the edge count, so no uncovered pair is
    left with multiplicity.
    """
    n = g.n
    seen = set()
    for c in cliques:
        try:
            key = tuple(sorted(c))
        except TypeError:
            return False
        low = -1
        for x in key:
            if type(x) is not int or x <= low:
                return False
            low = x
        if low >= n or key in seen:
            return False
        seen.add(key)
    cover = Counter(chain.from_iterable(map(combinations, seen, repeat(2))))
    mult, base = g.mult_map.get, g.base
    return (
        all(mult(p, base) == m for p, m in cover.items())
        and cover.total() == g.edge_count()
    )


def _check_decomposition(g: Multigraph, cliques) -> None:
    """Postcondition of every FOUND answer; an explicit check, so it also
    runs under ``python -O``."""
    if not verify_decomposition(g, cliques):
        raise TriplepackError("triangle decomposition failed verification")


# ---------------------------------------------------------------------------
# exact triangle search
# ---------------------------------------------------------------------------


def _triangle_search(g: Multigraph, forbidden, budget: int | None):
    """Cover every pair of g exactly its multiplicity many times by
    distinct triangles, none of them in ``forbidden``.

    Returns (status, list-of-triples, nodes); every subset of triangles
    tried is one node, and BUDGET is returned on the node past ``budget``.

    The search is one loop over an explicit stack, so its depth has no
    limit but memory.  Each branching pair (a, b) pushes a frame
    ``[a, b, ab, ba, need, subsets, applied]``: ``ab`` and ``ba`` index
    ``rem``, ``need`` is the multiplicity the pair had, ``subsets`` the
    live iterator of its third-vertex subsets and ``applied`` the subset
    applied below it (empty before the first).  Only NONE climbs the
    stack; FOUND reads the triangles off the frames, deepest first, and
    BUDGET ends the search.
    """
    active = g.active_vertices()
    size = len(active)
    mult, base = g.mult_map.get, g.base
    bits = [1 << i for i in range(size)]
    rem = [0] * (size * size)  # remaining multiplicity, both orientations
    adj = [0] * size  # adj[a]: the b with rem[a*size+b] >= 1
    pairs = []  # (a, b, a*size+b) for a < b, in scan order
    for a, u in enumerate(active):
        for b in range(a + 1, size):
            m = mult((u, active[b]), base)
            ab = a * size + b
            pairs.append((a, b, ab))
            if m:
                rem[ab] = rem[b * size + a] = m
                adj[a] |= bits[b]
                adj[b] |= bits[a]
    # allowed[a*size+b], a < b: the c with {a, b, c} not forbidden.  A
    # chosen triangle needs no entry: its branching pair stays at 0 below
    # it.  A forbidden triple off three distinct active vertices is never
    # a candidate anyway
    allowed = [(1 << size) - 1] * (size * size)
    index = {x: i for i, x in enumerate(active)}
    for t in forbidden:
        abc = {index.get(x) for x in t}
        if len(abc) == 3 and None not in abc:
            a, b, c = sorted(abc)
            allowed[a * size + b] &= ~bits[c]
            allowed[a * size + c] &= ~bits[b]
            allowed[b * size + c] &= ~bits[a]

    nodes = 0
    stack = []
    while True:
        # most-constrained pair first: the first strict minimum of
        # C(candidates, need) in lexicographic pair order; False when a
        # pair has fewer candidates than it needs
        best = None
        for a, b, ab in pairs:
            need = rem[ab]
            if need:
                cand = adj[a] & adj[b] & allowed[ab]
                cnt = cand.bit_count()
                if need > cnt:
                    best = False
                    break
                width = comb(cnt, need)
                if best is None or width < best[0]:
                    best = (width, a, b, ab, need, cand)
                    if width == 1:
                        break
        if best is None:
            break
        if best:
            _, a, b, ab, need, cand = best
            ws = [w for w in range(size) if cand & bits[w]]
            ba = b * size + a
            rem[ab] = rem[ba] = 0
            adj[a] ^= bits[b]
            adj[b] ^= bits[a]
            stack.append([a, b, ab, ba, need, combinations(ws, need), ()])
        # NONE here: apply the next subset of the deepest frame that has one
        while stack:
            frame = stack[-1]
            a, b, ab, ba, need, subsets, applied = frame
            bit_a, bit_b = bits[a], bits[b]
            for w in applied:
                aw, wa = a * size + w, w * size + a
                bw, wb = b * size + w, w * size + b
                r = rem[aw]
                rem[aw] = rem[wa] = r + 1
                if not r:
                    adj[a] ^= bits[w]
                    adj[w] ^= bit_a
                r = rem[bw]
                rem[bw] = rem[wb] = r + 1
                if not r:
                    adj[b] ^= bits[w]
                    adj[w] ^= bit_b
            subset = next(subsets, None)
            if subset is None:
                rem[ab] = rem[ba] = need
                adj[a] ^= bit_b
                adj[b] ^= bit_a
                stack.pop()
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                return SearchStatus.BUDGET, [], nodes
            # apply the branch in place; a pair that drops to 0 leaves adj
            for w in subset:
                aw, wa = a * size + w, w * size + a
                bw, wb = b * size + w, w * size + b
                r = rem[aw] = rem[wa] = rem[aw] - 1
                if not r:
                    adj[a] ^= bits[w]
                    adj[w] ^= bit_a
                r = rem[bw] = rem[wb] = rem[bw] - 1
                if not r:
                    adj[b] ^= bits[w]
                    adj[w] ^= bit_b
            frame[6] = subset
            break
        else:
            return SearchStatus.NONE, [], nodes
    triples = [
        tuple(sorted((active[a], active[b], active[w])))
        for a, b, *_, applied in reversed(stack)
        for w in applied
    ]
    return SearchStatus.FOUND, triples, nodes


def _quick_infeasible(g: Multigraph) -> bool:
    """Sound necessary conditions: even degrees and |E| divisible by 3."""
    if g.edge_count() % 3 != 0:
        return True
    return any(d % 2 != 0 for d in g.degrees())


def _uniform_multipartite_shape(g: Multigraph):
    """If g is lam * (complete multipartite, equal part sizes) on its active
    vertices, return (active, parts, lam); else None."""
    active = g.active_vertices()
    if not active:
        return None
    lam = None
    mult, base = g.mult_map.get, g.base
    non_edge = {x: set() for x in active}
    for i, u in enumerate(active):
        for v in active[i + 1 :]:
            m = mult((u, v), base)
            if m == 0:
                non_edge[u].add(v)
                non_edge[v].add(u)
            else:
                if lam is None:
                    lam = m
                elif m != lam:
                    return None
    if lam is None:
        return None
    parts = []
    assigned = set()
    for u in active:
        if u in assigned:
            continue
        part = {u} | non_edge[u]
        # parts must be mutually non-adjacent cliques of the complement
        for x in part:
            if non_edge[x] | {x} != part:
                return None
        parts.append(sorted(part))
        assigned |= part
    if len({len(p) for p in parts}) != 1:
        return None
    return active, parts, lam


def transverse_triples(parts) -> list:
    """Every triple of points from three distinct parts, as sorted tuples
    in lexicographic order."""
    part_of = {x: i for i, part in enumerate(parts) for x in part}
    return [
        (a, b, c)
        for a, b, c in combinations(sorted(part_of), 3)
        if part_of[a] != part_of[b] != part_of[c] != part_of[a]
    ]


def check_budget(budget: int | None) -> None:
    """Refuse a negative search budget; None means no budget."""
    if budget is not None and budget < 0:
        raise InvalidParameterError(f"budget must be >= 0, got {budget}")


def find_triangle_decomposition(
    g: Multigraph, budget: int | None = None, forbidden=()
) -> DecompositionResult:
    """Exact search for a distinct triangle decomposition of g.

    FOUND comes with a verified set of triangles; NONE is a proof of
    nonexistence; BUDGET is inconclusive.  A negative ``budget`` is
    refused; ``budget=0`` allows no node.  Routes, in order:

    - counting shortcuts: no edge is FOUND; odd degrees or an edge count
      not divisible by 3 is NONE; on a uniform complete multipartite input
      (lam*K_n, or a GDD gadget) with no forbidden triples, a multiplicity
      above the per-pair triple capacity is NONE;
    - mirror: on such an input with multiplicity above half that
      capacity, the search runs on the complementary multiplicity and the
      answer is complemented inside the transverse triples;
    - juxtaposition: on such an input whose multiplicity is two or more
      times the least index b at which a simple GDD exists, that many
      designs of index b are searched one after the other, each with the
      blocks of the earlier ones forbidden; if any of them fails, the
      nodes spent count against the budget and the kernel runs;
    - the exhaustive kernel ``_triangle_search``.

    NONE comes only from the counting shortcuts and the kernel, never
    from a failed juxtaposition.
    """
    check_budget(budget)
    res = _find(g, budget, forbidden)
    if res.status is SearchStatus.FOUND:
        _check_decomposition(g, res.cliques)
    return res


def _find(g: Multigraph, budget: int | None, forbidden) -> DecompositionResult:
    """``find_triangle_decomposition`` without the final check: each
    caller verifies the answer it returns, so a mirrored or combined
    answer is checked once."""
    if g.edge_count() == 0:
        return DecompositionResult(SearchStatus.FOUND, (), 0)
    if _quick_infeasible(g):
        return DecompositionResult(SearchStatus.NONE, None, 0)

    spent = 0
    if not forbidden:
        shape = _uniform_multipartite_shape(g)
        if shape is not None:
            active, parts, lam = shape
            cap = len(active) - 2 * len(parts[0])
            if lam > cap:
                return DecompositionResult(SearchStatus.NONE, None, 0)
            if 2 * lam > cap:
                res = _find(_multipartite_graph(parts, cap - lam), budget, ())
                if res.status is not SearchStatus.FOUND:
                    return res
                keep = set(res.cliques)
                out = tuple(t for t in transverse_triples(parts) if t not in keep)
                return DecompositionResult(SearchStatus.FOUND, out, res.nodes)
            blocks, spent = _juxtaposed_blocks(parts, lam, budget)
            if blocks is not None:
                return DecompositionResult(SearchStatus.FOUND, blocks, spent)
            if budget is not None:
                if spent > budget:
                    return DecompositionResult(SearchStatus.BUDGET, None, spent)
                budget -= spent

    status, triples, nodes = _triangle_search(g, forbidden, budget)
    nodes += spent
    if status is SearchStatus.FOUND:
        return DecompositionResult(status, tuple(sorted(triples)), nodes)
    return DecompositionResult(status, None, nodes)


def _multipartite_graph(parts, m: int) -> Multigraph:
    """m times the complete multipartite graph on ``parts``, on the points
    0..max point, with base 0."""
    part_of = {x: i for i, part in enumerate(parts) for x in part}
    return Multigraph(
        max(part_of) + 1,
        base=0,
        mult_map={
            (x, y): m for x, y in combinations(sorted(part_of), 2) if part_of[x] != part_of[y]
        },
    )


def _juxtaposed_blocks(parts, lam: int, budget: int | None):
    """(blocks, nodes): the sorted blocks of lam/b >= 2 pairwise disjoint
    simple (3, b)-GDDs on the equal-sized ``parts``, b the least divisor
    of lam at which one exists, and the nodes their searches took.  Each
    design is searched with the blocks of those before it forbidden, all
    under one ``budget``.  The blocks are None when there is no such b
    below lam, or when a search fails (no proof of anything); the nodes
    then exceed ``budget`` exactly when it ran out.  The union is not
    verified here: the caller checks what it builds from it, once."""
    size, u = len(parts[0]), len(parts)
    base = next(
        (b for b in range(1, lam) if lam % b == 0 and _simple_gdd_conditions(size, u, b)),
        None,
    )
    if base is None:
        return None, 0
    design = _multipartite_graph(parts, base)
    used, spent = (), 0
    for _ in range(lam // base):
        left = None if budget is None else budget - spent
        res = _find(design, left, used)
        spent += res.nodes
        if res.status is not SearchStatus.FOUND:
            return None, spent
        used += res.cliques
    return tuple(sorted(used)), spent


# ---------------------------------------------------------------------------
# greedy clique reduction
# ---------------------------------------------------------------------------


StallEvent = namedtuple("StallEvent", "vertex neighbor partial")


class ReductionTrace(
    namedtuple(
        "ReductionTrace",
        "q lam lam_prime order gamma cliques residual appearance stalls",
    )
):
    """Full working state of the greedy reduction procedure; ``gamma`` maps
    x to the tuple of neighbors with input multiplicity > lam, ``residual``
    is a Multigraph and ``stalls`` a tuple of StallEvents."""

    __slots__ = ()

    def stalled(self) -> bool:
        return bool(self.stalls)


def clique_reduction(
    g: Multigraph,
    q: int,
    lam: int,
    lam_prime: int,
    vertex_order=None,
) -> ReductionTrace:
    """Greedily remove distinct q-cliques so that pairs with multiplicity
    above ``lam`` are cleared.

    For each vertex x (in ``vertex_order``) and each y with input
    multiplicity above lam, cliques through (x, y) are removed until the
    pair has no edges left; additional clique vertices are chosen valid
    (adjacent to everything picked so far, not repeating a chosen clique)
    with minimal appearance count, ties to the smallest label.  When no
    valid vertex exists the pair is abandoned and a stall is recorded.
    Gamma is symmetric, so a stalled pair is recorded once from each end,
    as (x, y) and as (y, x), if it stalls again from the second (for q = 3
    it always does: candidates only shrink).

    The state is a bitset kernel: ``rem``, a flat n*n list of remaining
    multiplicities; ``adj[x]``, an integer whose bit y is set while pair
    (x, y) still has multiplicity >= 1; and a list of appearance counts.
    The valid vertices are the set bits of the AND of ``adj`` over the
    members, walked in label order keeping the first strict minimum of
    the appearance count; a candidate for the last slot is checked
    against the chosen cliques only when it would win.
    """
    if q < 3:
        raise InvalidParameterError("need q >= 3")
    if lam > lam_prime:
        raise InvalidParameterError("need lam <= lam_prime")
    if g.max_mult() > lam_prime:
        raise InvalidParameterError("multiplicities exceed lam_prime")
    order = tuple(vertex_order) if vertex_order is not None else tuple(range(g.n))
    if sorted(order) != list(range(g.n)):
        raise InvalidParameterError("vertex_order must be a permutation of 0..n-1")

    n = g.n
    bits = [1 << i for i in range(n)]
    rem = [0] * (n * n)  # remaining multiplicity, both orientations
    adj = [0] * n  # adj[x]: the y with rem[x*n+y] >= 1
    support = []  # (u, v) with u < v, in label order
    high = [[] for _ in range(n)]  # in label order, as support is
    for u, v, m in g.support_pairs():
        support.append((u, v))
        rem[u * n + v] = rem[v * n + u] = m
        adj[u] |= bits[v]
        adj[v] |= bits[u]
        if m > lam:
            high[u].append(v)
            high[v].append(u)
    gamma = {x: tuple(ys) for x, ys in enumerate(high)}
    appearance = [0] * n
    chosen = []
    chosen_set = set()
    stalls = []

    for xi in order:
        row = xi * n
        for x in gamma[xi]:
            while rem[row + x]:
                # a vertex is never its own neighbour, so the AND over the
                # members already leaves out the members themselves
                cand = adj[xi] & adj[x]
                if not cand:  # most stalls end here
                    stalls.append((xi, x, (xi, x)))
                    break
                members = [xi, x]
                for j in range(1, q - 1):
                    last = j == q - 2
                    # the first strict minimum of appearance in label
                    # order; nothing beats an appearance of 0
                    best, best_app = -1, None
                    c = cand
                    while c:
                        low = c & -c
                        c ^= low
                        y = low.bit_length() - 1
                        a = appearance[y]
                        if best_app is None or a < best_app:
                            if last and tuple(sorted(members + [y])) in chosen_set:
                                continue
                            best, best_app = y, a
                            if not a:
                                break
                    if best < 0:
                        break
                    members.append(best)
                    cand &= adj[best]
                if len(members) < q:
                    stalls.append((xi, x, tuple(members)))
                    break
                clique = tuple(sorted(members))
                chosen.append(clique)
                chosen_set.add(clique)
                # every pair of the clique has multiplicity >= 1; a pair
                # that drops to 0 leaves adj
                for a, b in combinations(clique, 2):
                    r = rem[a * n + b] = rem[b * n + a] = rem[a * n + b] - 1
                    if not r:
                        adj[a] ^= bits[b]
                        adj[b] ^= bits[a]
                for v in clique:
                    appearance[v] += 1

    residual = Multigraph(
        n,
        base=0,
        mult_map={(u, v): rem[u * n + v] for u, v in support if rem[u * n + v]},
    )
    return ReductionTrace(
        q=q,
        lam=lam,
        lam_prime=lam_prime,
        order=order,
        gamma=gamma,
        cliques=tuple(chosen),
        residual=residual,
        appearance=dict(enumerate(appearance)),
        stalls=tuple(map(StallEvent._make, stalls)),
    )


def decompose_via_reduction(
    g: Multigraph, q: int, lam: int, lam_prime: int, budget: int | None = None
) -> DecompositionResult:
    """Reduce high multiplicities greedily, decompose the residual exactly,
    and return the union (distinct across both parts).

    Only q = 3 is supported for the residual search.  NONE is returned
    only when no cliques were removed and the residual search exhausted;
    after a nonempty or stalled reduction a failed residual search is
    merely INCONCLUSIVE (a different reduction might still work).  A
    negative ``budget`` is refused before any reduction runs.
    """
    if q != 3:
        raise InvalidParameterError("residual decomposition search supports q = 3 only")
    check_budget(budget)
    trace = clique_reduction(g, q, lam, lam_prime)
    # the residual's triangles are checked once, with the cliques, on g
    res = _find(trace.residual, budget, trace.cliques)
    if res.status is SearchStatus.FOUND:
        combined = tuple(sorted(trace.cliques + res.cliques))
        _check_decomposition(g, combined)
        return DecompositionResult(SearchStatus.FOUND, combined, res.nodes)
    if res.status is SearchStatus.NONE and not trace.cliques and not trace.stalled():
        return DecompositionResult(SearchStatus.NONE, None, res.nodes)
    if res.status is SearchStatus.BUDGET:
        return DecompositionResult(SearchStatus.BUDGET, None, res.nodes)
    return DecompositionResult(SearchStatus.INCONCLUSIVE, None, res.nodes)
