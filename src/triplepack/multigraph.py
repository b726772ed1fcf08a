"""Multigraph carrier type used by every construction and search.

Representation: a uniform background multiplicity ``base`` plus a sparse
map of exceptional pairs.  Leave graphs are either sparse (base 0) or
"complete multigraph plus a sparse perturbation" (case r != 0), and the
split keeps both cheap at n in the thousands.

Vertices are labeled 0..n-1, no loops, multiplicities are non-negative
integers (labels and multiplicities are ints, never bools); a pair absent
from the map has multiplicity ``base``.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InfeasibleSequenceError, InvalidParameterError, TriplepackError


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _bad_entry(u: int, v: int, n: int) -> str:
    if u == v:
        return "loops are not allowed"
    if not (0 <= u < n and 0 <= v < n):
        return f"vertex out of range in pair {(u, v)}"
    return "negative multiplicity"


def _canonical_degrees(n: int, base: int, mult_map: dict):
    """The degrees of the graph when its map is canonical (every pair
    oriented u < v with labels in range and not bool, every multiplicity
    non-negative and != base), else None."""
    deg = [base * (n - 1)] * n
    try:
        for (u, v), m in mult_map.items():
            if not (0 <= u < v < n and 0 <= m != base):
                return None
            if u < 2 and (type(u) is bool or type(v) is bool):  # only 0 and 1 can be
                return None
            m -= base
            deg[u] += m  # a label that is not an int fails here
            deg[v] += m
    except (TypeError, ValueError):
        return None
    return deg


class Multigraph:
    """Fields ``n``, ``base`` and ``mult_map`` (pair -> multiplicity !=
    base); immutable once built, like every record of the package."""

    __slots__ = ("n", "base", "mult_map", "_inv")

    def __init__(self, n: int, base: int = 0, mult_map: dict | None = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mult_map", {} if mult_map is None else mult_map)
        self.__post_init__()  # looked up on the class: perfbench/spans.py wraps it

    def __post_init__(self):
        n, base = self.n, self.base
        if type(n) is not int or type(base) is not int:
            raise InvalidParameterError("vertex count and base must be integers")
        if n < 0 or base < 0:
            raise InvalidParameterError("vertex count and base must be non-negative")
        # a canonical map, which every builder and the JSON reader
        # produce, is copied after one pass that also counts the degrees
        deg = _canonical_degrees(n, base, self.mult_map)
        if deg is None:
            try:
                mult_map = self._rebuild()
            except InvalidParameterError:
                raise
            except (TypeError, ValueError):  # not a pair, or not comparable
                raise InvalidParameterError("pairs and multiplicities must be integers") from None
            deg = _canonical_degrees(n, base, mult_map)
            if deg is None:
                raise InvalidParameterError("vertex labels must be integers")
        else:
            mult_map = dict(self.mult_map)
        # a float multiplicity makes the edge count a float; a bool adds
        # up as an int, so the distinct multiplicities are type-checked.
        # The set keeps only the first of 1 and True (0 and False): when
        # either value is there, every multiplicity's type is scanned
        distinct = set(mult_map.values())
        edges = base * (n * (n - 1) // 2 - len(mult_map)) + sum(mult_map.values())
        bools = (0 in distinct or 1 in distinct) and bool in set(map(type, mult_map.values()))
        if type(edges) is not int or bools or any(type(m) is not int for m in distinct):
            raise InvalidParameterError("multiplicities must be integers")
        top = base if n >= 2 and len(mult_map) < n * (n - 1) // 2 else 0
        object.__setattr__(self, "mult_map", mult_map)
        # (degrees, edge count, max multiplicity): the instance is frozen,
        # so they cannot go stale
        object.__setattr__(self, "_inv", (deg, edges, max(top, max(distinct, default=0))))

    def _rebuild(self) -> dict:
        """The map with pairs oriented u < v and entries equal to base
        dropped; refuses loops, out-of-range vertices and negatives."""
        n, base, mult_map = self.n, self.base, self.mult_map
        clean = {}
        for p, m in mult_map.items():
            u, v = p
            if u < v:
                ok = 0 <= u and v < n
            else:
                ok = 0 <= v and u < n and u != v
                p = (v, u)
                if ok and p in mult_map:
                    raise InvalidParameterError(f"pair {p} listed in both orientations")
            if not ok or m < 0:
                raise InvalidParameterError(_bad_entry(u, v, n))
            if m != base:
                clean[p] = m
        return clean

    # -- queries ---------------------------------------------------------

    def mult(self, u: int, v: int) -> int:
        if u == v:
            return 0
        return self.mult_map.get(_pair(u, v), self.base)

    def degrees(self) -> list[int]:
        """Degree of every vertex, as a fresh list the caller may change."""
        return list(self._inv[0])

    def degree(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise InvalidParameterError(f"vertex {x} out of range")
        return self._inv[0][x]

    def edge_count(self) -> int:
        """Total edge multiplicity |E(G)| (parallel edges counted)."""
        return self._inv[1]

    def support_pairs(self):
        """Iterate (u, v, mult) over pairs with multiplicity >= 1."""
        if self.base > 0:
            for u in range(self.n):
                for v in range(u + 1, self.n):
                    m = self.mult(u, v)
                    if m > 0:
                        yield u, v, m
        else:
            for (u, v), m in sorted(self.mult_map.items()):
                if m > 0:
                    yield u, v, m

    def active_vertices(self) -> list[int]:
        return [x for x, d in enumerate(self._inv[0]) if d > 0]

    def max_mult(self) -> int:
        return self._inv[2]

    def validate(self) -> None:
        """Check the degree identity sum(deg) = 2|E|."""
        deg, edges, _top = self._inv
        if sum(deg) != 2 * edges:
            raise TriplepackError("degree sum differs from twice the edge count")

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.base == other.base:
            return self.mult_map == other.mult_map
        # different bases can still describe the same graph if every pair is
        # listed explicitly in one of them
        return all(
            self.mult(u, v) == other.mult(u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
        )

    def __hash__(self):
        # equal graphs can differ in base, so hash what they share
        deg, edges, _top = self._inv
        return hash((self.n, edges, tuple(deg)))

    def __repr__(self):
        name = type(self).__qualname__
        return f"{name}(n={self.n!r}, base={self.base!r}, mult_map={self.mult_map!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), (self.n, self.base, self.mult_map)


# -- builders ------------------------------------------------------------


def complete(n: int, lam: int) -> Multigraph:
    """The multigraph lam*K_n (every pair at multiplicity lam)."""
    if n < 1 or lam < 0:
        raise InvalidParameterError(f"need n >= 1, lam >= 0, got {(n, lam)}")
    return Multigraph(n, base=lam)


def disjoint_union(graphs, pad_to_n: int) -> Multigraph:
    """Relabel the graphs side by side and pad with isolated vertices."""
    total = sum(g.n for g in graphs)
    if pad_to_n < total:
        raise InvalidParameterError(
            f"pad_to_n={pad_to_n} smaller than total order {total}"
        )
    placed = []  # (offset, support list)
    offset = 0
    support = {}  # id -> support list; a leave repeats the same component
    for g in graphs:
        pairs = support.get(id(g))
        if pairs is None:
            pairs = support[id(g)] = list(g.support_pairs())
        placed.append((offset, pairs))
        offset += g.n
    mult = {(u + o, v + o): m for o, pairs in placed for u, v, m in pairs}
    return Multigraph(pad_to_n, base=0, mult_map=mult)


def is_q2_divisible(g: Multigraph, q: int) -> bool:
    """True iff C(q,2) divides |E(G)| and q-1 divides every degree."""
    if q < 3:
        raise InvalidParameterError("need q >= 3")
    if g.edge_count() % (q * (q - 1) // 2) != 0:
        return False
    return all(d % (q - 1) == 0 for d in g.degrees())


# -- degree sequence realization ----------------------------------------


def erdos_gallai_feasible(seq) -> bool:
    """Erdős–Gallai test for realizability as a simple graph.

    The tail sum of min(d_i, r) is evaluated with suffix sums plus a
    bisection for the crossover index, so the whole test is O(n log n).
    """
    from bisect import bisect_left

    d = sorted(seq, reverse=True)
    n = len(d)
    if d and (d[-1] < 0 or d[0] > n - 1):
        return False
    if sum(d) % 2 != 0:
        return False
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + d[i]
    neg = [-x for x in d]  # ascending, for bisection
    prefix = 0
    for r in range(1, n + 1):
        prefix += d[r - 1]
        # j = first index with d[j] <= r (d is non-increasing)
        j = max(r, bisect_left(neg, -r))
        tail = r * (j - r) + suffix[j]
        if prefix > r * (r - 1) + tail:
            return False
        if d[r - 1] < r:  # later inequalities cannot fail
            break
    return True


def _havel_hakimi(seq) -> list:
    """The pairs of the deterministic Havel–Hakimi realization of a
    degree sequence, each oriented u < v, in the order they are made.

    Bucket ``d`` holds the vertices of residual degree ``d``, at first in
    descending label order so that the smallest labels come off its end.
    A step removes a vertex x from the top bucket and takes its partners
    from the ends of the buckets, level by level with one slice each; a
    level's partners move down one bucket once the level below has been
    taken from.  The cost is O(n + |E|) even for large near-regular
    sequences.  Raises InfeasibleSequenceError when a vertex runs out of
    partners.
    """
    buckets = [[] for _ in range(max(seq, default=0) + 1)]
    for v in range(len(seq) - 1, -1, -1):
        if seq[v]:  # bucket 0 is never read
            buckets[seq[v]].append(v)
    pairs = []
    add = pairs.append
    top = len(buckets) - 1
    while True:
        while top > 0 and not buckets[top]:
            top -= 1
        if top == 0:
            return pairs
        x = buckets[top].pop()
        need = level = top
        held = []  # the partners taken from level + 1
        while need and level > 0:
            bucket = buckets[level]
            got = bucket[: -need - 1 : -1]  # up to need, from the end
            del bucket[-need:]
            need -= len(got)
            bucket += held
            held = got
            level -= 1
            for y in got:
                add((x, y) if x < y else (y, x))
        if need:
            raise InfeasibleSequenceError(f"degree sequence not realizable: {list(seq)}")
        buckets[level] += held


def realize_degree_sequence(seq) -> Multigraph:
    """Deterministic Havel–Hakimi realization of a degree sequence.

    Returns a simple graph (all multiplicities <= 1) with exactly the
    requested degrees, or raises InfeasibleSequenceError: Havel–Hakimi
    runs out of partners exactly when the sequence is not graphic, so it
    decides realizability without an Erdős–Gallai test.  Ties are broken
    by smallest label first (see ``_havel_hakimi``), so the graph is fixed
    for a fixed input.
    """
    seq = list(seq)
    if min(seq, default=0) < 0:  # a bucket index must not count from the end
        raise InfeasibleSequenceError(f"degree sequence not realizable: {seq}")
    g = Multigraph(len(seq), base=0, mult_map=dict.fromkeys(_havel_hakimi(seq), 1))
    if g.degrees() != seq:
        raise TriplepackError("realization degree check failed")
    return g


# -- leave-graph condition report ---------------------------------------


class LeaveConditionReport(
    namedtuple("LeaveConditionReport", "edge_total degrees mults mult_cap")
):
    """Per-condition pass/fail for a candidate leave multigraph.

    Conditions (for claimed packing size xi and multiplicity cap sigma):
      edge_total:  2|E| = n(n-1)(n-2) - k(k-1)(k-2) * xi
      degrees:     deg(x) = (n-1)(n-2)  mod (k-1)(k-2), all x
      mults:       m(x,y) = n-2  mod (k-2), all pairs
      mult_cap:    m(x,y) <= sigma, all pairs
    Triangle-decomposability (the remaining condition of the reduction)
    is checked separately by the decomposition module.
    """

    __slots__ = ()

    def all_pass(self) -> bool:
        return self.edge_total and self.degrees and self.mults and self.mult_cap


def check_leave_conditions(
    g: Multigraph, n: int, k: int, xi: int, sigma: int
) -> LeaveConditionReport:
    """Report which leave-graph conditions hold for (g, n, k, xi, sigma)."""
    if g.n != n:
        raise InvalidParameterError(f"graph order {g.n} != n = {n}")
    deg, edges, _top = g._inv
    edge_total = 2 * edges == n * (n - 1) * (n - 2) - k * (k - 1) * (k - 2) * xi
    # a leave has few distinct degrees and multiplicities: test each once
    target_deg = (n - 1) * (n - 2) % ((k - 1) * (k - 2))
    degrees = all(d % ((k - 1) * (k - 2)) == target_deg for d in set(deg))
    target_m = (n - 2) % (k - 2)
    mults_ok = g.base % (k - 2) == target_m or len(g.mult_map) == n * (n - 1) // 2
    cap_ok = g.base <= sigma or len(g.mult_map) == n * (n - 1) // 2
    for m in set(g.mult_map.values()):
        if m % (k - 2) != target_m:
            mults_ok = False
        if m > sigma:
            cap_ok = False
    return LeaveConditionReport(
        edge_total=edge_total, degrees=degrees, mults=mults_ok, mult_cap=cap_ok
    )
