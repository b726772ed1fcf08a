"""Group divisible designs: existence predicates, small exact search,
assembly from disjoint designs, and the complete-multipartite gadget
graphs.

A (k, lam)-GDD is a point set partitioned into >= 2 groups together with
k-subset blocks covering every cross-group pair exactly lam times and no
within-group pair; simple means no repeated block.  Only k = 3 designs
are searched or constructed here; general k is accepted for verification
of imported instances.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .decomp import (
    SearchStatus,
    _find,
    _simple_gdd_conditions,
    check_budget,
    transverse_triples,
    verify_decomposition,
)
from .errors import InvalidParameterError, TriplepackError
from .multigraph import Multigraph


class GddInstance(namedtuple("GddInstance", "groups blocks lam k", defaults=(3,))):
    """Points 0..v-1, a partition into groups (a tuple of tuples of
    points), and the block list (a tuple of sorted tuples, each a k-subset)."""

    __slots__ = ()

    @property
    def v(self) -> int:
        return sum(len(g) for g in self.groups)


def verify_gdd(inst: GddInstance) -> bool:
    """Exhaustive check of a simple GDD.

    The groups must partition 0..v-1 into at least two, and every block
    must have k points.  The blocks must then be a distinct clique
    decomposition of lam times the complete multipartite graph on the
    groups: every cross-group pair lies in exactly lam blocks, no block
    contains two points of one group, and no block repeats.
    """
    pts = sorted(p for grp in inst.groups for p in grp)
    if pts != list(range(inst.v)) or len(inst.groups) < 2 or inst.lam < 0:
        return False
    if any(len(b) != inst.k for b in inst.blocks):
        return False
    return verify_decomposition(_multipartite(inst.groups, inst.lam), inst.blocks)


# ---------------------------------------------------------------------------
# existence predicates
# ---------------------------------------------------------------------------


def simple_ts_exists(u: int, lam: int) -> bool:
    """Existence of a simple (3, lam)-GDD(1^u), i.e. a simple triple
    system, which is a distinct triangle decomposition of lam*K_u: 1 <= lam
    <= u-2, lam(u-1) even, lam*u*(u-1) divisible by 6 (Dehon)."""
    if u < 1:
        raise InvalidParameterError("need u >= 1")
    return lam >= 1 and _simple_gdd_conditions(1, u, lam)


def lgdd_exists(g: int, u: int, lam: int) -> bool:
    """Existence of a (3, lam)-LGDD(g^u): a partition of all transverse
    triples into disjoint simple (3, lam)-GDD(g^u)s.

    Conditions: lam*g*(u-1) even, lam*g^2*u*(u-1) divisible by 3,
    g*u*(u-2) divisible by lam, u >= 3, and (lam, g, u) != (1, 1, 7).
    """
    if g < 1 or u < 1 or lam < 1:
        raise InvalidParameterError("need g, u, lam >= 1")
    return (
        lam * g * (u - 1) % 2 == 0
        and lam * g * g * u * (u - 1) % 3 == 0
        and g * u * (u - 2) % lam == 0
        and u >= 3
        and (lam, g, u) != (1, 1, 7)
    )


def simple_gdd_exists(g: int, u: int, lam: int) -> bool:
    """Existence of a simple (3, lam)-GDD(g^u): lam*g*(u-1) even,
    lam*g^2*u*(u-1) divisible by 3, u >= 3, 1 <= lam <= g(u-2)."""
    if g < 1 or u < 1 or lam < 1:
        raise InvalidParameterError("need g, u, lam >= 1")
    return _simple_gdd_conditions(g, u, lam)


# ---------------------------------------------------------------------------
# gadgets and search
# ---------------------------------------------------------------------------


def _multipartite(groups, lam: int) -> Multigraph:
    """lam times the complete multipartite graph whose parts are the
    groups, which partition 0..v-1."""
    within = {p: 0 for grp in groups for p in combinations(sorted(grp), 2)}
    return Multigraph(sum(map(len, groups)), base=lam, mult_map=within)


def gadget_multigraph(g: int, u: int, edge_mult: int) -> Multigraph:
    """Complete u-partite multigraph, parts of size g, every cross pair at
    multiplicity edge_mult.  Its distinct triangle decompositions are
    exactly the simple (3, edge_mult)-GDD(g^u)s on these groups."""
    if g < 1 or u < 1 or edge_mult < 1:
        raise InvalidParameterError("need g, u, edge_mult >= 1")
    if u == 1:
        return Multigraph(g)
    return _multipartite(_contiguous_groups(g, u), edge_mult)


def _contiguous_groups(g: int, u: int) -> tuple:
    return tuple(tuple(range(i * g, (i + 1) * g)) for i in range(u))


SEARCH_CAP = 12  # largest gu attempted by exact search


def search_simple_gdd(g: int, u: int, lam: int, budget: int | None = None):
    """Exact search for a simple (3, lam)-GDD(g^u) on contiguous groups.

    Returns (status, instance-or-None, nodes).  NONE is exhaustive: no
    such design exists.  The search space is the distinct triangle
    decompositions of the gadget multigraph.  A negative ``budget`` is
    refused.  A found design is checked once, by ``verify_gdd``.
    """
    if g * u > SEARCH_CAP:
        raise InvalidParameterError(f"search capped at gu <= {SEARCH_CAP}")
    if u < 2:
        raise InvalidParameterError("need u >= 2")
    check_budget(budget)
    res = _find(gadget_multigraph(g, u, lam), budget, ())
    if res.status is not SearchStatus.FOUND:
        return res.status, None, res.nodes
    inst = GddInstance(groups=_contiguous_groups(g, u), blocks=res.cliques, lam=lam)
    if not verify_gdd(inst):
        raise TriplepackError("searched GDD failed verification")
    return SearchStatus.FOUND, inst, res.nodes


def assemble_simple_gdd(
    g: int, u: int, lam: int, budget: int | None = None
) -> GddInstance | None:
    """Construct a simple (3, lam)-GDD(g^u) on contiguous groups, trying
    cheap routes before exact search.

    Routes, in order: juxtaposition of disjoint minimal-index designs
    summing to lam; the same for the complementary index cap - lam,
    complemented within the transverse triples (every cross pair lies in
    exactly cap = g(u-2) of them); exact search.  Returns None only when
    every route failed inconclusively; when simple_gdd_exists is false
    the caller should not ask.  A negative ``budget`` is refused.  The
    returned design is checked once, by ``verify_gdd``.
    """
    check_budget(budget)
    cap = g * (u - 2)
    if not 0 <= lam <= cap:
        return None
    groups = _contiguous_groups(g, u)
    targets = sorted(((lam, False), (cap - lam, True)), key=lambda t: t[0])
    for target, complement in targets:
        blocks = _juxtaposed_blocks(g, u, target, budget)
        if blocks is None:
            continue
        if complement:
            used = set(blocks)
            blocks = tuple(t for t in transverse_triples(groups) if t not in used)
        inst = GddInstance(groups=groups, blocks=blocks, lam=lam)
        if verify_gdd(inst):
            return inst
    status, inst, _ = search_simple_gdd(g, u, lam, budget=budget)
    return inst if status is SearchStatus.FOUND else None


def _juxtaposed_blocks(g: int, u: int, lam: int, budget: int | None):
    """The sorted blocks of lam/b pairwise disjoint simple (3, b)-GDD(g^u)s
    on contiguous groups, b the least divisor of lam at which one exists;
    each is searched with the blocks of those before it forbidden.  None
    when there is no such b or a search fails (not an exhaustive proof).
    The union is not verified here: the caller checks the design it
    builds from it, once."""
    if lam == 0:
        return ()
    base = next(
        (b for b in range(1, lam + 1) if lam % b == 0 and simple_gdd_exists(g, u, b)),
        None,
    )
    if base is None:
        return None
    gadget = gadget_multigraph(g, u, base)
    used = ()
    for _ in range(lam // base):
        res = _find(gadget, budget, used)
        if res.status is not SearchStatus.FOUND:
            return None
        used += res.cliques
    return tuple(sorted(used))
