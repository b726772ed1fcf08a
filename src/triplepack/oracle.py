"""Ground-truth engines: exact maximum-packing computation for tiny
parameters, and exhaustive nonexistence search for leave multigraphs.

These are deliberately independent of the construction modules so that
their answers can be frozen into tests as oracle values.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from itertools import combinations
from math import comb
from operator import itemgetter

from .decomp import (
    SearchStatus,
    check_budget,
    dehon_conditions,
    find_triangle_decomposition,
)
from .errors import InvalidParameterError, TriplepackError, WrongCaseError
from .multigraph import Multigraph, complete
from .params import CaseLabel, classify, johnson_bound


class BlockCollection(namedtuple("BlockCollection", "n k t lam blocks")):
    """Blocks (a tuple of k-tuples) on points 0..n-1, claimed to cover
    every t-subset at most lam times."""

    __slots__ = ()


def verify_packing(bc: BlockCollection) -> bool:
    """Exhaustive check that every t-subset lies in at most lam blocks.
    Parameters outside n >= k >= t >= 1, lam >= 0 are refused."""
    if not (bc.n >= bc.k >= bc.t >= 1 and bc.lam >= 0):
        raise InvalidParameterError(
            f"need n >= k >= t >= 1, lam >= 0, got {(bc.n, bc.k, bc.t, bc.lam)}"
        )
    cover = {}
    for b in bc.blocks:
        if len(b) != bc.k or len(set(b)) != bc.k:
            return False
        if not all(0 <= x < bc.n for x in b):
            return False
        for sub in combinations(sorted(b), bc.t):
            cover[sub] = cover.get(sub, 0) + 1
            if cover[sub] > bc.lam:
                return False
    return True


class ReportStatus(enum.Enum):
    OPTIMAL = "optimal"
    NONE_EXISTS = "none-exists"
    BUDGET = "budget-exceeded"
    WITNESS_FOUND = "witness-found"


class SearchReport(namedtuple("SearchReport", "status value witness nodes_explored")):
    """A ReportStatus, the value and witness found (or None) and the nodes
    explored."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# maximum packing
# ---------------------------------------------------------------------------


def _decide_packing(n, k, t, target, budget):
    """Does a 1-packing with exactly ``target`` blocks exist?

    Walks t-subsets in lex order; the current smallest uncovered t-subset
    is either left uncovered (spending leave budget) or covered by a
    block whose minimal t-subset it is.  Returns (found, blocks, nodes):
    (True, blocks, nodes), (False, None, nodes) for exhausted, or
    (None, None, nodes) on the node past ``budget``.

    A candidate block is tau plus k - t extra points, all above max tau,
    and each of its t-subsets is cleared once: tau by the scan (it is the
    first uncovered one), those with one extra point by the filter that
    picks the extra points, and those with two or more (none when
    k - t = 1) by the block test.  The filter's verdicts hold for every
    block of the node, since each branch undoes its own covers.  The
    filter reads each (t-1)-subset of tau plus a point v at index
    head + v, where the head is the subset's start offset; tau alone
    fixes its heads, so ``heads_at`` holds them per t-subset, built once
    per call.  Its entry is None where the filter must not run: when
    k == t, and when fewer than k - t points lie above max tau, where
    no block has tau as its minimal t-subset.  Every other subset is
    built sorted, as the index keys are, without sorting.

    The search is one loop over an explicit stack, so its depth has no
    limit but memory.  A node with a block to test pushes a frame
    ``[pos, leave, blocks_left, extras, plan, block]``: ``extras`` is
    the live iterator of its extra points, ``plan`` its block test and
    ``block`` the block applied below it, or None.  Leaving tau
    uncovered, a node's last branch, replaces its frame (if any) by the
    bare index ``pos``, whose entry of ``covered`` is reset as an
    exhausted answer passes it.  Only an exhausted answer climbs the
    stack: a witness or the budget ends the whole search.
    """
    total = comb(n, t)
    leave_budget = total - target * comb(k, t)
    if leave_budget < 0:
        return False, None, 0
    subsets = list(combinations(range(n), t))
    index = {s: i for i, s in enumerate(subsets)}
    # the t-subsets that extend a (t-1)-subset h by one larger point are
    # consecutive in lex order: h + (v,) has index start[h] + v
    start = {}
    for i, s in enumerate(subsets):
        start.setdefault(s[:-1], i - s[-1])
    heads_at = [[start[h] for h in combinations(s, t - 1)]
                if k > t and n - 1 - s[-1] >= k - t else None for s in subsets]
    covered = [False] * total
    chosen = []
    nodes = 0
    # (j, a getter of j of the k - t extra points) for each choice of
    # j >= 2 of them; itemgetter of two or more items returns a tuple
    extra_picks = [(j, itemgetter(*c)) for j in range(2, min(t, k - t) + 1)
                   for c in combinations(range(k - t), j)]

    def cover_block(block, flag):
        for sub in combinations(block, t):
            covered[index[sub]] = flag

    if target == 0:
        return True, (), 0
    # first block fixed to {0..k-1} up to relabeling
    first = tuple(range(k))
    cover_block(first, True)
    chosen.append(first)
    stack = []
    pos, leave, blocks_left = 0, leave_budget, target - 1
    while True:
        # the node (pos, leave, blocks_left)
        nodes += 1
        if budget is not None and nodes > budget:
            return None, None, nodes
        while pos < total and covered[pos]:
            pos += 1
        if blocks_left == 0:
            if (total - pos) - sum(covered[pos:]) <= leave:
                break
        elif pos < total:  # else blocks left but nothing uncovered
            tau, heads = subsets[pos], heads_at[pos]
            # cover tau by a block whose minimal t-subset is tau: one
            # needs k - t points above tau that pass the filter
            ext = ()
            if heads is not None:
                ext = [
                    v
                    for v in range(tau[-1] + 1, n)
                    if not any(covered[h + v] for h in heads)
                ]
            if len(ext) >= k - t:  # most nodes have no block to test
                # each subset with j >= 2 extra points, as its part in tau
                # and the getter of its extra points
                plan = [(s, pick) for j, pick in extra_picks
                        for s in combinations(tau, t - j)]
                extras = combinations(ext, k - t)
                stack.append([pos, leave, blocks_left, extras, plan, None])
            elif leave > 0:
                covered[pos] = True
                stack.append(pos)
                pos, leave = pos + 1, leave - 1
                continue
        # the next branch of the deepest frame (a new frame's first),
        # undoing on the way each level that has none left
        while stack:
            frame = stack[-1]
            if type(frame) is int:
                covered[stack.pop()] = False
                continue
            pos, leave, blocks_left, extras, plan, block = frame
            if block is not None:
                chosen.pop()
                cover_block(block, False)
            tau = subsets[pos]
            for extra in extras:
                for s, pick in plan:
                    if covered[index[s + pick(extra)]]:
                        break
                else:
                    block = tau + extra
                    cover_block(block, True)
                    chosen.append(block)
                    frame[5] = block
                    blocks_left -= 1
                    break
            else:
                stack.pop()
                if leave == 0:
                    continue
                covered[pos] = True
                stack.append(pos)
                pos, leave = pos + 1, leave - 1
            break
        else:
            return False, None, nodes
    out = tuple(chosen)
    if not verify_packing(BlockCollection(n, k, t, 1, out)):
        raise TriplepackError("packing witness failed verification")
    return True, out, nodes


def max_packing(n: int, k: int, t: int = 3, budget: int | None = None) -> SearchReport:
    """Exact maximum size of a t-(n, k, 1) packing, desk scale.

    Tries targets downward from the Johnson bound, each with the node
    budget the larger targets left over.  Every larger target was
    exhausted first, so the first witness is optimal; target 0 always
    succeeds.  A negative ``budget`` is refused.
    """
    if not n >= k >= t >= 1:
        raise InvalidParameterError(f"need n >= k >= t >= 1, got {(n, k, t)}")
    check_budget(budget)
    nodes = 0
    for target in range(johnson_bound(n, k, t), -1, -1):
        found, blocks, spent = _decide_packing(
            n, k, t, target, None if budget is None else budget - nodes
        )
        nodes += spent
        if found:
            return SearchReport(ReportStatus.OPTIMAL, target, blocks, nodes)
        if found is None:
            return SearchReport(ReportStatus.BUDGET, None, None, nodes)


# ---------------------------------------------------------------------------
# leave nonexistence
# ---------------------------------------------------------------------------


def _partitions_fixed_length(total, length):
    """Non-increasing positive integer sequences of given length and sum."""
    def rec(remaining, length, high):
        if length == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(min(high, remaining - length + 1), 0, -1):
            for rest in rec(remaining - first, length - 1, first):
                yield (first,) + rest

    yield from rec(total, length, total)


def _connected(v, mat):
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in range(v):
            if y not in seen and mat[x][y] > 0:
                seen.add(y)
                stack.append(y)
    return len(seen) == v


def _prefix_swap_smaller(v, mat, upto, i):
    """Would transposing vertices i, i+1 (both <= upto) make the prefix
    rows 0..upto lex-smaller?  Rows 0..upto are complete, so the
    permuted prefix is fully known even mid-enumeration."""
    perm = list(range(v))
    perm[i], perm[i + 1] = perm[i + 1], perm[i]
    for a in range(upto + 1):
        ra = mat[perm[a]]
        for b in range(v):
            sv, fv = ra[perm[b]], mat[a][b]
            if sv != fv:
                return sv < fv
    return False


def _row_closes(x, v, mat, rem, deltas, unit, cap, prune):
    """Can row x of a brick's fill stand, now that rows 0..x are complete?"""
    if rem[x]:
        return False
    # a pair of multiplicity m*unit needs m*unit distinct common neighbors
    # (one per triangle); rows <= x are complete, so check pairs (yy, x)
    # exactly
    row_x = mat[x]
    for yy in range(x):
        m = row_x[yy]
        if m:
            common = 0
            for a, b in zip(row_x, mat[yy]):
                if a and b:
                    common += 1
            if unit * m > common:
                return False
    if prune:
        for i in range(x):
            if deltas[i] == deltas[i + 1] and _prefix_swap_smaller(v, mat, x, i):
                return False
    # all later rows must still be completable among themselves: enough
    # pair slots, and an even total
    most = cap * (v - x - 2)
    total = 0
    for z in range(x + 1, v):
        if rem[z] > most:
            return False
        total += rem[z]
    return total % 2 == 0


def _bricks_of_weight(w, deg_unit, unit, prune=True):
    """Yield connected candidate leave components ("bricks") of weight w.

    A brick has v vertices of degrees ``deg_unit`` * delta_x (so weight
    w = sum of deltas; ``deg_unit`` is (k-1)(k-2)), pair multiplicities
    that are positive multiples of ``unit`` and at most v - 2, realized as
    a symmetric matrix enumerated row by row.  Candidates violating the
    common-neighbor necessity (a pair of multiplicity m needs m distinct
    common neighbors for its triangles) are pruned during the fill; they
    can never decompose.

    The fill is one loop over an explicit stack of the assigned cells
    (x, y, m), each tried from its largest multiplicity down to 0; a cell
    with none left is dropped, and the one below it takes its next value.
    """
    for v in range(3, w + 1):
        for deltas in _partitions_fixed_length(w, v):
            # row sums in units
            if any(deg_unit * d % unit for d in deltas):
                continue
            rows = [deg_unit * d // unit for d in deltas]
            cap = (v - 2) // unit
            if cap < 1 or any(r > cap * (v - 1) for r in rows):
                continue
            mat = [[0] * v for _ in range(v)]
            rem = list(rows)
            # multiplicity m*unit needs m*unit common neighbors, so the
            # endpoint has > m*unit distinct neighbors, each of >= 1 unit
            vcap = [(r - 1) // unit for r in rows]
            stack = []
            x, y = 0, 1
            while True:
                if x == v:
                    # with prune, the last row's swap check has already
                    # compared the whole matrix with each adjacent swap
                    if _connected(v, mat):
                        yield tuple(tuple(r) for r in mat)
                elif y == v:
                    if _row_closes(x, v, mat, rem, deltas, unit, cap, prune):
                        x, y = x + 1, x + 2
                        continue
                elif rem[x] <= cap * (v - y):
                    m = min(cap, vcap[x], vcap[y], rem[x], rem[y])
                    if m >= 0:
                        mat[x][y] = mat[y][x] = m
                        rem[x] -= m
                        rem[y] -= m
                        stack.append((x, y, m))
                        y += 1
                        continue
                # the next value of the deepest cell with one left; a cell
                # popped at 0 has nothing to undo
                while stack:
                    x, y, m = stack.pop()
                    if m:
                        m -= 1
                        mat[x][y] = mat[y][x] = m
                        rem[x] += 1
                        rem[y] += 1
                        stack.append((x, y, m))
                        y += 1
                        break
                else:
                    break


def _decomposable_brick_weights(weights, deg_unit, unit, prune=True):
    """Which of the given brick weights admit a triangle-decomposable brick.

    Returns (found, tested): found maps each such weight w to an example
    brick, in the order of ``weights``; tested counts the bricks searched.
    """
    found = {}
    tested = 0
    for w in weights:
        for mat in _bricks_of_weight(w, deg_unit, unit, prune=prune):
            v = len(mat)
            g = Multigraph(
                v,
                base=0,
                mult_map={
                    (i, j): mat[i][j] * unit
                    for i in range(v)
                    for j in range(i + 1, v)
                    if mat[i][j]
                },
            )
            tested += 1
            if find_triangle_decomposition(g).status is SearchStatus.FOUND:
                found[w] = g
                break
    return found, tested


def _coin_pieces(coins, total: int):
    """Coins (with repetition) summing to ``total``, or None when none do.

    Unbounded coin reachability: each sum remembers the first coin, in
    ``coins`` order, that reaches it from a reachable smaller sum.
    """
    last = [0] + [None] * total  # last[s]: a coin reaching s (0: the empty sum)
    for s in range(1, total + 1):
        last[s] = next((c for c in coins if c <= s and last[s - c] is not None), None)
    if last[total] is None:
        return None
    pieces = []
    s = total
    while s:
        pieces.append(last[s])
        s -= last[s]
    return pieces


def search_leave_nonexistence(
    n: int,
    k: int,
    xi_target: int | None = None,
    relax: bool = False,
    prune: bool = True,
) -> SearchReport:
    """Exhaustive check that no leave multigraph certifies a packing one
    short of the Johnson bound's neighborhood: specifically, for (n, k)
    with J - 3 conjectured, that no G on n vertices satisfies

      2|E| = n(n-1)(n-2) - k(k-1)(k-2)(J - 2),  deg = 0 mod (k-1)(k-2),
      mult = 0 mod (k-2),  G triangle-decomposable.

    Components ("bricks") are enumerated exhaustively by weight
    (degree-sum / (k-1)(k-2) per component); G exists iff some multiset
    of decomposable brick weights reaches the total weight.  With
    ``relax`` the multiplicity condition is dropped (a sanity mode that
    must find a witness); ``prune=False`` disables symmetry breaking for
    cross-validation.  ``nodes_explored`` counts the bricks tested.

    Specialized to r = 0, alpha = 0 (Q_NONZERO), degree unit (k-1)(k-2),
    total weight 2|E| / (k-1)(k-2).  A brick of weight w can have up to w
    vertices, so the enumeration is exhaustive only up to n: a total
    weight above n is refused rather than searched in part.
    """
    label, _ = classify(n, k)
    if label is not CaseLabel.Q_NONZERO:
        raise WrongCaseError(
            f"({n},{k}) is {label.value}, expected r = 0, alpha = 0, beta != 0"
        )
    target = johnson_bound(n, k, 3) - 2 if xi_target is None else xi_target
    twice_edges = n * (n - 1) * (n - 2) - k * (k - 1) * (k - 2) * target
    deg_unit = (k - 1) * (k - 2)
    if twice_edges < 0 or twice_edges % deg_unit != 0:
        return SearchReport(ReportStatus.NONE_EXISTS, target, None, 0)
    total_weight = twice_edges // deg_unit
    if total_weight > n:
        raise InvalidParameterError(
            f"total leave weight {total_weight} exceeds n = {n}: bricks heavier "
            "than n are not enumerated"
        )
    unit = 1 if relax else k - 2

    tested = 0
    weights: dict = {}  # weight -> a decomposable component of that weight
    if relax:
        # cheap exact coins first: lam*K_m components with degrees a
        # multiple of the degree unit and a Dehon decomposition; if these
        # already reach the total, no brick enumeration is needed
        for m in range(3, n + 1):
            for lam in range(1, m - 1):
                if lam * (m - 1) % deg_unit:
                    continue
                w = m * lam * (m - 1) // deg_unit
                if 3 <= w <= total_weight and w not in weights and dehon_conditions(m, lam):
                    weights[w] = complete(m, lam)
    pieces = _coin_pieces(weights, total_weight)
    if pieces is None:
        # every brick weighs at least 3, so a weight w can sit in a multiset
        # summing to the total only if the rest, total - w, is 0 or >= 3
        found, tested = _decomposable_brick_weights(
            [
                w
                for w in range(3, total_weight + 1)
                if total_weight - w == 0 or total_weight - w >= 3
            ],
            deg_unit,
            unit,
            prune=prune,
        )
        for w, g in found.items():
            weights.setdefault(w, g)
        pieces = _coin_pieces(weights, total_weight)
    if pieces is None:
        return SearchReport(ReportStatus.NONE_EXISTS, target, None, tested)
    witness = tuple(weights[w] for w in pieces)
    if sum(g.n for g in witness) > n:
        raise TriplepackError("leave witness exceeds the vertex budget")
    return SearchReport(ReportStatus.WITNESS_FOUND, target, witness, tested)
