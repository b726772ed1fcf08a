"""Leave-multigraph constructions and the lower bounds they certify.

A packing of size xi exists (for large n) exactly when a "leave"
multigraph G on n vertices satisfies

  (i)   2|E(G)| = n(n-1)(n-2) - k(k-1)(k-2) xi,
  (ii)  every degree is (n-1)(n-2) mod (k-1)(k-2),
  (iii) every multiplicity is n-2 mod (k-2),
  (iv)  G has a distinct triangle decomposition,
  (v)   multiplicities are bounded by a constant sigma.

Each residue case of (n, k) gets its own constructor; the certificates
carry the graph, the claimed xi, the construction parameters, and
decomposability evidence for every component (an existence predicate,
plus explicit blocks for small components).

Evidence strength varies by case.  Complete components ("dehon") and
multipartite gadgets ("simple-gdd") rest on exact existence theorems, so
for those certificates the leave's decomposition holds at the emitted n.
The composite graph of the r != 0 case ("reduction") is decomposable by
an argument that only holds for n large.  In every case the step from a
leave to a packing of size xi holds only for n large, so a certificate
that verifies at small n need not have its xi attained: at (9, 5) and
(10, 5) xi is 6 and 8, while max_packing gives D = 3 and 6.  (Hard
impossibilities -- a multiplicity above n - 2 -- are refused outright.)
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import comb, gcd

from .decomp import SearchStatus, dehon_conditions, verify_decomposition
from .errors import (
    InfeasibleSequenceError,
    InvalidParameterError,
    NTooSmallError,
    ParameterSearchExhaustedError,
    TriplepackError,
    WrongCaseError,
)
from .gdd import SEARCH_CAP, gadget_multigraph, search_simple_gdd, simple_gdd_exists
from .multigraph import (
    Multigraph,
    _havel_hakimi,
    _pair,
    check_leave_conditions,
    complete,
    disjoint_union,
    erdos_gallai_feasible,
)
from .params import CaseLabel, classify, johnson_bound, upper_bound


class EvidenceItem(namedtuple("EvidenceItem", "kind params copies blocks", defaults=(None,))):
    """Decomposability evidence for one component type of a leave graph.

    ``kind`` is "dehon" (complete component, Dehon's theorem), "simple-gdd"
    (multipartite gadget, simple-GDD existence), or "empty".  ``blocks``
    holds an explicit triangle decomposition when one was searched.
    """

    __slots__ = ()


class LeaveCertificate(
    namedtuple("LeaveCertificate", "n k case xi graph parameters evidence")
):
    """A leave ``graph`` (a Multigraph) for xi blocks at (n, k), its
    CaseLabel, the construction's ``parameters`` (a dict) and a tuple of
    EvidenceItems."""

    __slots__ = ()

    @property
    def sigma(self) -> int:
        """The largest multiplicity of the leave (the cap it must meet is n - 2)."""
        return self.graph.max_mult()

    def conditions(self):
        # a distinct triangle decomposition gives each triangle through a
        # pair its own third vertex, so no pair carries more than n - 2
        return check_leave_conditions(self.graph, self.n, self.k, self.xi, self.n - 2)


def verify_certificate(cert: LeaveCertificate) -> bool:
    """The one check of a certificate, run by every constructor and by
    ``triplepack verify``: the case is that of (n, k); the evidence is the
    one reduction item on (n, r, k - 2) when r != 0, else items that hold
    their existence predicates, whose components fit in n vertices and
    carry the graph's edges (the graph is not compared with them); the
    leave conditions hold; xi <= upper_bound(n, k); and every explicit
    simple-GDD witness decomposes its gadget.  Raises
    InvalidParameterError unless n > k >= 4, the range of ``classify``."""
    n, k = cert.n, cert.k
    if not n > k >= 4:
        raise InvalidParameterError(f"need n > k >= 4, got {(n, k)}")
    label, data = classify(n, k)
    if data.r:
        evidence_ok = cert.evidence == (EvidenceItem("reduction", (n, data.r, k - 2), 1),)
    else:
        sizes = [_component_size(e) for e in cert.evidence]
        evidence_ok = bool(sizes) and None not in sizes and (
            sum(v for v, _ in sizes) <= n and sum(m for _, m in sizes) == cert.graph.edge_count()
        )
    return (
        cert.case is label
        and evidence_ok
        and cert.conditions().all_pass()
        and cert.xi <= upper_bound(n, k)
        and all(
            verify_decomposition(gadget_multigraph(*e.params), e.blocks)
            for e in cert.evidence
            if e.kind == "simple-gdd" and e.blocks
        )
    )


def _component_size(e: EvidenceItem):
    """(vertices, edges) of the components an r = 0 evidence item names,
    copies included, or None unless it holds its existence predicate (and
    a witness has one block per three edges); "empty" names none."""
    try:
        if e.kind == "dehon":
            m, lam = e.params
            ok, size = dehon_conditions(m, lam), (m, comb(m, 2) * lam)
        elif e.kind == "simple-gdd":
            g, u, lam = e.params
            size = (g * u, comb(u, 2) * g * g * lam)
            ok = simple_gdd_exists(g, u, lam) and (not e.blocks or 3 * len(e.blocks) == size[1])
        else:
            return (0, 0) if (e.kind, e.params, e.copies) == ("empty", (), 0) else None
    except ValueError:  # a parameter refused, or the wrong arity
        return None
    return (e.copies * size[0], e.copies * size[1]) if ok and e.copies >= 1 else None


def _require(ok: bool, what: str) -> None:
    """An explicit check of a constructor's invariant; unlike an assert
    statement it also runs under ``python -O``."""
    if not ok:
        raise TriplepackError(f"construction invariant failed: {what}")


def _certify(n, k, label, xi, graph, parameters, evidence) -> LeaveCertificate:
    cert = LeaveCertificate(n, k, label, xi, graph, parameters, tuple(evidence))
    _require(verify_certificate(cert), "verify_certificate")
    return cert


def _too_small(n: int, k: int, need: int, what: str) -> NTooSmallError:
    """The refusal for a construction that needs n >= ``need``, carrying
    the smallest such n in the residue class of n mod k(k-1)(k-2)."""
    period = k * (k - 1) * (k - 2)
    min_n = n + -(-(need - n) // period) * period
    return NTooSmallError(
        f"{what}; smallest workable n in this residue class is {min_n}", min_n=min_n
    )


# ---------------------------------------------------------------------------
# case r != 0
# ---------------------------------------------------------------------------


def _excess_multigraph(n: int, count: int, degree: int) -> Multigraph:
    """A multigraph on the first ``count`` of n vertices, each of degree
    ``degree`` (padded with isolated vertices): a cycle at multiplicity
    degree/2 when that is integral and count >= 3 (halving the largest
    multiplicity), otherwise a perfect matching at multiplicity
    ``degree``."""
    _require(count >= 2 and degree >= 1, "excess needs two vertices and degree >= 1")
    if count >= 3 and degree % 2 == 0:
        pairs = {_pair(i, (i + 1) % count): degree // 2 for i in range(count)}
    else:
        _require(count % 2 == 0, "a matching needs an even vertex count")
        pairs = {(2 * i, 2 * i + 1): degree for i in range(count // 2)}
    return Multigraph(n, base=0, mult_map=pairs)


def construct_r_leave(n: int, k: int) -> LeaveCertificate:
    """Leave for (n-2) not divisible by (k-2): G = (k-2)G' + r*K_n where G'
    has one vertex of excess degree beta/(k-2) above the regular degree
    gamma.  Certifies xi = J(n, k, 3) in general.

    Degenerate subclass gamma = 0, beta > 0: the excess cannot sit on a
    single vertex of a simple graph.  Writing qhat = beta/((k-1)(k-2)),
    every vertex's excess must be a multiple of k - 1, so the excess is
    realized as a multigraph with qhat vertices of excess degree k - 1.
    For qhat = 1 even that is impossible -- any leave for xi = J needs
    one vertex carrying excess multiplicity with all neighbors carrying
    none, a contradiction, so D(n, k, 3) <= J - 1 for this whole residue
    class and the certificate instead achieves xi = J - 1 (excess spread
    over k + 1 vertices).
    """
    label, data = classify(n, k)
    if label is not CaseLabel.R_NONZERO:
        raise WrongCaseError(f"({n},{k}) has r = 0")
    r, gamma, gamma0 = data.r, data.gamma, data.gamma0
    xi = johnson_bound(n, k, 3)
    edge_target = r * n * (n - 1) + data.alpha_r * n + data.beta_r

    if gamma == 0 and gamma0 > 0:
        _require(gamma0 % (k - 1) == 0, "excess degree divisible by k - 1")
        qhat = gamma0 // (k - 1)
        if qhat == 1:
            # xi = J is unachievable; give up one block
            xi -= 1
            qhat += k
            edge_target += k * (k - 1) * (k - 2)
        if n < qhat:
            raise NTooSmallError(
                f"excess needs {qhat} vertices, n = {n}", min_n=None
            )
        g_prime = _excess_multigraph(n, qhat, k - 1)
        # (k-2)G' + rK_n: a pair missing from the map of G' sits at r
        mult_map = {p: (k - 2) * m + r for p, m in g_prime.mult_map.items()}
        degrees = None
        params = {"r": r, "gamma": 0, "gamma0": gamma0, "qhat": qhat}
    else:
        try:
            pairs = _havel_hakimi([gamma0] + [gamma] * (n - 1))
        except InfeasibleSequenceError:
            period = k * (k - 1) * (k - 2)
            need = n + period
            while not erdos_gallai_feasible([gamma0] + [gamma] * (need - 1)):
                need += period
            what = f"degree sequence [{gamma0}, {gamma}^(n-1)] needs more vertices"
            raise _too_small(n, k, need, what) from None
        # G' (Havel–Hakimi) is simple: each of its pairs sits at k - 2 + r
        mult_map = dict.fromkeys(pairs, k - 2 + r)
        # the composite has these degrees exactly when G' has degrees [gamma0, gamma^(n-1)]
        rest = r * (n - 1)
        degrees = [(k - 2) * gamma0 + rest] + [(k - 2) * gamma + rest] * (n - 1)
        params = {"r": r, "gamma": gamma, "gamma0": gamma0}

    graph = Multigraph(n, base=r, mult_map=mult_map)
    _require(degrees is None or graph.degrees() == degrees, "degrees of (k-2)G' + rK_n")
    _require(2 * graph.edge_count() == edge_target, "edge total of (k-2)G' + rK_n")
    top = graph.max_mult()
    if top > n - 2:
        # a pair needs as many distinct common neighbors as its
        # multiplicity, so no such leave can decompose at this n
        raise _too_small(n, k, top + 2, f"max multiplicity {top} exceeds n - 2 = {n - 2}")
    # decomposability of the composite (k-2)G' + rK_n is the one claim
    # that is argued greedily/asymptotically rather than by an exact
    # existence theorem, so the evidence is always reduction-kind here
    evidence = (EvidenceItem(kind="reduction", params=(n, r, k - 2), copies=1),)
    return _certify(n, k, label, xi, graph, params, evidence)


# ---------------------------------------------------------------------------
# case r = 0, alpha = 0 (including designs)
# ---------------------------------------------------------------------------


def _solve_t_c(k: int, ell: int, q: int):
    """Smallest 0 < t < k (then smallest c in {1, 2}) with
    l(1-l)t + kc = q."""
    for t in range(1, k):
        for c in (1, 2):
            if ell * (1 - ell) * t + k * c == q:
                return t, c
    return None


def construct_q_leave(n: int, k: int) -> LeaveCertificate:
    """Leave for r = 0, alpha = 0: t disjoint copies of (k-2)K_{l(k-1)+1}.

    Certifies xi = J(n, k, 3) - (t*l^2 - c) where l(1-l)t + kc = q.  For
    a design (q = 0) the leave is empty and xi = J.  Raises NTooSmallError
    (carrying the smallest workable n in the same residue class) when n
    is below t(l(k-1)+1).
    """
    label, data = classify(n, k)
    if label not in (CaseLabel.DESIGN, CaseLabel.Q_NONZERO):
        raise WrongCaseError(f"({n},{k}) has r != 0 or alpha != 0")
    q = data.q_beta
    xi_full = johnson_bound(n, k, 3)
    if q == 0:
        empty = EvidenceItem(kind="empty", params=(), copies=0)
        return _certify(n, k, label, xi_full, Multigraph(n), {"q": 0}, (empty,))

    ell = 2 if k % 3 in (1, 2) else 3
    sol = _solve_t_c(k, ell, q)
    _require(sol is not None, "t, c always solvable for 0 < q < k")
    t, c = sol
    m = ell * (k - 1) + 1
    if n < t * m:
        raise _too_small(n, k, t * m, f"construction needs {t * m} vertices, n = {n}")
    copy = complete(m, k - 2)
    graph = disjoint_union([copy] * t, pad_to_n=n)
    deficit = t * ell * ell - c
    xi = xi_full - deficit
    beta = q * (k - 1) * (k - 2)
    _require(
        (2 * graph.edge_count() - beta) % (k * (k - 1) * (k - 2)) == 0,
        "edge total of the complete components",
    )
    # minimal-t solution: t <= (2k - q)/l(l-1), so deficit <= 4k - 6
    _require(deficit <= 4 * k - 6, "deficit <= 4k - 6")
    _require(dehon_conditions(m, k - 2), "Dehon conditions of the component")
    params = {"q": q, "l": ell, "t": t, "c": c, "deficit": deficit}
    evidence = (EvidenceItem(kind="dehon", params=(m, k - 2), copies=t),)
    return _certify(n, k, label, xi, graph, params, evidence)


# ---------------------------------------------------------------------------
# case r = 0, alpha != 0
# ---------------------------------------------------------------------------


class _Gadget(namedtuple("_Gadget", "g l u")):
    __slots__ = ()

    @property
    def order(self) -> int:
        return self.g * self.u


@cache
def _gadget_candidates(k: int, p: int) -> tuple:
    """All (g, l) with g <= 3k, l <= k^2 whose gadget graph is a valid
    component: g | p + l(k-1), u >= 3 parts, and the simple-GDD existence
    predicate holds at index k - 2.  Sorted by order, cached per (k, p)."""
    found = []
    for g in range(1, 3 * k + 1):
        for l in range(1, k * k + 1):
            s = p + l * (k - 1)
            if s % g != 0:
                continue
            u = s // g + 1
            if u < 3:
                continue
            if not simple_gdd_exists(g, u, k - 2):
                continue
            found.append(_Gadget(g, l, u))
    found.sort(key=lambda c: (c.order, c.g, c.l))
    return tuple(found)


@cache
def _gadget_witness(g: int, u: int, lam: int) -> tuple:
    """The blocks of an explicit simple (3, lam)-GDD(g^u), searched once
    per parameters."""
    status, inst, _ = search_simple_gdd(g, u, lam, budget=2_000_000)
    _require(status is SearchStatus.FOUND, "explicit simple-GDD witness found")
    return inst.blocks


def _gadget_evidence(c: _Gadget, k: int, copies: int) -> EvidenceItem:
    blocks = None
    if c.order <= SEARCH_CAP:  # search_simple_gdd refuses larger gadgets
        blocks = _gadget_witness(c.g, c.u, k - 2)
    return EvidenceItem(
        kind="simple-gdd", params=(c.g, c.u, k - 2), copies=copies, blocks=blocks
    )


def _first_fit(n: int, third_options: list, fillers: list):
    """The first (c1, r1, c2, r2, c3, t3) that covers n: C3 options in
    order, then filler pairs c1 <= c2 in order, with r1 * n1 + r2 * n2 =
    n - n3 and 0 <= r2 < n1.  None when no option fits."""
    for n3, c3, t3 in third_options:
        rest = n - n3
        for i, c1 in enumerate(fillers):
            for c2 in fillers[i:]:
                n1, n2 = c1.order, c2.order
                d = gcd(n1, n2)
                if rest % d != 0:
                    continue
                # r2 * n2 = rest (mod n1), 0 <= r2 < n1, then r1 >= 0
                r2 = rest // d * pow(n2 // d, -1, n1 // d) % (n1 // d)
                if r2 * n2 <= rest:
                    return c1, (rest - r2 * n2) // n1, c2, r2, c3, t3
    return None


def construct_p_leave(n: int, k: int) -> LeaveCertificate:
    """Leave for r = 0, alpha = p(k-2) != 0, assembled from complete
    multipartite gadgets with cross multiplicity k - 2.

    Picks component types C3 (t copies fixing the residue q), C1 and C2
    (filling the rest: r1*n1 + r2*n2 = n - n3 with r2 < n1, possible
    whenever gcd(n1, n2) divides n - n3), preferring the smallest n3,
    then the smallest (n1, n2).  xi is computed from the edge count.
    """
    label, data = classify(n, k)
    if label is not CaseLabel.P_NONZERO:
        raise WrongCaseError(f"({n},{k}) has r != 0 or alpha = 0")
    p, q = data.p, data.q_excess
    cands = _gadget_candidates(k, p)
    if not cands:
        raise ParameterSearchExhaustedError(
            f"no valid gadget with g <= {3 * k}, l <= {k * k} for (k,p)=({k},{p})"
        )

    # fillers must not perturb the residue: n_i (l_i - 1) = 0 (mod k)
    fillers = [c for c in cands if c.order * (c.l - 1) % k == 0]

    # C3 options: t copies with t * order * (l - 1) = q (mod k)
    third_options = []
    if q == 0:
        third_options.append((0, None, 0))
    else:
        for c in cands:
            step = c.order * (c.l - 1) % k
            for t in range(1, 3 * k + 1):
                if t * c.order > n:
                    break
                if t * step % k == q:
                    third_options.append((t * c.order, c, t))
                    break
    third_options.sort(key=lambda o: o[0])

    chosen = _first_fit(n, third_options, fillers)
    if chosen is None:
        raise ParameterSearchExhaustedError(
            f"no gadget assembly covers n = {n} for (k,p)=({k},{p}); "
            "n may be below the construction's reach"
        )

    c1, r1, c2, r2, c3, t3 = chosen
    components = []
    evidence = []
    for c, copies in ((c1, r1), (c2, r2), (c3, t3)):
        if c is None or copies == 0:
            continue
        components.extend([gadget_multigraph(c.g, c.u, k - 2)] * copies)
        evidence.append(_gadget_evidence(c, k, copies))
    if not evidence:
        evidence.append(EvidenceItem(kind="empty", params=(), copies=0))
    graph = disjoint_union(components, pad_to_n=n)

    num = n * (n - 1) * (n - 2) - 2 * graph.edge_count()
    den = k * (k - 1) * (k - 2)
    _require(num % den == 0, "edge count divisible for an integral xi")
    xi = num // den
    params = {
        "p": p,
        "q": q,
        "star": data.star_holds,
        "c1": (c1.g, c1.l),
        "r1": r1,
        "c2": (c2.g, c2.l),
        "r2": r2,
        "c3": (c3.g, c3.l) if c3 else None,
        "t3": t3,
    }
    return _certify(n, k, label, xi, graph, params, evidence)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def achieved_lower_bound(n: int, k: int) -> tuple:
    """Best certified lower bound for D(n, k, 3): (xi, LeaveCertificate)."""
    label, _ = classify(n, k)
    if label in (CaseLabel.DESIGN, CaseLabel.Q_NONZERO):
        cert = construct_q_leave(n, k)
    elif label is CaseLabel.R_NONZERO:
        cert = construct_r_leave(n, k)
    else:
        cert = construct_p_leave(n, k)
    return cert.xi, cert
