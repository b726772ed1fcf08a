"""JSON interchange for the artifact types.

Output is canonical compact JSON: keys sorted, no whitespace between
tokens, one line ending in a newline, so equal artifacts give equal
bytes (``python -m json.tool FILE`` pretty-prints it).  Canonical forms:
multigraph edges as sorted [u, v, mult] with u < v; blocks as sorted
integer lists, sorted lexicographically.  A "base" field carries the
uniform background multiplicity so near-complete multigraphs stay small
on disk.

Readers refuse every number that is not a JSON integer (floats, booleans,
strings) with InvalidParameterError instead of rounding it, and likewise
any other value where a JSON object is expected.

Each reader imports its target type when it is called, so a process that
only writes, or reads one kind of artifact, loads no other package module.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import InvalidParameterError

if TYPE_CHECKING:
    from .dioph import DiophInstance
    from .gdd import GddInstance
    from .leave import LeaveCertificate
    from .multigraph import Multigraph
    from .oracle import BlockCollection


def multigraph_to_dict(g: Multigraph) -> dict:
    mults = g.mult_map  # sorting the pairs alone is about 3x faster than the items
    out = {"n": g.n, "edges": [[u, v, mults[u, v]] for u, v in sorted(mults)]}
    if g.base:
        out["base"] = g.base
    return out


def _int(x) -> int:
    """x itself when it is an integer; bool is not one."""
    if type(x) is not int:
        raise InvalidParameterError(f"expected an integer, got {x!r}")
    return x


def _obj(d) -> dict:
    """d itself when it is a JSON object."""
    if type(d) is not dict:
        raise InvalidParameterError(f"expected a JSON object, got {type(d).__name__}")
    return d


def multigraph_from_dict(d: dict) -> Multigraph:
    from .multigraph import Multigraph

    mult_map = {}
    edges = _obj(d).get("edges", [])
    for u, v, m in edges:
        if type(u) is not int or type(v) is not int or type(m) is not int:
            raise InvalidParameterError(f"edge entries must be integers, got {[u, v, m]}")
        mult_map[(u, v)] = m
    if len(mult_map) != len(edges):
        raise InvalidParameterError("a pair is listed more than once")
    return Multigraph(_int(d["n"]), base=_int(d.get("base", 0)), mult_map=mult_map)


def blocks_to_list(blocks) -> list:
    return sorted(sorted(_int(x) for x in b) for b in blocks)


def gdd_to_dict(inst: GddInstance) -> dict:
    return {
        "points": inst.v,
        "groups": [list(g) for g in inst.groups],
        "lambda": inst.lam,
        "blocks": blocks_to_list(inst.blocks),
    }


def gdd_from_dict(d: dict) -> GddInstance:
    from .gdd import GddInstance

    blocks = tuple(tuple(b) for b in blocks_to_list(_obj(d)["blocks"]))
    k = len(blocks[0]) if blocks else 3
    return GddInstance(
        groups=tuple(tuple(_int(x) for x in g) for g in d["groups"]),
        blocks=blocks,
        lam=_int(d["lambda"]),
        k=k,
    )


def packing_to_dict(bc: BlockCollection) -> dict:
    return {
        "n": bc.n,
        "k": bc.k,
        "t": bc.t,
        "lambda": bc.lam,
        "blocks": blocks_to_list(bc.blocks),
    }


def packing_from_dict(d: dict) -> BlockCollection:
    from .oracle import BlockCollection

    return BlockCollection(
        n=_int(_obj(d)["n"]),
        k=_int(d["k"]),
        t=_int(d["t"]),
        lam=_int(d["lambda"]),
        blocks=tuple(tuple(b) for b in blocks_to_list(d["blocks"])),
    )


def certificate_to_dict(cert: LeaveCertificate) -> dict:
    return {
        "case": cert.case.value,
        "n": cert.n,
        "k": cert.k,
        "xi": cert.xi,
        "params": dict(cert.parameters),
        "graph": multigraph_to_dict(cert.graph),
        "evidence": [
            {
                "kind": e.kind,
                "params": list(e.params),
                "copies": e.copies,
                **({"blocks": blocks_to_list(e.blocks)} if e.blocks else {}),
            }
            for e in cert.evidence
        ],
    }


def certificate_from_dict(d: dict) -> LeaveCertificate:
    from .leave import EvidenceItem, LeaveCertificate
    from .params import CaseLabel

    params = {
        key: tuple(v) if isinstance(v, list) else v
        for key, v in _obj(_obj(d)["params"]).items()
    }
    return LeaveCertificate(
        n=_int(d["n"]),
        k=_int(d["k"]),
        case=CaseLabel(d["case"]),
        xi=_int(d["xi"]),
        graph=multigraph_from_dict(d["graph"]),
        parameters=params,
        evidence=tuple(
            EvidenceItem(
                kind=e["kind"],
                params=tuple(_int(x) for x in e["params"]),
                copies=_int(e["copies"]),
                blocks=tuple(tuple(_int(x) for x in b) for b in e["blocks"])
                if e.get("blocks")
                else None,
            )
            for e in d["evidence"]
        ),
    )


def dioph_to_dict(inst: DiophInstance) -> dict:
    return {
        "equalities": [list(e) for e in inst.equalities],
        "avoidances": [[q, list(forb)] for q, forb in inst.avoidances],
    }


def dioph_from_dict(d: dict) -> DiophInstance:
    from .dioph import DiophInstance

    return DiophInstance(
        equalities=tuple((_int(p), _int(a)) for p, a in _obj(d).get("equalities", [])),
        avoidances=tuple(
            (_int(q), tuple(_int(b) for b in forb))
            for q, forb in d.get("avoidances", [])
        ),
    )


def dioph_solution(d: dict):
    """The "solution" an artifact records, or None when it has none."""
    x = d.get("solution")
    return None if x is None else _int(x)


def dumps(obj: dict) -> str:
    """Canonical compact JSON: sorted keys, no whitespace, one line."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def identify(d: dict) -> str:
    """Best-effort artifact type from the key shape."""
    if "xi" in _obj(d):
        return "certificate"
    if "groups" in d:
        return "gdd"
    if "t" in d and "blocks" in d:
        return "packing"
    if "triangles" in d or ("status" in d and "graph" in d):
        return "decomposition"
    if "edges" in d or ("n" in d and "base" in d):
        return "multigraph"
    if "equalities" in d or "avoidances" in d:
        return "dioph"
    raise InvalidParameterError("unrecognized artifact shape")
