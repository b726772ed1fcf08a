"""Command-line surface.

Subcommands: bounds, classify, construct, decompose, gdd, dioph, brute,
verify.  Exit codes: 0 success, 1 verification failed or no witness
where one was demanded, 2 invalid input (an n too large for memory
included), 3 budget exceeded.  The TRIPLEPACK_BUDGET environment
variable sets the default search budget.  Each command imports the
package modules it runs, so a fresh process loads only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .errors import InvalidParameterError, TriplepackError

OK, FAIL, BAD_INPUT, BUDGET = 0, 1, 2, 3


def _n_range(spec: str, k: int):
    """The n > k of a single value or a range a..b."""
    lo, dots, hi = spec.partition("..")
    return range(max(int(lo), k + 1), int(hi if dots else lo) + 1)


def _exit_code(status) -> int:
    from .decomp import SearchStatus

    return {SearchStatus.FOUND: OK, SearchStatus.BUDGET: BUDGET}.get(status, FAIL)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(payload: dict, out: str | None):
    text = jsonio.dumps(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bounds(args) -> int:
    from .leave import achieved_lower_bound
    from .params import classify, j_prime, johnson_bound, upper_bound

    rows = []
    for n in _n_range(args.n, args.k):
        label, _ = classify(n, args.k)
        jp = j_prime(n, args.k)
        try:
            achieved, _cert = achieved_lower_bound(n, args.k)
        except TriplepackError:
            achieved = None
        rows.append(
            {
                "n": n,
                "k": args.k,
                "case": label.value,
                "johnson": johnson_bound(n, args.k, 3),
                "j_prime": jp,
                "upper": upper_bound(n, args.k),
                "achieved": achieved,
            }
        )
    if args.format == "json":
        _emit({"bounds": rows}, args.out)
    else:
        print(f"{'n':>6} {'case':<10} {'J':>10} {'J_prime':>10} {'upper':>10} {'achieved':>10}")
        for r in rows:
            ach = "-" if r["achieved"] is None else r["achieved"]
            print(
                f"{r['n']:>6} {r['case']:<10} {r['johnson']:>10} "
                f"{r['j_prime']:>10} {r['upper']:>10} {ach:>10}"
            )
    return OK


def _cmd_classify(args) -> int:
    from .params import classify

    rows = []  # all of them before any output, so a refusal prints nothing
    for n in _n_range(args.n, args.k):
        label, data = classify(n, args.k)
        extra = {
            key: getattr(data, key)
            for key in ("r", "gamma", "gamma0", "q_beta", "p", "q_excess", "star_holds")
            if getattr(data, key) is not None
        }
        rows.append(f"{n:>6} {args.k:>4} {label.value:<10} {extra}")
    print(f"{'n':>6} {'k':>4} {'case':<10} residues")
    for row in rows:
        print(row)
    return OK


def _cmd_construct(args) -> int:
    from .leave import achieved_lower_bound

    try:
        _xi, cert = achieved_lower_bound(args.n, args.k)
    except InvalidParameterError:  # outside n > k >= 4: bad input, not a refusal
        raise
    except TriplepackError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return FAIL
    _emit(jsonio.certificate_to_dict(cert), args.out)
    return OK


def _cmd_decompose(args) -> int:
    from .decomp import SearchStatus, find_triangle_decomposition

    data = _load(args.input)
    kind = jsonio.identify(data)
    if kind != "multigraph":
        raise InvalidParameterError(f"expected a multigraph, got a {kind}")
    g = jsonio.multigraph_from_dict(data)
    res = find_triangle_decomposition(g, budget=args.budget)
    payload = {"status": res.status.value, "graph": jsonio.multigraph_to_dict(g)}
    if res.status is SearchStatus.FOUND:
        payload["triangles"] = jsonio.blocks_to_list(res.cliques)
    else:
        payload["nodes"] = res.nodes
    _emit(payload, args.out)
    return _exit_code(res.status)


def _cmd_gdd(args) -> int:
    from .gdd import lgdd_exists, search_simple_gdd, simple_gdd_exists, simple_ts_exists

    row = {
        "g": args.g,
        "u": args.u,
        "lambda": args.lam,
        "simple_gdd_exists": simple_gdd_exists(args.g, args.u, args.lam),
        "lgdd_exists": lgdd_exists(args.g, args.u, args.lam),
    }
    if args.g == 1:
        row["simple_ts_exists"] = simple_ts_exists(args.u, args.lam)
    code = OK
    if args.search:
        status, inst, nodes = search_simple_gdd(args.g, args.u, args.lam, args.budget)
        row["search"] = status.value
        if inst is not None:
            row["witness"] = jsonio.gdd_to_dict(inst)
        code = _exit_code(status)
    _emit(row, args.out)
    return code


def _cmd_dioph(args) -> int:
    from .dioph import solve_avoidance

    inst = jsonio.dioph_from_dict(_load(args.input))
    x = solve_avoidance(inst)
    _emit({**jsonio.dioph_to_dict(inst), "solution": x}, args.out)
    return OK


def _cmd_brute(args) -> int:
    from .oracle import BlockCollection, ReportStatus, max_packing

    report = max_packing(args.n, args.k, args.t, args.budget)
    payload = {"n": args.n, "k": args.k, "t": args.t}
    if report.witness is not None:
        payload = jsonio.packing_to_dict(
            BlockCollection(args.n, args.k, args.t, 1, report.witness)
        )
    payload.update(
        status=report.status.value, value=report.value, nodes=report.nodes_explored
    )
    _emit(payload, args.out)
    if report.status is ReportStatus.BUDGET:
        return BUDGET
    return OK


def _cmd_verify(args) -> int:
    data = _load(args.input)
    kind = jsonio.identify(data)
    ok = False
    if kind == "certificate":
        from .leave import verify_certificate

        ok = verify_certificate(jsonio.certificate_from_dict(data))
    elif kind == "gdd":
        from .gdd import verify_gdd

        wit = data
        if "search" in data:
            # a search report claims its witness: a simple (3, lambda)-GDD
            # of type g^u
            if "witness" not in data:
                raise InvalidParameterError(
                    f"a {data['search']!r} search carries no claim to verify"
                )
            wit = data["witness"]
        inst, points = jsonio.gdd_from_dict(wit), jsonio.recorded_int(wit, "points")
        ok = points in (None, inst.v) and verify_gdd(inst)
        if wit is not data:
            g, u, lam = (jsonio.recorded_int(data, key) for key in ("g", "u", "lambda"))
            ok = ok and (inst.k, inst.lam, len(inst.groups)) == (3, lam, u) and all(
                len(grp) == g for grp in inst.groups
            )
    elif kind == "packing":
        # a brute report carries blocks only when its search found them;
        # the claim is the blocks and the value that counts them
        if "blocks" not in data:
            raise InvalidParameterError(
                f"a {data['status']!r} search carries no claim to verify"
            )
        from .oracle import verify_packing

        bc, value = jsonio.packing_from_dict(data), jsonio.recorded_int(data, "value")
        ok = value in (None, len(bc.blocks)) and verify_packing(bc)
    elif kind == "multigraph":
        # a bare graph claims nothing: its degree identity holds for every
        # graph that builds
        raise InvalidParameterError(
            "a multigraph carries no claim to verify; "
            "`triplepack decompose --input FILE` searches for a triangle decomposition"
        )
    elif kind == "decomposition":
        # only a found decomposition of the recorded graph claims anything
        status = data.get("status")
        if status != "found":
            raise InvalidParameterError(f"a {status!r} decomposition carries no claim to verify")
        from .decomp import verify_decomposition

        g, tris = jsonio.multigraph_from_dict(data["graph"]), data["triangles"]
        ok = verify_decomposition(g, tris) and all(len(t) == 3 for t in tris)
    elif kind == "dioph":
        # the claim is the recorded solution; an instance without one
        # claims nothing
        inst = jsonio.dioph_from_dict(data)
        x = jsonio.recorded_int(data, "solution")
        ok = x is not None and inst.satisfied_by(x)
    print(f"{kind}: {'ok' if ok else 'FAILED'}")
    return OK if ok else FAIL


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="triplepack",
        description="Bounds, constructions and certificates for triple packing numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse converts a string default with ``type`` and reports a bad
    # one as a usage error; an unset or empty variable means no budget
    budget = os.environ.get("TRIPLEPACK_BUDGET") or None

    def non_negative_int(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"budget must be >= 0, got {value}")
        return value

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write JSON output to a file")
        return p

    p = add("bounds", _cmd_bounds, help="bound table over a range of n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", required=True, help="single value or range a..b")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = add("classify", _cmd_classify, help="residue-case table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", required=True, help="single value or range a..b")

    p = add("construct", _cmd_construct, help="emit a leave certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("decompose", _cmd_decompose, help="triangle-decompose a multigraph")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=non_negative_int, default=budget)

    p = add("gdd", _cmd_gdd, help="GDD existence predicates / witness search")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--search", action="store_true")
    p.add_argument("--budget", type=non_negative_int, default=budget)

    p = add("dioph", _cmd_dioph, help="solve a congruence/avoidance instance")
    p.add_argument("--input", required=True)

    p = add("brute", _cmd_brute, help="exact maximum packing, desk scale")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--budget", type=non_negative_int, default=budget)

    p = add("verify", _cmd_verify, help="re-check a JSON artifact (a certificate's "
            "ok covers its leave; its xi is a packing only for large n; a "
            "packing's ok covers its blocks and their count, not its optimality)")
    p.add_argument("input")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    # malformed input: bad numbers (ValueError, which covers JSON syntax
    # errors), numbers too large to size a list (OverflowError), wrongly
    # shaped JSON values (TypeError), missing keys, or a path that cannot
    # be read or written (OSError)
    except (TriplepackError, OSError, KeyError, ValueError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    # a size whose lists do not fit in memory (MemoryError carries no text)
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
