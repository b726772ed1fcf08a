"""Spans and counters recorded from outside the package.

For the length of a traced run the tracer replaces the names through
which one triplepack module calls a function of another (for example
``triplepack.leave.overlay`` or ``triplepack.oracle.find_triangle_decomposition``),
the functions ``cli`` reaches through the ``jsonio`` module object, the
benchmark's own bindings, and a few ``Multigraph`` methods.  Each call
records a span (name, start, end, parent) in memory; a few return values
feed deterministic counters (search nodes, bricks, pairs, bytes).
``restore`` puts every original back.  The package itself is not edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import types
from collections import Counter

MULTIGRAPH_METHODS = (
    "__post_init__",
    "degrees",
    "degree",
    "edge_count",
    "max_mult",
    "active_vertices",
    "validate",
)
REALIZE = {"multigraph.realize_degree_sequence", "multigraph.erdos_gallai_feasible"}
BUILD = {"multigraph.complete", "multigraph.scale", "multigraph.overlay", "multigraph.disjoint_union"}
SEARCH = {"decomp.find_triangle_decomposition", "decomp.decompose_via_reduction"}


def _count_search(counters, res, args):
    counters["decomp.nodes"] += res.nodes
    counters["decomp.found"] += res.status.value == "found"


def _count_pairs(counters, res, args):
    counters["multigraph.pairs_built"] += len(args[0].mult_map)


HOOKS = {
    "decomp.find_triangle_decomposition": _count_search,
    "decomp.decompose_via_reduction": _count_search,
    "gdd.search_simple_gdd": lambda c, res, a: c.update({"gdd.search_nodes": res[2]}),
    "oracle.max_packing": lambda c, res, a: c.update({"oracle.packing_nodes": res.nodes_explored}),
    # nodes_explored of the leave search counts the bricks it tested
    "oracle.search_leave_nonexistence": lambda c, res, a: c.update(
        {"oracle.bricks_tested": res.nodes_explored}
    ),
    "jsonio.dumps": lambda c, res, a: c.update({"jsonio.bytes": len(res)}),
    "multigraph.__post_init__": _count_pairs,
}


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.paused = False
        self._open = []
        self._undo = []

    def call(self, name, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counters[name + ".raised"] += 1
            raise
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self.counters, result, args)
        return result

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def patch(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self, modules, api) -> None:
        """Wrap every cross-module function binding in ``modules``, the
        public functions of ``jsonio`` (``cli`` calls them through the
        module object), every function of the ``api`` namespace, and the
        ``Multigraph`` methods listed above."""
        for mod in modules:
            own = mod.__name__
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or not obj.__module__.startswith("triplepack."):
                    continue
                cross = obj.__module__ != own
                if cross or (own == "triplepack.jsonio" and not attr.startswith("_")):
                    self.patch(mod, attr, layer_name(obj))
        for attr, obj in list(vars(api).items()):
            if isinstance(obj, types.FunctionType):
                self.patch(api, attr, layer_name(obj))
        graph_cls = next(m for m in modules if m.__name__ == "triplepack.multigraph").Multigraph
        for meth in MULTIGRAPH_METHODS:
            self.patch(graph_cls, meth, f"multigraph.{meth}")

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span, then the counters."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0, "parent": parent}))
                fh.write("\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so the children of a span never
    overlap and their durations add up to the covered part.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_n, start, end, _p) in enumerate(spans)]


def inclusive_time(spans, names) -> float:
    """Total duration of spans named in ``names`` that have no ancestor
    also named in ``names`` (so nested calls are not counted twice)."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def layer_metrics(spans, counters, passes: int) -> dict:
    """Per-layer figures for one pass (totals divided by ``passes``)."""
    selfs = self_times(spans)
    calls = Counter()
    self_s = Counter()
    by_name = Counter()
    for (name, _s, _e, _p), st in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += st
        by_name[name] += st
    brick_decomp = sum(
        end - start
        for name, start, end, parent in spans
        if name in SEARCH and parent >= 0 and spans[parent][0] == "oracle.search_leave_nonexistence"
    )
    search_s = inclusive_time(spans, SEARCH)
    search_calls = sum(1 for s in spans if s[0] in SEARCH)
    packing_s = inclusive_time(spans, {"oracle.max_packing"})
    dump_names = {s[0] for s in spans if s[0].startswith("jsonio.") and (s[0].endswith("_to_dict") or s[0].endswith(("dumps", "_to_list")))}
    load_names = {s[0] for s in spans if s[0].startswith("jsonio.") and (s[0].endswith("_from_dict") or s[0] == "jsonio.identify")}
    c = counters
    out = {
        "cli.self_s": self_s["cli"],
        "params.calls": calls["params"],
        "params.self_s": self_s["params"],
        "multigraph.calls": calls["multigraph"],
        "multigraph.self_s": self_s["multigraph"],
        "multigraph.realize_s": inclusive_time(spans, REALIZE),
        "multigraph.build_s": inclusive_time(spans, BUILD),
        "multigraph.degrees_calls": sum(1 for s in spans if s[0] == "multigraph.degrees"),
        "multigraph.pairs_built": c["multigraph.pairs_built"],
        "leave.calls": calls["leave"],
        "leave.self_s": self_s["leave"],
        "leave.refused": c["leave.achieved_lower_bound.raised"],
        "gdd.calls": calls["gdd"],
        "gdd.self_s": self_s["gdd"],
        "gdd.search_nodes": c["gdd.search_nodes"],
        "decomp.calls": calls["decomp"],
        "decomp.self_s": self_s["decomp"],
        "decomp.nodes": c["decomp.nodes"],
        "decomp.nodes_per_s": c["decomp.nodes"] / search_s if search_s else 0.0,
        "decomp.found_ratio": c["decomp.found"] / search_calls if search_calls else 0.0,
        "oracle.packing_self_s": by_name["oracle.max_packing"],
        "oracle.packing_nodes": c["oracle.packing_nodes"],
        "oracle.packing_nodes_per_s": c["oracle.packing_nodes"] / packing_s if packing_s else 0.0,
        "oracle.leave_self_s": by_name["oracle.search_leave_nonexistence"],
        "oracle.bricks_tested": c["oracle.bricks_tested"],
        "oracle.brick_decomp_s": brick_decomp,
        "dioph.calls": calls["dioph"],
        "dioph.self_s": self_s["dioph"],
        "jsonio.calls": calls["jsonio"],
        "jsonio.dump_s": inclusive_time(spans, dump_names),
        "jsonio.load_s": inclusive_time(spans, load_names),
        "jsonio.bytes": c["jsonio.bytes"],
    }
    ratios = {"decomp.nodes_per_s", "decomp.found_ratio", "oracle.packing_nodes_per_s"}
    return {k: v if k in ratios else v / passes for k, v in out.items()}
