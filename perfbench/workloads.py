"""The three workloads: seeded inputs, the timed operations, and the
checks applied to every answer.

Each workload is a closed loop with one client: ``run_pass`` runs a fixed
batch of operations one after another and returns one ``Op`` per
operation.  Only the call into triplepack is timed; the checks run after
it, inside ``self.quiet()`` so that a traced run does not count them.
Inputs depend only on the seed, and expected values that come from the
package's own predicates are computed when the workload is built, before
any timing or tracing starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from types import SimpleNamespace

from checks import (
    avoidance_errors,
    certificate_errors,
    gdd_blocks_ok,
    graph_tally,
    johnson,
    packing_errors,
    reduction_errors,
    triangles_decompose,
)


@dataclass
class Op:
    kind: str
    seconds: float
    # "ok"; "error" when no answer came back (an exception, or an error
    # exit of the CLI); "wrong" when an answer failed its check
    status: str
    out_bytes: int = 0
    gap: int = 0
    detail: str = ""


def load_api():
    """The package functions the benchmark calls, bound in one namespace
    so that a traced run can wrap them like any other consumer's names."""
    from triplepack import cli, decomp, dioph, gdd, jsonio, leave, multigraph, oracle, params
    from triplepack.errors import TriplepackError

    return SimpleNamespace(
        modules=(cli, decomp, dioph, gdd, jsonio, leave, multigraph, oracle, params),
        TriplepackError=TriplepackError,
        BlockCollection=oracle.BlockCollection,
        DiophInstance=dioph.DiophInstance,
        Multigraph=multigraph.Multigraph,
        achieved_lower_bound=leave.achieved_lower_bound,
        classify=params.classify,
        upper_bound=params.upper_bound,
        verify_decomposition=decomp.verify_decomposition,
        find_triangle_decomposition=decomp.find_triangle_decomposition,
        dehon_conditions=decomp.dehon_conditions,
        clique_reduction=decomp.clique_reduction,
        complete=multigraph.complete,
        gadget_multigraph=gdd.gadget_multigraph,
        search_simple_gdd=gdd.search_simple_gdd,
        simple_gdd_exists=gdd.simple_gdd_exists,
        max_packing=oracle.max_packing,
        search_leave_nonexistence=oracle.search_leave_nonexistence,
        solve_avoidance=dioph.solve_avoidance,
        certificate_to_dict=jsonio.certificate_to_dict,
        certificate_from_dict=jsonio.certificate_from_dict,
        packing_to_dict=jsonio.packing_to_dict,
        gdd_to_dict=jsonio.gdd_to_dict,
        multigraph_to_dict=jsonio.multigraph_to_dict,
        blocks_to_list=jsonio.blocks_to_list,
        dumps=jsonio.dumps,
        cli_main=cli.main,
    )


def checked(check, *args) -> tuple:
    """(errors, answer JSON, gap) from a check; a check that raises on a
    malformed answer reports it as an error of that answer."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"check raised {exc!r}"], "", 0


REFERENCE_EVERY = 0.002  # seconds between samples of the reference loop


def reference_loop() -> int:
    """Fixed pure-Python work that never touches triplepack (integer
    arithmetic, a dict, a sort; about 0.15 ms): its time follows the
    host's speed and nothing else."""
    table = {}
    for i in range(1500):
        table[i * 7919 % 1009] = i
    return sum(sorted(table.values(), reverse=True)[::3])


class HostSpeed:
    """Samples of the reference loop's time, taken just before timed
    operations but at most once every REFERENCE_EVERY seconds, so that
    they follow the host through the whole run."""

    def __init__(self):
        self.samples = []
        self._next = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        if start >= self._next:
            reference_loop()
            end = time.perf_counter()
            self.samples.append(end - start)
            self._next = end + REFERENCE_EVERY


class Workload:
    name = ""
    min_passes = 3  # each operation's median is taken over at least this many repeats
    uses_children = False  # peak memory is that of child processes

    def __init__(self, api, tmp: str):
        self.api = api
        self.tmp = tmp
        self.quiet = contextlib.nullcontext
        self.host = HostSpeed()

    def timed(self, fn, *args):
        """(seconds, result, exception) of one call, after a sample of the
        host's speed; an exception is returned, not raised, because a
        failed operation is counted and the run goes on."""
        self.host.probe()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            return time.perf_counter() - start, None, exc
        return time.perf_counter() - start, result, None

    def warm(self) -> None:
        """Untimed work a long-running user pays once per process."""

    def run_pass(self) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweep: the certificate pipeline
# ---------------------------------------------------------------------------

SWEEP_K = range(5, 10)
SWEEP_N = (60, 3000)
SWEEP_SHARE = 10  # one residue class in ten of each case
SWEEP_JITTER = 0.03  # the seed moves each target size by up to 3%


def sweep_items(seed: int, classify) -> list:
    """About 130 (n, k), k = 5..9, sampled from the residue classes of n
    modulo k(k-1)(k-2).

    The residue case of (n, k), and with it the construction used, depends
    only on that class.  For each k the classes are grouped by case and a
    fixed one in SWEEP_SHARE of each group is kept, so the case mix is
    close to the natural one (78% r-case against 82% over all classes)
    and does not change with the seed.  Each kept class has a fixed target size, log-uniform over
    SWEEP_N across the kept classes of one k; the seed moves each target by
    up to SWEEP_JITTER, takes the class member nearest to it, and shuffles
    the order.  So the inputs change with the seed while the mix of sizes
    and cases, which sets the cost, stays put.  The batch is a tenth of
    the classes so that each certificate is repeated many times in a run
    (see run.py).
    """
    rng = random.Random(seed)
    lo, hi = SWEEP_N
    items = []
    for k in SWEEP_K:
        period = k * (k - 1) * (k - 2)
        by_case = {}
        for c in range(period):
            first = c + period * max(0, -((c - lo) // period))  # smallest member >= lo
            by_case.setdefault(classify(first, k)[0].value, []).append(first)
        kept = []
        for _case, firsts in sorted(by_case.items()):
            random.Random(k).shuffle(firsts)  # fixed: which classes are kept
            kept += firsts[::SWEEP_SHARE]
        layout = list(range(len(kept)))
        random.Random(k).shuffle(layout)  # fixed: which class gets which size
        for first, slot in zip(kept, layout):
            target = lo * (hi / lo) ** ((slot + 0.5) / len(kept))
            target *= math.exp(rng.uniform(-SWEEP_JITTER, SWEEP_JITTER))
            last = (hi - first) // period
            step = min(last, max(0, round((target - first) / period)))
            items.append((first + step * period, k))
    rng.shuffle(items)
    return items


class Sweep(Workload):
    name = "sweep"

    def __init__(self, api, seed, tmp):
        super().__init__(api, tmp)
        self.items = sweep_items(seed, api.classify)
        self.upper = {(n, k): api.upper_bound(n, k) for n, k in self.items}
        self.digest = {}  # (n, k) -> hash of the JSON that passed every check

    def warm(self):
        """Fill the p-case constructor's per-(k, p) gadget caches."""
        done = set()
        for n, k in sorted(self.items):
            label, data = self.api.classify(n, k)
            if label.value == "p-nonzero" and (k, data.p) not in done:
                done.add((k, data.p))
                with contextlib.suppress(self.api.TriplepackError):
                    self.api.achieved_lower_bound(n, k)

    def certify(self, n, k):
        """One certificate as a user makes and re-checks it: construct,
        check the leave conditions, write JSON, read it back, and apply the
        re-check that ``triplepack verify`` performs.  None if refused."""
        api = self.api
        try:
            _xi, cert = api.achieved_lower_bound(n, k)
        except api.TriplepackError:
            return None
        held = cert.conditions().all_pass()
        text = api.dumps(api.certificate_to_dict(cert))
        parsed = json.loads(text)
        back = api.certificate_from_dict(parsed)
        verified = back.conditions().all_pass() and back.xi <= api.upper_bound(back.n, back.k)
        for item in back.evidence:
            if item.kind == "simple-gdd" and item.blocks:
                g, u, lam = item.params
                verified = verified and api.verify_decomposition(
                    api.gadget_multigraph(g, u, lam), item.blocks
                )
        return cert, held, text, parsed, back, verified

    def check(self, n, k, res) -> tuple:
        cert, held, text, parsed, back, verified = res
        upper = self.upper[(n, k)]
        errs = []
        if not held:
            errs.append("leave conditions fail")
        if not verified:
            errs.append("the verify re-check fails")
        digest = hash(text)
        if (n, k) in self.digest:
            if self.digest[(n, k)] != digest:
                errs.append("output differs from the checked one")
            return errs, text, upper - cert.xi
        if self.api.dumps(self.api.certificate_to_dict(back)) != text:
            errs.append("JSON round trip changed the certificate")
        errs += certificate_errors(parsed, upper)
        if not errs:
            self.digest[(n, k)] = digest
        return errs, text, upper - cert.xi

    def run_pass(self):
        ops = []
        for n, k in self.items:
            seconds, res, exc = self.timed(self.certify, n, k)
            if exc is not None:
                ops.append(Op("certificate", seconds, "error", detail=f"{(n, k)}: {exc!r}"))
            elif res is None:  # a documented refusal: certifies xi = 0
                ops.append(Op("certificate", seconds, "ok", gap=self.upper[(n, k)], detail="refused"))
            else:
                with self.quiet():
                    errs, text, gap = checked(self.check, n, k, res)
                detail = f"{(n, k)}: {'; '.join(errs)}"
                ops.append(Op("certificate", seconds, "wrong" if errs else "ok", len(text), gap, detail))
        return ops


# ---------------------------------------------------------------------------
# desk: the exact engines
# ---------------------------------------------------------------------------

# D(n, k, 3) as frozen at the seed commit
PACKINGS = {(8, 4): 14, (9, 4): 18, (10, 4): 30, (9, 5): 3, (10, 5): 6}
# (n, k, xi_target) with leave weight 7 and 8; the full (14, 5) proof at
# weight 12 takes about 6 minutes, and the relaxed search at weight 8
# about 295 s, so neither fits in a run
LEAVE_PROOFS = ((14, 5, 35), (38, 5, 842))
# criterion 9 draws n from 5..40; two graphs of each order keep the work
# per pass nearly independent of the seed, which only draws the edges
REDUCTION_ORDERS = range(5, 41)
REDUCTIONS_PER_ORDER = 2
AVOIDANCE_INSTANCES = 400  # many, so the median operation (one of these) hardly moves with the seed


def random_multigraph_map(rng: random.Random, n: int) -> dict:
    """Criterion 9's generator on n vertices: each pair present with
    probability 1/4 at multiplicity 1..3."""
    mult = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.25:
                mult[(u, v)] = rng.randint(1, 3)
    return mult


PRIME_POWERS = (4, 8, 16, 32, 5, 25, 7, 49, 9, 27, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def avoidance_instance(rng: random.Random) -> tuple:
    """Criterion 8's generator: up to 3 equalities and 4 avoidance
    constraints on prime powers with distinct prime bases."""
    base_of = {m: min(p for p in range(2, m + 1) if m % p == 0) for m in PRIME_POWERS}
    while True:
        pool = list(PRIME_POWERS)
        rng.shuffle(pool)
        used = set()
        eqs, avs = [], []
        n_eq, n_av = rng.randint(0, 3), rng.randint(0, 4)
        for m in pool:
            if base_of[m] in used:
                continue
            if len(eqs) < n_eq:
                used.add(base_of[m])
                eqs.append((m, rng.randrange(m)))
            elif len(avs) < n_av:
                used.add(base_of[m])
                count = rng.randint(1, min(3, m - 1))
                avs.append((m, tuple(rng.sample(range(m), count))))
        if eqs or avs:
            return tuple(eqs), tuple(avs)


def avoidance_bound(eqs, avs) -> int:
    """The solver's documented ceiling N' * (forbidden count + 2)."""
    forbidden = sum(len(f) for _, f in avs)
    modulus = math.prod(m for m, _ in eqs) * math.prod(q for q, _ in avs if q < forbidden + 1)
    return modulus * (forbidden + 2)


@dataclass
class Task:
    kind: str
    fn: str  # looked up on the api at call time, so a traced run sees the call
    args: tuple
    check: object  # result -> (errors, answer JSON, gap)


class Desk(Workload):
    name = "desk"

    def __init__(self, api, seed, tmp):
        super().__init__(api, tmp)
        rng = random.Random(seed)
        self.tasks = (
            [self._packing(n, k, v) for (n, k), v in PACKINGS.items()]
            + self._leave_proofs()
            + self._decomp_grids()
            + [
                self._reduction(n, random_multigraph_map(rng, n))
                for n in REDUCTION_ORDERS
                for _ in range(REDUCTIONS_PER_ORDER)
            ]
            + [self._avoidance(*avoidance_instance(rng)) for _ in range(AVOIDANCE_INSTANCES)]
        )

    def run_pass(self):
        ops = []
        for task in self.tasks:
            seconds, res, exc = self.timed(getattr(self.api, task.fn), *task.args)
            if exc is not None:
                ops.append(Op(task.kind, seconds, "error", detail=f"{task.args}: {exc!r}"))
                continue
            with self.quiet():
                errs, text, gap = checked(task.check, res)
            detail = f"{task.args}: {'; '.join(errs)}"
            ops.append(Op(task.kind, seconds, "wrong" if errs else "ok", len(text), gap, detail))
        return ops

    def _packing(self, n, k, expected):
        api = self.api
        upper = api.upper_bound(n, k)

        def check(rep):
            errs = [] if rep.status.value == "optimal" else [f"status {rep.status.value}"]
            witness = rep.witness or ()
            text = api.dumps(api.packing_to_dict(api.BlockCollection(n, k, 3, 1, witness)))
            blocks = json.loads(text)["blocks"]
            errs += packing_errors(n, k, 3, rep.value, expected, blocks)
            return errs, text, upper - (rep.value or 0)

        return Task("packing", "max_packing", (n, k, 3), check)

    def _leave_proofs(self):
        """Each nonexistence proof pruned and unpruned (both must say
        none-exists, so they agree), plus the relaxed (14, 5) witness."""
        api = self.api
        tasks = []
        for n, k, xi in LEAVE_PROOFS:
            for prune in (True, False):

                def check(rep, xi=xi):
                    errs = [] if rep.status.value == "none-exists" else [f"status {rep.status.value}"]
                    if rep.value != xi:
                        errs.append(f"target {rep.value} != {xi}")
                    text = api.dumps({"status": rep.status.value, "value": rep.value})
                    return errs, text, 0

                tasks.append(Task("leave_proof", "search_leave_nonexistence", (n, k, xi, False, prune), check))

        n, k = 14, 5
        target = johnson(n, k) - 2

        def check_relaxed(rep):
            errs = [] if rep.status.value == "witness-found" else [f"status {rep.status.value}"]
            pieces = [api.multigraph_to_dict(g) for g in rep.witness or ()]
            tallies = [graph_tally(p) for p in pieces]
            total = sum(t[1] for t in tallies)
            if rep.value != target or total != n * (n - 1) * (n - 2) - k * (k - 1) * (k - 2) * target:
                errs.append("witness edge total does not match J - 2")
            if sum(p["n"] for p in pieces) > n:
                errs.append("witness uses more than n vertices")
            unit = (k - 1) * (k - 2)
            if any(d % unit for t in tallies for d in t[0]) or any(t[3] for t in tallies):
                errs.append("witness degree residue")
            text = api.dumps({"status": rep.status.value, "value": rep.value, "witness": pieces})
            return errs, text, 0

        tasks.append(Task("leave_proof", "search_leave_nonexistence", (n, k, None, True, True), check_relaxed))
        return tasks

    def _decomp_grids(self):
        """Criteria 2 and 3: search result against the existence predicate."""
        api = self.api
        tasks = []
        for n in range(3, 10):
            for lam in range(1, 9):
                expect = api.dehon_conditions(n, lam)
                pairs = {p: lam for p in combinations(range(n), 2)}

                def check(res, expect=expect, pairs=pairs):
                    found = res.status.value == "found"
                    errs = []
                    if found != expect or res.status.value not in ("found", "none-found"):
                        errs.append(f"status {res.status.value}, predicate {expect}")
                    elif found and not triangles_decompose(pairs, res.cliques):
                        errs.append("triangles do not decompose the graph")
                    cliques = api.blocks_to_list(res.cliques or ())
                    text = api.dumps({"status": res.status.value, "triangles": cliques})
                    return errs, text, 0

                tasks.append(Task("decomp", "find_triangle_decomposition", (api.complete(n, lam),), check))
        for u in range(3, 11):
            for g in range(1, 11):
                if g * u > 10:
                    continue
                for lam in range(1, 9):
                    expect = api.simple_gdd_exists(g, u, lam)

                    def check(res, g=g, u=u, lam=lam, expect=expect):
                        status, inst, _nodes = res
                        found = status.value == "found"
                        errs = []
                        if found != expect or status.value not in ("found", "none-found"):
                            errs.append(f"status {status.value}, predicate {expect}")
                        elif found and not gdd_blocks_ok(g, u, lam, inst.blocks):
                            errs.append("blocks are not a simple GDD")
                        text = api.dumps(api.gdd_to_dict(inst) if found else {"status": status.value})
                        return errs, text, 0

                    tasks.append(Task("decomp", "search_simple_gdd", (g, u, lam), check))
        return tasks

    def _reduction(self, n, mult):
        api = self.api

        def check(trace):
            errs = reduction_errors(n, mult, trace.cliques, trace.residual.mult_map)
            text = api.dumps(
                {
                    "cliques": api.blocks_to_list(trace.cliques),
                    "residual": api.multigraph_to_dict(trace.residual),
                }
            )
            return errs, text, 0

        graph = api.Multigraph(n, mult_map=dict(mult))
        return Task("decomp", "clique_reduction", (graph, 3, 1, 3), check)

    def _avoidance(self, eqs, avs):
        api = self.api
        inst = api.DiophInstance(equalities=eqs, avoidances=avs)
        bound = avoidance_bound(eqs, avs)

        def check(x):
            errs = avoidance_errors(eqs, avs, x, bound)
            if not inst.satisfied_by(x):
                errs.append("satisfied_by rejects the solution")
            return errs, api.dumps({"solution": x}), 0

        return Task("dioph", "solve_avoidance", (inst,), check)


# ---------------------------------------------------------------------------
# cli: a fixed script of commands
# ---------------------------------------------------------------------------

BOUNDS_RANGE = (8, 200)
CONSTRUCT = ((1999, 5), (1902, 7))


class Cli(Workload):
    """Each command runs in a fresh ``python3 -m triplepack.cli`` process,
    as a shell user would run it; a traced run calls ``cli.main`` in this
    process instead, so the package's layers can be observed."""

    name = "cli"
    uses_children = True

    def __init__(self, api, seed, tmp, in_process=False):
        super().__init__(api, tmp)
        self.in_process = in_process
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        rng = random.Random(seed)
        self.dioph = avoidance_instance(rng)
        self.graph = _random_triangles(rng, 9, 10)
        self.path = {name: os.path.join(tmp, name) for name in ("d.json", "g.json", "c0.json", "c1.json", "b.json")}
        with open(self.path["d.json"], "w") as fh:
            json.dump({"equalities": self.dioph[0], "avoidances": self.dioph[1]}, fh)
        with open(self.path["g.json"], "w") as fh:
            json.dump({"n": 9, "edges": [[u, v, m] for (u, v), m in sorted(self.graph.items())]}, fh)
        self.upper = {nk: api.upper_bound(*nk) for nk in CONSTRUCT}
        self.script = self._script()

    def invoke(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.api.cli_main(list(argv))
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "triplepack.cli", *argv],
            cwd=self.tmp,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=150,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_pass(self):
        for name in ("c0.json", "c1.json", "b.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path[name])
        ops = []
        for argv, check in self.script:
            seconds, res, exc = self.timed(self.invoke, argv)
            if exc is not None:
                ops.append(Op("command", seconds, "error", detail=f"{argv[0]}: {exc!r}"))
                continue
            code, out, err = res
            if code not in (0, 1):  # bad input, budget, or a crash: no answer
                ops.append(Op("command", seconds, "error", len(out), detail=f"{argv}: exit {code} {err.strip()[-200:]}"))
                continue
            with self.quiet():
                errs, text, gap = checked(check, out)
            if code != 0:
                errs.append("exit 1")
            status = "wrong" if errs else "ok"
            ops.append(Op("command", seconds, status, len(text), gap, f"{argv}: {'; '.join(errs)}"))
        return ops

    def _script(self):
        lo, hi = BOUNDS_RANGE
        rng_arg = f"{lo}..{hi}"
        script = [
            (("bounds", "--k", "5", "--n", rng_arg), self._check_bounds),
            (("classify", "--k", "5", "--n", rng_arg), self._check_classify),
        ]
        for i, (n, k) in enumerate(CONSTRUCT):
            path = self.path[f"c{i}.json"]
            script.append((("construct", "--n", str(n), "--k", str(k), "--out", path), self._check_cert(n, k, path)))
            script.append((("verify", path), _expect_line("certificate: ok")))
        path = self.path["b.json"]
        script.append((("brute", "--n", "9", "--k", "4", "--out", path), self._check_brute(path)))
        # fails at the seed commit: brute writes no "lambda", so verify exits 2
        script.append((("verify", path), _expect_line("packing: ok")))
        script.append((("gdd", "--g", "2", "--u", "6", "--lam", "1", "--search"), self._check_gdd))
        script.append((("dioph", "--input", self.path["d.json"]), self._check_dioph))
        script.append((("decompose", "--input", self.path["g.json"]), self._check_decompose))
        return script

    def _check_bounds(self, out):
        lo, hi = BOUNDS_RANGE
        rows = [line.split() for line in out.splitlines()[1:]]
        errs, gap = [], 0
        if [int(r[0]) for r in rows] != list(range(lo, hi + 1)):
            return ["rows do not cover the range"], out, 0
        for n, _case, j, _jp, upper, achieved in rows:
            n, j, upper = int(n), int(j), int(upper)
            got = 0 if achieved == "-" else int(achieved)
            if j != johnson(n, 5) or upper > j or got > upper:
                errs.append(f"row n={n} out of order")
            gap += upper - got
        return errs, out, gap

    def _check_classify(self, out):
        lo, hi = BOUNDS_RANGE
        cases = {"design", "r-nonzero", "q-nonzero", "p-nonzero"}
        rows = [line.split() for line in out.splitlines()[1:]]
        ok = len(rows) == hi - lo + 1 and all(r[2] in cases for r in rows)
        return ([] if ok else ["classify table malformed"]), out, 0

    def _check_cert(self, n, k, path):
        def check(out):
            with open(path) as fh:
                text = fh.read()
            d = json.loads(text)
            errs = certificate_errors(d, self.upper[(n, k)])
            if (d["n"], d["k"]) != (n, k):
                errs.append("certificate for other parameters")
            return errs, out + text, self.upper[(n, k)] - d["xi"]

        return check

    def _check_brute(self, path):
        def check(out):
            with open(path) as fh:
                text = fh.read()
            d = json.loads(text)
            errs = packing_errors(9, 4, 3, d["value"], 18, d.get("blocks"))
            if d["status"] != "optimal":
                errs.append(f"status {d['status']}")
            return errs, out + text, 0

        return check

    def _check_gdd(self, out):
        d = json.loads(out)
        w = d.get("witness") or {}
        groups = [list(range(2 * i, 2 * i + 2)) for i in range(6)]
        ok = (
            d.get("search") == "found"
            and w.get("groups") == groups
            and w.get("lambda") == 1
            and gdd_blocks_ok(2, 6, 1, w.get("blocks", ()))
        )
        return ([] if ok else ["no simple GDD(2^6) witness"]), out, 0

    def _check_dioph(self, out):
        eqs, avs = self.dioph
        x = json.loads(out)["solution"]
        return avoidance_errors(eqs, avs, x, avoidance_bound(eqs, avs)), out, 0

    def _check_decompose(self, out):
        d = json.loads(out)
        ok = d.get("status") == "found" and triangles_decompose(self.graph, d["triangles"])
        return ([] if ok else ["triangles do not decompose the input"]), out, 0


def _expect_line(line):
    def check(out):
        return ([] if out.strip() == line else [f"printed {out.strip()[:80]!r}"]), out, 0

    return check


def _random_triangles(rng: random.Random, v: int, count: int) -> dict:
    """Pair multiplicities of ``count`` distinct random triangles on v
    vertices, so a distinct triangle decomposition exists."""
    mult = {}
    for tri in rng.sample(list(combinations(range(v), 3)), count):
        for p in combinations(tri, 2):
            mult[p] = mult.get(p, 0) + 1
    return mult


WORKLOADS = {w.name: w for w in (Sweep, Desk, Cli)}
