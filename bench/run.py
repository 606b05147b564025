"""End-to-end benchmark for kegraphs.

    python3 bench/run.py --workload verify-general --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each run builds its inputs from ``--seed`` and sizes them so that one pass
over them takes about ``--seconds`` on a two-core x86 sandbox.  A single
closed-loop client drives the public API in this one process: each input
starts only after the previous one has finished, and each call is timed on
its own and scaled by the machine's speed at that moment (calibrate.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment (revision, Python, nproc, seed) and the unscaled figures.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run makes one untraced pass and one traced pass over a third as many
inputs, checks that both produce the same outputs, and reports per-layer
call counts and self times taken from spans recorded around the package's
public functions (see tracer.py).  A ``profile`` line before the result
lists every traced function.

Workloads (the reasons are in NOTES.md):
  verify-general    verify.run_checks, all checks, on graphs of verify.connected_corpus(seed, k, 2, 10)
  verify-bipartite  verify.run_checks, all checks, on graphs of verify.bipartite_corpus(seed, k, 12)
  analyze-ke16      cli.main(["analyze", <file>, "--out", <file>]) on 16-vertex KE graphs
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import hashlib
import importlib
import inspect
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
from tracer import LayerStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = Path(__file__).with_name("references.json")

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
# Every time below is scaled by the machine's speed at the moment it was
# taken (see calibrate.py): a kernel sample every CAL_INTERVAL_S, and the
# median of the CAL_WINDOW samples on either side as the speed.
CAL_INTERVAL_S = 0.2
CAL_WINDOW = 3
MIN_BEYOND_TAIL = 10
TAIL_PERCENT = 90
# A run that overruns its budget this many times stops early, so that it
# still ends well inside the three-minute limit on a badly regressed build.
DEADLINE_FACTOR = 4
DEADLINE_MAX_S = 120.0

PACKAGE_MODULES = (
    "graph", "edgefile", "limits", "bruteforce", "matching", "stable",
    "analysis", "constructions", "verify", "cli",
)


# -- statistics ---------------------------------------------------------------


def percentile(sorted_samples: list[float], percent: int,
               min_beyond: int = MIN_BEYOND_TAIL) -> float:
    """Nearest-rank percentile of ascending samples.

    Refuses (ValueError) when fewer than `min_beyond` samples lie above the
    returned one, so a reported tail is never set by a handful of samples.
    """
    n = len(sorted_samples)
    rank = -(-n * percent // 100)  # ceil(n * percent / 100) in integers
    if rank < 1 or n - rank < min_beyond:
        raise ValueError(
            f"{n} samples leave {max(n - rank, 0)} beyond p{percent}; "
            f"need {min_beyond}"
        )
    return sorted_samples[rank - 1]


def min_samples(percent: int, min_beyond: int = MIN_BEYOND_TAIL) -> int:
    """Smallest sample count whose `percent` percentile has `min_beyond`
    samples above it."""
    n = 1
    while n - -(-n * percent // 100) < min_beyond:
        n += 1
    return n


MIN_SAMPLES = min_samples(TAIL_PERCENT)


# -- the package ----------------------------------------------------------------


class Package:
    """Freshly imported kegraphs modules, as attributes by short name."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "kegraphs" or m.startswith("kegraphs.")]:
            del sys.modules[name]
        self.root = importlib.import_module("kegraphs")
        for short in PACKAGE_MODULES:
            setattr(self, short, importlib.import_module(f"kegraphs.{short}"))

    def modules(self) -> list:
        return [self.root] + [getattr(self, short) for short in PACKAGE_MODULES]


@dataclasses.dataclass
class Item:
    """One input: the graph, its label and class, and its files if any."""

    label: str
    klass: str
    graph: object
    in_path: str = ""
    out_path: str = ""


# -- workloads ------------------------------------------------------------------


class VerifyWorkload:
    """All verify checks over a seeded corpus, one graph per call."""

    def __init__(self, name: str, graphs_per_second: float, corpus, pool_factor: int):
        self.name = name
        self.graphs_per_second = graphs_per_second
        self.corpus = corpus
        self.pool_factor = pool_factor

    def size(self, seconds: float) -> int:
        return max(MIN_SAMPLES, round(seconds * self.graphs_per_second))

    def setup(self, kg: Package, seed: int, size: int) -> list[Item]:
        pool = self.corpus(kg, seed, size * self.pool_factor)
        return [Item(label, "all", g) for label, g in systematic_sample(pool, size)]

    def call(self, kg: Package, item: Item):
        return kg.verify.run_checks([(item.label, item.graph)])

    def result(self, kg: Package, item: Item, summary) -> tuple[tuple, bool]:
        out = tuple(
            (name, s.applicable, s.passed, tuple(s.failures))
            for name, s in sorted(summary.checks.items())
        )
        return out, summary.violations == 0

    def check(self, kg: Package, item: Item, output) -> bool:
        return True  # run_checks already compares independent routes

    def pass_output(self, kg: Package, items: list[Item], outputs: list) -> str:
        """The table and failure lines `kegraphs verify` prints for the
        whole corpus, merged from the per-graph summaries."""
        v = kg.verify
        merged = {c.name: v.CheckStats(c.description) for c in v.CHECKS}
        for out in filter(None, outputs):
            for name, applicable, passed, failures in out:
                s = merged[name]
                s.applicable += applicable
                s.passed += passed
                room = v.MAX_RECORDED_FAILURES - len(s.failures)
                s.failures.extend(failures[:room])
        summary = v.VerifySummary(graphs=len(items), checks=merged)
        lines = [summary.table()]
        for name in sorted(merged):
            lines.extend(f"FAILURE [{name}] {f}" for f in merged[name].failures)
        return "\n".join(lines) + "\n"

    def cleanup(self) -> None:
        pass


def systematic_sample(pool: list, size: int) -> list:
    """`size` graphs spread evenly over `pool` ordered by order, edge count
    and degree sequence.

    Every input still comes from the package's own corpus generator, but
    the sample keeps the pool's mix of small and large, sparse and dense,
    balanced and lopsided graphs, so its cost varies far less from seed to
    seed than `size` graphs drawn independently would.
    """
    def key(labelled):
        g = labelled[1]
        return g.n, g.m, sorted(g.degree(v) for v in range(g.n))

    ranked = sorted(pool, key=key)
    step = len(ranked) / size
    return [ranked[int((j + 0.5) * step)] for j in range(size)]


def general_corpus(kg: Package, seed: int, count: int):
    return kg.verify.connected_corpus(seed, -(-count // 9), 2, 10)


def bipartite_corpus(kg: Package, seed: int, count: int):
    return kg.verify.bipartite_corpus(seed, count, 12)


class AnalyzeWorkload:
    """`kegraphs analyze` on one seeded 16-vertex KE graph file per call.

    Every input is bipartite, hence KE, so the independent reference is
    Koenig's theorem: alpha = n - mu, with mu from the brute-force oracle.
    """

    name = "analyze-ke16"
    inputs_per_second = 9.0
    dense_share = 0.15
    dense_p = 0.8
    dense_panel_seed = 16

    def __init__(self) -> None:
        self.dir = WORK / f"{self.name}-{os.getpid()}"

    def size(self, seconds: float) -> int:
        return max(MIN_SAMPLES, round(seconds * self.inputs_per_second))

    def graphs(self, kg: Package, seed: int, size: int):
        """K8,8, K7,9 and a fixed panel of random_bipartite(8, 8, 0.8)
        graphs, each relabelled by a seeded permutation, plus seeded sparse
        graphs and C16.

        The dense graphs set the tail latency, and their costs differ by a
        factor of three from one random draw to the next; with only a few
        dozen of them in a run, fresh draws per seed would move p90 by a
        quarter.  Relabelling keeps their structure and still changes the
        order every search visits them in.
        """
        c = kg.constructions
        rng = random.Random(seed)
        panel = random.Random(self.dense_panel_seed)
        rest = size - 3
        dense = [("k8x8", c.complete_bipartite(8, 8)), ("k7x9", c.complete_bipartite(7, 9))]
        count = round(rest * self.dense_share)
        for i in range(count):
            g = c.random_bipartite(8, 8, self.dense_p, panel.randrange(1 << 30))
            dense.append((f"dense{i}", g))
        out = []
        for label, g in dense:
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append((label, "dense", kg.graph.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])))
        out.append(("c16", "sparse", c.cycle(16)))
        for i in range(rest - count):
            s = rng.randrange(1 << 30)
            kind = i % 3
            if kind == 0:
                g = c.random_bipartite(8, 8, 0.5, s)
            elif kind == 1:
                g = c.random_bipartite_with_pm(8, 0.3, s)
            else:
                g = c.random_tree(16, s)
            out.append((f"sparse{i}", "sparse", g))
        return out

    def setup(self, kg: Package, seed: int, size: int) -> list[Item]:
        """Write the inputs to a directory of this process's own and work
        from inside it, so that file names, and with them the reports'
        `source` fields, are the same in every checkout and process."""
        os.chdir(ROOT)
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "in").mkdir(parents=True)
        (self.dir / "out").mkdir()
        os.chdir(self.dir)
        items = []
        for i, (label, klass, g) in enumerate(self.graphs(kg, seed, size)):
            item = Item(label, klass, g, f"in/{i:04d}.gr", f"out/{i:04d}.ndjson")
            Path(item.in_path).write_text(kg.edgefile.format_graph(g), encoding="utf-8")
            items.append(item)
        return items

    def call(self, kg: Package, item: Item):
        return kg.cli.main(["analyze", item.in_path, "--out", item.out_path])

    def result(self, kg: Package, item: Item, code) -> tuple[str, bool]:
        if code != 0:
            return "", False
        return Path(item.out_path).read_text(encoding="utf-8"), True

    def check(self, kg: Package, item: Item, output: str) -> bool:
        g = item.graph
        mu = kg.bruteforce.brute_max_matching_size(g)
        try:
            doc = json.loads(output)
        except ValueError:
            return False
        return (
            doc.get("source") == item.in_path
            and doc.get("n") == g.n
            and doc.get("m") == g.m
            and doc.get("is_ke") is True
            and doc.get("mu") == mu
            and doc.get("alpha") == g.n - mu
            and doc.get("has_pm") == (2 * mu == g.n)
        )

    def pass_output(self, kg: Package, items: list[Item], outputs: list) -> str:
        return "".join(filter(None, outputs))

    def cleanup(self) -> None:
        os.chdir(ROOT)
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there


WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload("verify-general", 300.0, general_corpus, 2),
        VerifyWorkload("verify-bipartite", 55.0, bipartite_corpus, 4),
        AnalyzeWorkload(),
    )
}


# -- running ----------------------------------------------------------------------


class Speedometer:
    """Calibration-kernel samples taken every CAL_INTERVAL_S through a run,
    and the machine's speed they show at any moment of it."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append(calibrate.sample())
            self.times.append(now)
            self._next = time.perf_counter() + CAL_INTERVAL_S

    def factor_at(self, t: float) -> float:
        """Nominal kernel time over the median of the samples nearest `t`:
        below 1 while the machine runs slow."""
        k = bisect.bisect(self.times, t)
        near = self.samples[max(0, k - CAL_WINDOW):k + CAL_WINDOW]
        return calibrate.NOMINAL_S / statistics.median(near)


@dataclasses.dataclass
class PassResult:
    """Per-input outputs, call start times and call durations (None where
    an input did not run)."""

    outputs: list
    started: list
    latencies: list
    attempted: int = 0
    failed: int = 0
    complete: bool = True


def run_pass(workload, kg: Package, items: list[Item], order: list[int],
             stop_at: float, tracer: Tracer | None = None,
             meter: Speedometer | None = None) -> PassResult:
    """Run each input once, in `order`, timing each call on its own; stop
    early once the perf_counter clock passes `stop_at`."""
    res = PassResult([None] * len(items), [None] * len(items), [None] * len(items))
    clock = time.perf_counter
    for i in order:
        if clock() > stop_at:
            res.complete = False
            break
        if meter is not None:
            meter.tick()
        item = items[i]
        res.attempted += 1
        t0 = res.started[i] = clock()
        try:
            if tracer is None:
                raw = workload.call(kg, item)
            else:
                with tracer.span(f"bench.op.{item.klass}"):
                    raw = workload.call(kg, item)
        except Exception as exc:  # a failing input is counted, not fatal
            res.latencies[i] = clock() - t0
            res.failed += 1
            print(f"{item.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        res.latencies[i] = clock() - t0
        out, ok = workload.result(kg, item, raw)
        res.outputs[i] = out
        res.failed += not ok
    return res


def check_pass(workload, kg: Package, items: list[Item], res: PassResult,
               reference: str | None) -> int:
    """The number of inputs whose output differs from the reference; all
    attempted inputs when the merged output differs from its digest."""
    bad = sum(
        1 for item, out in zip(items, res.outputs)
        if out is not None and not workload.check(kg, item, out)
    )
    if reference is not None and res.complete:
        digest = sha256(workload.pass_output(kg, items, res.outputs))
        if digest != reference:
            print(f"pass output digest {digest} differs from the reference "
                  f"{reference}", file=sys.stderr)
            return res.attempted
    return bad


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_digest(workload: str, size: int, seed: int) -> str | None:
    try:
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return refs.get(workload, {}).get(str(size), {}).get(str(seed))


def build(workload, seed: int, size: int) -> tuple[Package, list[Item]]:
    """Import the package afresh and build the inputs."""
    kg = Package()
    return kg, workload.setup(kg, seed, size)


def timed_setup(workload, seed: int, size: int) -> tuple[Package, list[Item], list[float]]:
    """build() at least SETUP_REPEATS times, and again while less than
    SETUP_MIN_S has gone into it (at most SETUP_MAX_REPEATS times), so a
    cheap set-up still gets a steady median.  The last build is the one
    measured.  Each set-up time is scaled by the machine speed measured on
    either side of it."""
    times = []
    spent = 0.0
    kg = items = None
    while len(times) < SETUP_REPEATS or (spent < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        kg = items = None
        gc.collect()
        before = [calibrate.sample() for _ in range(CAL_WINDOW)]
        t0 = time.perf_counter()
        kg, items = build(workload, seed, size)
        took = time.perf_counter() - t0
        after = [calibrate.sample() for _ in range(CAL_WINDOW)]
        spent += took
        times.append(took * calibrate.NOMINAL_S / statistics.median(before + after))
    return kg, items, times


def stop_time(seconds: float) -> float:
    return time.perf_counter() + min(DEADLINE_FACTOR * seconds, DEADLINE_MAX_S)


def timed_s(res: PassResult) -> float:
    return sum(t for t in res.latencies if t is not None)


def differing(first: PassResult, other: PassResult) -> int:
    """Inputs whose output in `other` differs from their output in `first`."""
    return sum(
        1 for a, b in zip(first.outputs, other.outputs)
        if a is not None and b is not None and a != b
    )


def measure(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    size = workload.size(seconds)
    kg, items, setup_times = timed_setup(workload, seed, size)
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    meter = Speedometer()
    res = run_pass(workload, kg, items, order, stop_time(seconds), meter=meter)
    failed = min(res.attempted, res.failed + check_pass(
        workload, kg, items, res, reference_digest(workload.name, size, seed)))
    runs = [(t, t0) for t, t0 in zip(res.latencies, res.started) if t is not None]
    raw = sorted(t for t, _ in runs)
    scaled = sorted(t * meter.factor_at(t0) for t, t0 in runs)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_gps": (len(scaled) / sum(scaled), "1/s"),
        "latency_ms_p50": (percentile(scaled, 50) * 1e3, "ms"),
        "latency_ms_p90": (percentile(scaled, TAIL_PERCENT) * 1e3, "ms"),
        "ok_frac": ((res.attempted - failed) / res.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "inputs": len(items), "samples": len(scaled), "complete": res.complete,
        "timed_s": sum(raw),
        "speed": calibrate.NOMINAL_S / statistics.median(meter.samples),
        "unscaled": {"throughput_gps": len(raw) / sum(raw),
                     "latency_ms_p50": percentile(raw, 50) * 1e3,
                     "latency_ms_p90": percentile(raw, TAIL_PERCENT) * 1e3},
        "setup_runs_s": setup_times,
    }
    return metrics, info, res.attempted, failed


# -- tracing -----------------------------------------------------------------------

TRACED_MODULES = ("graph", "edgefile", "bruteforce", "matching", "stable",
                  "analysis", "constructions", "verify", "cli")
# Called once per edge inside Graph(); a span there would cost more than
# the work it measures.
UNTRACED = {"graph.normalize_edge"}

TALLIES = {
    "matching.has_blossom": int,
    "stable.maximum_stable_sets": lambda fam: len(fam.sets),
    "matching.enumerate_maximum_matchings": len,
    "analysis.check_certificate_equivalence": lambda v: v.sets_checked,
}

# Layers whose self time is reported as a metric: each runs on every
# workload, so none of these times is structurally zero.
SELF_TIMED = (
    "matching.has_blossom",
    "matching.maximum_matching",
    "stable.stability_number",
    "stable.maximum_stable_sets",
    "analysis.is_edge_addition_stable",
    "graph.with_edge",
)
MODULE_TIMED = ("graph", "matching", "stable", "analysis")
COUNTED = (
    "matching.has_blossom",
    "matching.find_flower",
    "matching.find_posy",
    "matching.maximum_matching",
    "matching.enumerate_maximum_matchings",
    "analysis.check_certificate_equivalence",
    "analysis.is_edge_addition_stable",
    "analysis.full_report",
    "stable.stability_number",
    "stable.stability_after_adding_edge",
    "stable.maximum_stable_sets",
    "stable.certify_max_stable",
    "graph.with_edge",
    "bruteforce.brute_max_stable_sets",
    "bruteforce.brute_stability_number",
    "bruteforce.brute_max_matching_size",
    "edgefile.parse_graph",
    "cli.cmd_analyze",
    "verify.run_checks",
)
TALLY_METRICS = {
    "stable.maximum_stable_sets.sets": "stable.maximum_stable_sets",
    "matching.enumerate_maximum_matchings.matchings": "matching.enumerate_maximum_matchings",
    "analysis.check_certificate_equivalence.pairs": "analysis.check_certificate_equivalence",
}


def trace_targets(kg: Package) -> dict[str, tuple[object, str]]:
    """Every public function defined in a traced module, plus
    Graph.with_edge, keyed by span name."""
    targets = {}
    for short in TRACED_MODULES:
        mod = getattr(kg, short)
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                targets[name] = (mod, attr)
    targets["graph.with_edge"] = (kg.graph.Graph, "with_edge")
    return targets


def install(tracer: Tracer, kg: Package) -> None:
    tracer.patch(kg.modules(), trace_targets(kg), TALLIES)
    # run_checks calls each check through CHECKS_BY_NAME, so a check is
    # wrapped by swapping its entry for a copy whose run is traced.
    by_name = kg.verify.CHECKS_BY_NAME
    for name, check in list(by_name.items()):
        traced = dataclasses.replace(check, run=tracer.wrap(f"verify.check.{name}", check.run))
        tracer.replace(by_name, name, traced)


def layer_metrics(stats: dict[str, LayerStats], untraced_s: float, traced_s: float) -> dict:
    def get(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    m = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (get(name).self_ns / 1e9, "s")
    for short in MODULE_TIMED:
        total = sum(s.self_ns for n, s in stats.items() if n.startswith(short + "."))
        m[f"{short}.self_s"] = (total / 1e9, "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (get(name).calls, "count")
    for metric, name in TALLY_METRICS.items():
        m[metric] = (get(name).tally, "count")
    blossom = get("matching.has_blossom")
    m["matching.has_blossom.hit_ratio"] = (
        blossom.tally / blossom.calls if blossom.calls else 0.0, "ratio")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace_overhead_frac"] = (traced_s / untraced_s, "ratio")
    return m


def profile(stats: dict[str, LayerStats]) -> dict:
    rows = sorted(stats.items(), key=lambda kv: -kv[1].self_ns)
    return {
        name: {"calls": s.calls, "self_s": round(s.self_ns / 1e9, 6),
               "incl_s": round(s.inclusive_ns / 1e9, 6), "tally": s.tally}
        for name, s in rows if s.calls
    }


def measure_traced(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    """One untraced and one traced pass over a third of the inputs a timed
    run of `seconds` makes, so that both passes together take about as long
    as that run."""
    size = workload.size(seconds / 3)
    kg, items = build(workload, seed, size)
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    stop_at = stop_time(seconds)
    plain = run_pass(workload, kg, items, order, stop_at)
    tracer = Tracer()
    with tracer:  # restores every binding install() patched
        install(tracer, kg)
        traced = run_pass(workload, kg, items, order, stop_at, tracer)
    changed = differing(plain, traced)
    if changed:
        print(f"{changed} traced outputs differ from the untraced ones", file=sys.stderr)
    attempted = plain.attempted + traced.attempted
    failed = min(attempted, plain.failed + traced.failed + changed + check_pass(
        workload, kg, items, plain, reference_digest(workload.name, size, seed)))
    stats = tracer.summarize()
    metrics = layer_metrics(stats, timed_s(plain), timed_s(traced))
    groups = {"all": profile(stats)}
    for klass in sorted({item.klass for item in items} - {"all"}):
        groups[klass] = profile(tracer.summarize(root=f"bench.op.{klass}"))
    print(json.dumps({"profile": groups}))
    info = {"inputs": len(items), "complete": plain.complete and traced.complete}
    return metrics, info, attempted, failed


# -- environment and entry point ------------------------------------------------------


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kegraphs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kegraphs" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'kegraphs'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    env = environment(args)
    try:
        if args.trace:
            metrics, info, attempted, failed = measure_traced(workload, args.seed, args.seconds)
        else:
            metrics, info, attempted, failed = measure(workload, args.seed, args.seconds)
    finally:
        workload.cleanup()
    print(json.dumps({"run": {**env, **info}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
