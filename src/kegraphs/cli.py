"""Command-line front end.

Subcommands: analyze graph files into JSON reports, verify the structural
claims over seeded random corpora, generate graphs and fixtures, and dump
the named fixtures.  Exit codes: 0 success, 1 verification violation,
2 parse/usage error, 3 cap exceeded.

All randomness flows from --seed; no invocation reads the clock or OS
entropy, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import constructions, verify
from .analysis import full_report
from .edgefile import GraphFormatError, format_graph, parse_graph
from .graph import Graph, GraphError
from .limits import CapExceededError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range like 2..10, got {text!r}"
        ) from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return lo, hi


# Built on first use and then reused: a build takes about 1 ms (a terminal
# size probe per argument), a tenth of analyzing one 16-vertex graph.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kegraphs",
        description="Koenig-Egervary graph analysis and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze edge-list files")
    p_analyze.add_argument("paths", nargs="+", help="graph files (p/e format)")
    p_analyze.add_argument("--out", default=None, help="write reports here")
    p_analyze.add_argument("--format", choices=["json"], default="json")

    p_verify = sub.add_parser("verify", help="cross-validate the structural claims")
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--count", type=int, default=50,
                          help="graphs per size (general) or total (bipartite)")
    p_verify.add_argument("--n", type=_parse_range, default=(2, 8),
                          metavar="LO..HI", help="order range, e.g. 2..10")
    p_verify.add_argument("--corpus", choices=["general", "bipartite"],
                          default="general")
    p_verify.add_argument("--out", default=None, help="also write the summary here")
    p_verify.add_argument("--self-test", action="store_true",
                          help="inject a failing check to exercise the harness")

    p_generate = sub.add_parser("generate", help="emit graphs in the edge-list format")
    p_generate.add_argument("kind", help="generator or 'fixture'")
    p_generate.add_argument("name", nargs="?", default=None,
                            help="fixture name when kind is 'fixture'")
    p_generate.add_argument("--seed", type=int, default=None)
    p_generate.add_argument("--n", type=int, default=None)
    p_generate.add_argument("--p", type=float, default=0.5,
                            help="edge probability, or clique order for bullet-kp")
    p_generate.add_argument("--n1", type=int, default=None)
    p_generate.add_argument("--n2", type=int, default=None)
    p_generate.add_argument("--side", type=int, default=None)
    p_generate.add_argument("--extra", type=float, default=0.3)
    p_generate.add_argument("--a", type=int, default=None)
    p_generate.add_argument("--b", type=int, default=None)
    p_generate.add_argument("--base", default="c4",
                            help="bullet-kp base: c4, k2, p4, or a file path")
    p_generate.add_argument("--attach", type=int, nargs="+", default=None,
                            help="bullet-kp attachment (edge for p<=2, vertex for p>=3)")
    p_generate.add_argument("--variant", type=int, default=1, choices=[0, 1])
    p_generate.add_argument("--out", default=None, help="write the graph here")

    p_fixtures = sub.add_parser("fixtures", help="write the named fixtures as files")
    p_fixtures.add_argument("--out", default="fixtures", help="target directory")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_analyze(args) -> int:
    docs = []
    for path in args.paths:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        try:
            g = parse_graph(text)
        except GraphFormatError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        try:
            report = full_report(g)
        except CapExceededError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_CAP
        doc = {"source": path}
        doc.update(report.to_json_dict())
        docs.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    _emit("".join(d + "\n" for d in docs), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    lo, hi = args.n
    if args.corpus == "general":
        graphs = verify.connected_corpus(args.seed, args.count, lo, hi)
    else:
        graphs = verify.bipartite_corpus(args.seed, args.count, hi)
    try:
        summary = verify.run_checks(graphs, inject_failure=args.self_test)
    except CapExceededError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_CAP
    lines = [summary.table()]
    for name in sorted(summary.checks):
        for failure in summary.checks[name].failures:
            lines.append(f"FAILURE [{name}] {failure}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK if summary.violations == 0 else EXIT_VIOLATION


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphError(message)


_BULLET_BASES = {
    "c4": lambda: constructions.cycle(4),
    "k2": lambda: constructions.complete(2),
    "p4": lambda: constructions.path(4),
}


def _generate_graph(args) -> Graph:
    kind = args.kind
    need_seed = kind.startswith("random-")
    _require(not (need_seed and args.seed is None), f"{kind} requires --seed")
    if kind == "fixture":
        _require(args.name is not None, "fixture kind needs a fixture name")
        return constructions.fixture_by_name(args.name).graph
    if kind == "path":
        _require(args.n is not None, "path needs --n")
        return constructions.path(args.n)
    if kind == "cycle":
        _require(args.n is not None, "cycle needs --n")
        return constructions.cycle(args.n)
    if kind == "complete":
        _require(args.n is not None, "complete needs --n")
        return constructions.complete(args.n)
    if kind == "complete-bipartite":
        _require(args.a is not None and args.b is not None,
                 "complete-bipartite needs --a and --b")
        return constructions.complete_bipartite(args.a, args.b)
    if kind == "random-graph":
        _require(args.n is not None, "random-graph needs --n")
        return constructions.random_graph(args.n, args.p, args.seed)
    if kind == "random-connected":
        _require(args.n is not None, "random-connected needs --n")
        return constructions.random_connected_graph(args.n, args.p, args.seed)
    if kind == "random-tree":
        _require(args.n is not None, "random-tree needs --n")
        return constructions.random_tree(args.n, args.seed)
    if kind == "random-bipartite":
        _require(args.n1 is not None and args.n2 is not None,
                 "random-bipartite needs --n1 and --n2")
        return constructions.random_bipartite(args.n1, args.n2, args.p, args.seed)
    if kind == "random-bipartite-pm":
        _require(args.side is not None, "random-bipartite-pm needs --side")
        return constructions.random_bipartite_with_pm(args.side, args.extra, args.seed)
    if kind == "non-ke-family":
        _require(args.n is not None, "non-ke-family needs --n")
        return constructions.non_ke_alpha_plus_family(args.n, args.variant)
    if kind == "bullet-kp":
        base_key = args.base.lower()
        if base_key in _BULLET_BASES:
            base = _BULLET_BASES[base_key]()
        else:
            base = parse_graph(Path(args.base).read_text(encoding="utf-8"))
        p = int(args.p)
        _require(p >= 1, "bullet-kp needs --p >= 1")
        if args.attach is not None:
            attach = tuple(args.attach) if p <= 2 else args.attach[0]
        elif p <= 2:
            from .matching import maximum_matching

            attach = min(maximum_matching(base))
        else:
            attach = 0
        return constructions.bullet_kp(base, p, attach)
    raise GraphError(f"unknown generator kind {kind!r}")


def cmd_generate(args) -> int:
    try:
        g = _generate_graph(args)
    except (GraphError, GraphFormatError, KeyError, OSError) as exc:
        print(f"generate: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(format_graph(g), args.out)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    target = Path(args.out)
    target.mkdir(parents=True, exist_ok=True)
    rows = []
    for f in constructions.fixtures():
        path = target / f"{f.name}.gr"
        path.write_text(format_graph(f.graph), encoding="utf-8")
        rows.append(f"{f.name:<18} n={f.graph.n:<3} m={f.graph.m:<3} -> {path}")
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.count < 1:
            parser.error("--count must be at least 1")
        if args.corpus == "bipartite" and args.n[1] < 2:
            parser.error("the bipartite corpus needs --n with HI >= 2")
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "generate":
        return cmd_generate(args)
    return cmd_fixtures(args)


if __name__ == "__main__":
    sys.exit(main())
