"""Command-line front end.

Subcommands: analyze graph files into JSON reports, verify the structural
claims over seeded random corpora, generate graphs (`generate --help` lists
the kinds) and dump the named fixtures.  Exit codes: 0 success, 1
verification violation, 2 usage, parse or I/O error (reading a graph file or
writing --out) or out of memory (a generated graph too large to build), 3
cap exceeded, 4 internal cross-check failed or a route raised while
analyzing a graph that was read cleanly (a bug).  verify records a row that
raises as a failure of that row, so it ends with 1 instead.

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
from .edgefile import GraphFormatError, format_graph, read_graph, write_graph
from .graph import Graph, GraphError
from .limits import DEFAULT_OMEGA_CAP, CapExceededError, check_cap
from .matching import maximum_matching

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


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


def _bullet_kp(args) -> Graph:
    # --p is a float option (an edge probability for the random kinds)
    if not args.p.is_integer():
        raise GraphError(f"bullet-kp needs a whole clique order --p, got {args.p:g}")
    p = int(args.p)
    named = {"c4": constructions.cycle(4), "k2": constructions.complete(2),
             "p4": constructions.path(4)}
    # bullet_kp classifies its base through the maximum stable sets, which
    # refuse above the cap anyway: refuse a larger base at its p line
    base = named.get(args.base.lower()) or read_graph(args.base, DEFAULT_OMEGA_CAP)
    if args.attach is None:
        attach = min(maximum_matching(base), default=None) if p <= 2 else 0
    elif len(args.attach) != (2 if p <= 2 else 1):
        want = "an edge a b" if p <= 2 else "one vertex"
        raise GraphError(f"bullet-kp --p {p} attaches to {want}, got --attach {args.attach}")
    else:
        attach = tuple(args.attach) if p <= 2 else args.attach[0]
    return constructions.bullet_kp(base, p, attach)


# kind -> (the options it needs, builder)
GENERATORS = {
    "fixture": (("name",), lambda a: constructions.fixture_by_name(a.name).graph),
    "path": (("--n",), lambda a: constructions.path(a.n)),
    "cycle": (("--n",), lambda a: constructions.cycle(a.n)),
    "complete": (("--n",), lambda a: constructions.complete(a.n)),
    "complete-bipartite": (("--a", "--b"), lambda a: (
        constructions.complete_bipartite(a.a, a.b))),
    "random-graph": (("--n", "--seed"), lambda a: (
        constructions.random_graph(a.n, a.p, a.seed))),
    "random-connected": (("--n", "--seed"), lambda a: (
        constructions.random_connected_graph(a.n, a.p, a.seed))),
    "random-tree": (("--n", "--seed"), lambda a: constructions.random_tree(a.n, a.seed)),
    "random-bipartite": (("--n1", "--n2", "--seed"), lambda a: (
        constructions.random_bipartite(a.n1, a.n2, a.p, a.seed))),
    "random-bipartite-pm": (("--side", "--seed"), lambda a: (
        constructions.random_bipartite_with_pm(a.side, a.extra, a.seed))),
    "non-ke-family": (("--n",), lambda a: (
        constructions.non_ke_alpha_plus_family(a.n, a.variant))),
    "bullet-kp": ((), _bullet_kp),
}


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
    p_generate.add_argument("kind", choices=GENERATORS, help="generator")
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
            # refused at the p line, before a graph above the cap is built
            g = read_graph(path, DEFAULT_OMEGA_CAP)
            try:
                report = full_report(g)
            except (CapExceededError, AssertionError, MemoryError):
                raise  # exit 3 below; main reports the others (4 and 2)
            except Exception as exc:  # a route that raises is a bug too
                print(f"{path}: internal error: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                return EXIT_INTERNAL
        except GraphFormatError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except CapExceededError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_CAP
        doc = {"source": path, **report}
        docs.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    _emit("".join(d + "\n" for d in docs), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    lo, hi = args.n
    try:
        check_cap(hi, DEFAULT_OMEGA_CAP, "--n")
        if args.corpus == "general":
            graphs = verify.connected_corpus(args.seed, args.count, lo, hi)
        else:
            graphs = verify.bipartite_corpus(args.seed, args.count, hi)
        summary = verify.run_checks(graphs, inject_failure=args.self_test)
    except CapExceededError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_CAP
    lines = [summary.table()]
    for name in sorted(summary.checks):
        for failure in summary.checks[name].failures:
            lines.append(f"FAILURE [{name}] {failure}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        _emit(text, args.out)
    sys.stdout.write(text)
    return EXIT_OK if summary.violations == 0 else EXIT_VIOLATION


def cmd_generate(args) -> int:
    needs, build = GENERATORS[args.kind]
    try:
        if any(getattr(args, opt.lstrip("-")) is None for opt in needs):
            raise GraphError(f"{args.kind} needs {' and '.join(needs)}")
        g = build(args)
    except (GraphError, GraphFormatError, KeyError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"generate: {message}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"generate: {exc}", file=sys.stderr)
        return EXIT_CAP
    _emit(format_graph(g), args.out)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    target = Path(args.out)
    target.mkdir(parents=True, exist_ok=True)
    rows = []
    for f in constructions.fixtures():
        path = target / f"{f.name}.gr"
        write_graph(path, f.graph)
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
        # the corpus draws orders 2..HI; cmd_verify refuses an HI above the cap
        if args.corpus == "bipartite" and args.n[0] > 2 and args.n[1] <= DEFAULT_OMEGA_CAP:
            parser.error("the bipartite corpus needs --n with LO <= 2")
    # Dispatch through the module names, so that rebinding cmd_* reaches it.
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "generate":
            return cmd_generate(args)
        return cmd_fixtures(args)
    except OSError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        print(f"{args.command}: out of memory", file=sys.stderr)
        return EXIT_PARSE
    except AssertionError as exc:  # TheoremViolationError among them
        print(f"{args.command}: internal cross-check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
