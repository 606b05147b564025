import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from kegraphs import analysis, bruteforce, verify
from kegraphs.cli import EXIT_INTERNAL, GENERATORS, main
from kegraphs.constructions import complete_bipartite, cycle
from kegraphs.edgefile import format_graph
from kegraphs.graph import Graph, GraphError
from kegraphs.limits import CapExceededError
from kegraphs.stable import CoreReport

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_reports_the_missing_pair_fixture(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE_DIR / "fig1_k4_minus_e.gr"))
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["is_ke"] is True
    assert doc["stability"]["class"] == "not_stable"
    assert doc["anticore_size"] == 2


def test_analyze_three_vertex_path(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE_DIR / "p3.gr"))
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["anticore_size"] == 1 and doc["has_pm"] is False


def test_analyze_multiple_inputs_one_line_each(capsys):
    paths = [str(FIXTURE_DIR / "p3.gr"), str(FIXTURE_DIR / "fig4_g2.gr")]
    code, out, _ = run_cli(capsys, "analyze", *paths)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["stability"]["class"] == "alpha0_plus"


def test_analyze_is_byte_deterministic(capsys, tmp_path):
    target = str(FIXTURE_DIR / "fig4_g1.gr")
    _, first, _ = run_cli(capsys, "analyze", target)
    _, second, _ = run_cli(capsys, "analyze", target)
    assert first == second


def test_analyze_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("p 2 1\ne 0 9\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2 and "line 2" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "no-such-file.gr")
    assert code == 2 and err


def test_non_utf8_input_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_bytes(b"p 2 1\ne 0 1\nc caf\xe9\n")
    for argv in (("analyze", str(bad)),
                 ("generate", "bullet-kp", "--base", str(bad), "--p", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "line 3" in err and "UTF-8" in err and "Traceback" not in err


def test_bullet_kp_on_an_edgeless_base_is_refused(capsys, tmp_path):
    base = tmp_path / "k1.gr"
    base.write_text("p 1 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "generate", "bullet-kp", "--base", str(base),
                             "--p", "2")
    assert code == 2 and out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("p, message", [
    ("2.7", "--p, got 2.7"),
    ("0", "clique order must be positive"),
], ids=["fraction", "zero"])
def test_bullet_kp_refuses_a_clique_order_that_is_not_a_positive_integer(
    capsys, p, message
):
    code, out, err = run_cli(capsys, "generate", "bullet-kp", "--p", p)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("p, attach", [
    ("1", ["0"]),
    ("2", ["0", "1", "2"]),
    ("3", ["0", "1"]),
], ids=["edge-short", "edge-long", "vertex-long"])
def test_bullet_kp_refuses_an_attach_of_the_wrong_length(capsys, p, attach):
    # an edge (two values) for p <= 2, one vertex for p >= 3
    code, out, err = run_cli(capsys, "generate", "bullet-kp", "--p", p,
                             "--attach", *attach)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("generate: ") and "--attach" in err


def test_out_of_memory_is_one_line_and_exit_2(capsys, monkeypatch):
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr("kegraphs.constructions.path", exhausted)
    code, out, err = run_cli(capsys, "generate", "path", "--n", "5")
    assert code == 2 and out == ""
    assert err == "generate: out of memory\n"


@pytest.mark.parametrize("argv", [
    ("analyze", str(FIXTURE_DIR / "p3.gr")),
    ("verify", "--seed", "1", "--count", "1", "--n", "2..3"),
    ("generate", "path", "--n", "3"),
])
def test_out_under_a_missing_directory(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"{argv[0]}: ")


def test_fixtures_out_naming_a_file(capsys, tmp_path):
    existing = tmp_path / "taken"
    existing.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "fixtures", "--out", str(existing))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("fixtures: ")


def test_analyze_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--format", "json", str(FIXTURE_DIR / "p3.gr")])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "--format" in err


def test_internal_cross_check_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(analysis, "check_ke_arithmetic",
                        lambda f: analysis.ArithmeticVerdict(True, False, True))
    code, out, err = run_cli(capsys, "analyze", str(FIXTURE_DIR / "p3.gr"))
    assert code == EXIT_INTERNAL == 4 and out == ""
    assert err == ("analyze: internal cross-check failed: ke-arithmetic: "
                   "ArithmeticVerdict(bounds_hold=True, pm_iff_alpha_equals_mu=False, "
                   "pm_graphs_alpha_mu_iff_ke=True)\n")


def test_witness_check_failure_exit_code(capsys, monkeypatch, tmp_path):
    # 0 and 2 are opposite on C4: joining them leaves the stable set {1, 3}
    monkeypatch.setattr(analysis, "core_report",
                        lambda fam: CoreReport(frozenset({0, 2}), frozenset()))
    c4 = tmp_path / "c4.gr"
    c4.write_text(format_graph(cycle(4)), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(c4))
    assert code == EXIT_INTERNAL == 4 and out == ""
    assert err == "analyze: internal cross-check failed: core pair addition failed to lower alpha\n"


def test_a_route_that_raises_in_analyze_is_exit_4_naming_the_file(capsys, monkeypatch):
    def planted(f):
        raise GraphError("planted")

    monkeypatch.setattr(analysis, "check_ke_arithmetic", planted)
    path = str(FIXTURE_DIR / "p3.gr")
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == EXIT_INTERNAL == 4 and out == ""
    assert err == f"{path}: internal error: GraphError: planted\n"


def test_analyze_cap_exceeded(capsys, tmp_path):
    big = tmp_path / "k25.gr"
    code, _, _ = run_cli(capsys, "generate", "complete", "--n", "25",
                         "--out", str(big))
    assert code == 0
    code, _, err = run_cli(capsys, "analyze", str(big))
    assert code == 3 and "cap" in err


def test_analyze_refuses_an_order_above_the_cap(capsys, tmp_path):
    big = tmp_path / "p17.gr"
    big.write_text("p 17 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(big))
    assert code == 3 and out == ""
    assert err == f"{big}: graph file refuses n=17 above cap 16\n"


def test_analyze_refuses_a_huge_order_before_building_the_graph(
    capsys, tmp_path, monkeypatch
):
    def build(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("kegraphs.edgefile.Graph", build)
    big = tmp_path / "huge.gr"
    big.write_text("p 99999999999 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(big))
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "above cap 16" in err


def test_bullet_kp_refuses_a_base_above_the_cap(capsys, tmp_path):
    base = tmp_path / "p17.gr"
    base.write_text("p 17 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "generate", "bullet-kp", "--base", str(base),
                             "--p", "3")
    assert code == 3 and out == ""
    assert err == "generate: graph file refuses n=17 above cap 16\n"


def test_bullet_kp_refuses_a_huge_base_before_building_the_graph(
    capsys, tmp_path, monkeypatch
):
    def build(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("kegraphs.edgefile.Graph", build)
    base = tmp_path / "huge.gr"
    base.write_text("p 99999999999 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "generate", "bullet-kp", "--base", str(base),
                             "--p", "3")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "above cap 16" in err


def test_analyze_has_no_cap_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--cap", "16", str(FIXTURE_DIR / "p3.gr")])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and "--cap" in err and "Traceback" not in err


def test_verify_clean_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--count", "3",
                           "--n", "2..6")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_self_test_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--count", "2",
                           "--n", "2..4", "--self-test")
    assert code == 1
    assert "RESULT: FAIL" in out and "self-test" in out
    # the injected row takes the ordinary row path: counted in the table,
    # and its failure lines carry the graph like every other FAILURE line
    assert "\nself-test                              6       0       6\n" in out
    assert "\nFAILURE [self-test] n2-0: injected failure\np 2 1\n" in out


def test_a_row_that_raises_in_verify_is_a_failure_of_that_row(capsys, monkeypatch):
    def planted(stable_sets):
        raise GraphError("planted")

    monkeypatch.setattr(bruteforce, "largest_stable_sets", planted)
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--count", "1",
                             "--n", "2..3")
    assert code == 1 and err == ""
    # both graphs fail the one planted row, and every other row still runs
    assert "\nomega-oracle                           2       0       2\n" in out
    assert "\nRESULT: FAIL (2 violations over 2 graphs)\n" in out
    assert "\nFAILURE [omega-oracle] n2-0: raised GraphError: planted\np 2 1\n" in out


def test_a_row_that_refuses_above_a_cap_still_ends_verify(capsys, monkeypatch):
    def planted(stable_sets):
        raise CapExceededError("planted refusal")

    monkeypatch.setattr(bruteforce, "largest_stable_sets", planted)
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--count", "1",
                             "--n", "2..3")
    assert code == 3 and out == "" and err == "verify: planted refusal\n"


def test_verify_cap_exceeded(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--count", "1",
                             "--n", "17..17")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "cap" in err and "Traceback" not in err


@pytest.mark.parametrize("corpus", ["general", "bipartite"])
def test_verify_refuses_an_order_above_the_cap_up_front(capsys, monkeypatch, corpus):
    def refuse(*args):
        raise RuntimeError("a corpus was built")

    monkeypatch.setattr(verify, "connected_corpus", refuse)
    monkeypatch.setattr(verify, "bipartite_corpus", refuse)
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--count", "1",
                             "--n", "16..17", "--corpus", corpus)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "cap 16" in err


def test_verify_runs_up_to_the_enumeration_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--count", "3",
                             "--n", "15..16")
    assert code == 0 and err == ""
    assert "RESULT: PASS (0 violations over 6 graphs)" in out


def test_verify_single_vertex_graphs_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--count", "2",
                           "--n", "1..1")
    assert code == 0
    assert "RESULT: PASS" in out and "FAILURE" not in out


@pytest.mark.parametrize("argv", [
    ("--count", "0"),
    ("--count", "-3"),
    ("--n", "1..1", "--corpus", "bipartite"),
    ("--n", "5..8", "--corpus", "bipartite"),
])
def test_verify_rejects_unusable_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "1", *argv])
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "error" in err and "Traceback" not in err


def test_verify_bipartite_corpus(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "5", "--count", "20",
                           "--n", "2..8", "--corpus", "bipartite")
    assert code == 0
    assert "bipartite-equivalences" in out


def test_generate_fixture_matches_shipped_bytes(capsys):
    code, out, _ = run_cli(capsys, "generate", "fixture", "fig4_g1")
    assert code == 0
    assert out == (FIXTURE_DIR / "fig4_g1.gr").read_text(encoding="utf-8")


def test_generate_random_tree(capsys):
    code, out, _ = run_cli(capsys, "generate", "random-tree", "--n", "9",
                           "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p 9 8" and len(lines) == 9


def test_generate_is_deterministic(capsys):
    args = ("generate", "random-graph", "--n", "10", "--p", "0.4", "--seed", "11")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_generate_bullet_kp(capsys):
    from kegraphs.analysis import Facts, classify_alpha_plus
    from kegraphs.edgefile import parse_graph

    code, out, _ = run_cli(capsys, "generate", "bullet-kp", "--base", "c4",
                           "--p", "3")
    assert code == 0
    g = parse_graph(out)
    assert g.n == 7
    assert classify_alpha_plus(Facts(g)).kind == "alpha0_plus"


def test_generate_requires_seed_for_random_kinds(capsys):
    code, _, err = run_cli(capsys, "generate", "random-tree", "--n", "5")
    assert code == 2 and "seed" in err


def test_generate_unknown_fixture(capsys):
    code, out, err = run_cli(capsys, "generate", "fixture", "nope")
    assert code == 2 and out == ""
    assert err == "generate: unknown fixture 'nope'\n"


def test_generate_random_connected_refuses_a_bad_edge_probability(capsys):
    code, out, err = run_cli(capsys, "generate", "random-connected", "--n", "4",
                             "--seed", "1", "--p", "2")
    assert code == 2 and out == ""
    assert err == "generate: need n >= 0 and edge probability in [0, 1]\n"


def test_generate_help_lists_every_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--help"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0
    assert "{" + ",".join(GENERATORS) + "}" in out


def test_generate_names_the_options_a_kind_needs(capsys):
    code, out, err = run_cli(capsys, "generate", "random-bipartite", "--n1", "3")
    assert code == 2 and out == ""
    assert err == "generate: random-bipartite needs --n1 and --n2 and --seed\n"


def test_fixtures_command_writes_all_files(capsys, tmp_path):
    out_dir = tmp_path / "fx"
    code, out, _ = run_cli(capsys, "fixtures", "--out", str(out_dir))
    assert code == 0
    for f in FIXTURE_DIR.glob("*.gr"):
        assert (out_dir / f.name).read_text(encoding="utf-8") == f.read_text(
            encoding="utf-8"
        )


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "kegraphs.cli", "generate", "path", "--n", "3"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout == "p 3 2\ne 0 1\ne 1 2\n"


def test_the_package_runs_as_a_module(tmp_path):
    # python -m kegraphs is cli.main, and main's exit code is the process's
    def run(*args):
        done = subprocess.run([sys.executable, "-m", "kegraphs", *args],
                              capture_output=True, text=True, check=False)
        return done.returncode, done.stdout

    assert run("generate", "path", "--n", "3") == (0, "p 3 2\ne 0 1\ne 1 2\n")
    assert run("analyze", str(tmp_path / "none.gr")) == (2, "")


# sha256 of the stdout of analyze and verify, recorded before the per-graph
# Facts cache replaced per-verdict recomputation.  Refactors must keep every
# byte; a deliberate change of the output formats has to update these.
ANALYZE_INPUTS = {
    "k8_8": complete_bipartite(8, 8),
    "edgeless5": Graph(5),
    "p3_plus_c4": Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
}
ANALYZE_SHA256 = {
    "fig1_k4_minus_e": "ede1a1e2ea0b399cb29f4735634dae4700ce08b0fec8c921ff24e1a240c67112",
    "fig1_seven": "c6523a6842c8d39f621614dbe019b2da77ee55402e35afc7bbb1a2d3a411cbfd",
    "fig2_blossom": "75ceb3bf07e1e321a3476396d6bffea6804cff682ed48e13406126d3c6fe5060",
    "fig3_nonstable": "217c32d415777b1c0333e0a8807812f3cf3aca91bcd879846ac25d4cdc531ae6",
    "fig4_g1": "07ac6960db927dbd1a4edd5a3a191802d62d5280c7aab35d8472d736ede4d1f0",
    "fig4_g2": "e78dab2ef16ecfef2301c1d15c508310ff145345b7ef304692c391ff16a68188",
    "fig5_non_ke": "369cb6b6679975d16bf66fa43842be41d57f6382536aae84c00d1894bbeb4f40",
    "p3": "6caa1dbe3b230c0c6385473f8e0b2e7162b565e75cb26eaac5889f8df7112d33",
    "k8_8": "3984d2b44fba18c10ed71a30b4661ab16296e8fbb26853deda75a66a56d0c9b5",
    "edgeless5": "4889efbc3e2a467799d535a8a934d1142c49031ca6d2f879d8a3c24070d630ad",
    "p3_plus_c4": "5d85754fcf78b54758930432d123500877e272fd908ea86343ca6ffa7534e08c",
}
VERIFY_SHA256 = {
    "general": (
        ("--seed", "7", "--count", "20", "--n", "2..8"),
        "77280543922cb2a1d0203803486ed71df6b491ac1490f41285e0931800b9a76e",
    ),
    "bipartite": (
        ("--seed", "5", "--count", "50", "--n", "2..10", "--corpus", "bipartite"),
        "939d133d3f98aae68ae6e717555c969f6ef23228f17e858834fa642da20641f9",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_fixture_has_a_pinned_report():
    assert {p.stem for p in FIXTURE_DIR.glob("*.gr")} <= set(ANALYZE_SHA256)


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_output_bytes_are_pinned(capsys, tmp_path, monkeypatch, name):
    fixture = FIXTURE_DIR / f"{name}.gr"
    if fixture.exists():
        text = fixture.read_text(encoding="utf-8")
    else:
        text = format_graph(ANALYZE_INPUTS[name])
    (tmp_path / f"{name}.gr").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the report records the path as given
    code, out, _ = run_cli(capsys, "analyze", f"{name}.gr")
    assert code == 0
    assert _sha256(out) == ANALYZE_SHA256[name]


@pytest.mark.parametrize("corpus", sorted(VERIFY_SHA256))
def test_verify_output_bytes_are_pinned(capsys, corpus):
    argv, digest = VERIFY_SHA256[corpus]
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert _sha256(out) == digest
