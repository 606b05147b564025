import json
import subprocess
import sys
from pathlib import Path

from kegraphs.cli import main

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


def test_analyze_cap_exceeded(capsys, tmp_path):
    big = tmp_path / "k25.gr"
    code, _, _ = run_cli(capsys, "generate", "complete", "--n", "25",
                         "--out", str(big))
    assert code == 0
    code, _, err = run_cli(capsys, "analyze", str(big))
    assert code == 3 and "cap" in err


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


def test_verify_cap_exceeded(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--count", "1",
                             "--n", "17..17")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "cap" in err and "Traceback" not in err


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
    from kegraphs.analysis import classify_alpha_plus
    from kegraphs.edgefile import parse_graph

    code, out, _ = run_cli(capsys, "generate", "bullet-kp", "--base", "c4",
                           "--p", "3")
    assert code == 0
    g = parse_graph(out)
    assert g.n == 7
    assert classify_alpha_plus(g).kind == "alpha0_plus"


def test_generate_requires_seed_for_random_kinds(capsys):
    code, _, err = run_cli(capsys, "generate", "random-tree", "--n", "5")
    assert code == 2 and "seed" in err


def test_generate_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "generate", "fixture", "nope")
    assert code == 2 and err


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
