"""Exit codes of `analyze` on mutated graph files.

Seeded mutants of the shipped fixtures, one to three byte-level edits
each, are analyzed in process.  Whatever the bytes, a file is reported
(0), malformed (2) or above the cap (3): never a violation (1) or a bug
(4), and no exception escapes main.  A refusal is one stderr line and no
stdout; a report is one JSON line.
"""

import json
import random
import re
from pathlib import Path

from kegraphs.cli import main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# around int()'s default limit of 4300 digits, and past it
DIGIT_RUNS = (1, 4300, 4301, 5000)


def _flip(rng, data):
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]


def _delete(rng, data):
    at = rng.randrange(len(data))
    return data[:at] + data[at + 1:]


def _insert(rng, data):
    at = rng.randrange(len(data) + 1)
    return data[:at] + bytes([rng.randrange(256)]) + data[at:]


def _duplicate_line(rng, data):
    lines = data.split(b"\n")
    at = rng.randrange(len(lines))
    return b"\n".join(lines[:at + 1] + lines[at:])


def _splice_digits(rng, data):
    numbers = list(re.finditer(rb"[0-9]+", data))
    if not numbers:
        return data
    number = rng.choice(numbers)
    at = rng.randint(number.start(), number.end())
    run = bytes(rng.choice(b"0123456789") for _ in range(rng.choice(DIGIT_RUNS)))
    return data[:at] + run + data[at:]


MUTATIONS = (_flip, _delete, _insert, _duplicate_line, _splice_digits)


def test_every_mutant_exits_by_the_contract(capsys, tmp_path):
    rng = random.Random(55)
    fixtures = sorted(FIXTURE_DIR.glob("*.gr"))
    assert len(fixtures) == 8
    path = tmp_path / "mutant.gr"
    codes = []
    for _ in range(400):
        data = rng.choice(fixtures).read_bytes()
        for _ in range(rng.randint(1, 3)):
            data = rng.choice(MUTATIONS)(rng, data)
        path.write_bytes(data)
        code = main(["analyze", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (data[:200], err)
        if code == 0:
            assert out.endswith("\n") and out.count("\n") == 1 and err == ""
            assert json.loads(out)["source"] == str(path)
        else:
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, data[:200]
        codes.append(code)
    assert set(codes) == {0, 2, 3}
