"""Golden CLI output: stdout and exit code of every subcommand, byte for byte.

cli_golden.json holds the expected stdout and exit code of each run in RUNS
over the square, L-shape and hollow-triangle fixtures.  It is written by
running this module as a script,

    PYTHONPATH=src python tests/test_golden.py > tests/cli_golden.json

which is only right when a change of output is intended; any other change
to the library must leave every run identical.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from simplat import cli

from helpers import HOLLOW_TRIANGLE_DOC, L_SHAPE_DOC, UNIT_SQUARE_DOC

GOLDEN = Path(__file__).with_name("cli_golden.json")

# The file stem becomes the report's object_id, so the names are part of the
# expected output.
FIXTURES = {"square": UNIT_SQUARE_DOC, "lshape": L_SHAPE_DOC,
            "hollow": HOLLOW_TRIANGLE_DOC}


def _runs() -> list[list[str]]:
    runs = []
    for name in FIXTURES:
        # n = 16 takes an ehrhart sub-check, n = 60 the additive count
        for n in (2, 6, 16, 60):
            runs.append(["verify", name, "--modulus", str(n)])
        # t = 250 takes the additive count
        for t in (3, 250):
            runs.append(["count", name, "--dilate", str(t)])
        runs.append(["probe", name, "--modulus", "6", "--tmax", "8"])
        runs.append(["ehrhart", name, "--simplex", "0"])
        runs.append(["hstar", name, "--simplex", "0"])
    runs.append(["fuzz", "--dim", "2", "--grid", "1", "--modulus", "6",
                 "--trials", "4", "--seed", "1"])
    runs.append(["gen", "--dim", "2", "--grid", "2", "--keep", "3/4", "--seed", "5"])
    runs.append(["tmin", "--dim", "3", "--modulus", "12"])
    return runs


RUNS = _runs()


def _run(argv: list[str], folder: Path) -> dict:
    """Run one CLI command with fixture names replaced by document paths."""
    args = [str(folder / f"{a}.json") if a in FIXTURES else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _write_fixtures(folder: Path) -> None:
    for name, doc in FIXTURES.items():
        (folder / f"{name}.json").write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    _write_fixtures(folder)
    return folder


@pytest.fixture(scope="module")
def golden():
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(map(tuple, RUNS))


@pytest.mark.parametrize("argv", RUNS,
                         ids=["-".join(a.lstrip("-") for a in r).replace("/", "_")
                              for r in RUNS])
def test_stdout_and_exit_code_unchanged(argv, fixture_dir, golden):
    assert _run(argv, fixture_dir) == golden[tuple(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_fixtures(Path(tmp))
        records = [_run(argv, Path(tmp)) for argv in RUNS]
    sys.stdout.write(json.dumps(records, indent=1) + "\n")
