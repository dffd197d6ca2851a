"""Command-line interface: subcommands, JSON output, exit codes."""

from __future__ import annotations

import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplat import cli, count_method, generate_complex, load_complex
from simplat.documents import (MAX_SAFE_INT, complex_to_document, document_to_json,
                               parse_document)
from simplat.errors import IntegrityError, ParseError

from helpers import (HOLLOW_TRIANGLE_DOC, L_SHAPE_DOC, MIXED_DOC, NOT_UTF8,
                     UNIT_SEGMENT_DOC, UNIT_SQUARE_DOC, UNREADABLE)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(UNIT_SQUARE_DOC))
    return str(path)


@pytest.fixture
def l_shape_file(tmp_path):
    path = tmp_path / "lshape.json"
    path.write_text(json.dumps(L_SHAPE_DOC))
    return str(path)


@pytest.fixture
def empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ambient_dim": 2, "vertices": [],
                                "maximal_simplices": []}))
    return str(path)


def segment_file(tmp_path, end):
    """A document whose one maximal simplex is the segment from 0 to end."""
    path = tmp_path / "segment.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "vertices": [[0, 0], list(end)],
        "maximal_simplices": [[0, 1]],
    }))
    return str(path)


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_square_dilated(self, capsys, square_file):
        code, out, err = run(capsys, "count", square_file, "--dilate", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 25
        assert payload["dilation"] == 4
        assert payload["method"] == "enumeration"
        assert payload["object_id"] == "square"
        assert "25" in err

    def test_large_dilation_uses_additive_path(self, capsys, square_file):
        code, out, _ = run(capsys, "count", square_file, "--dilate", "5000")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 5001**2
        assert payload["method"] == "additive"

    def test_empty_complex(self, capsys, empty_file):
        # no face: the estimate is 0, so the enumeration branch counts 0
        code, out, _ = run(capsys, "count", empty_file, "--dilate", "250")
        assert code == 0
        assert json.loads(out) == {"count": 0, "dilation": 250,
                                   "method": "enumeration", "object_id": "empty"}

    def test_primitive_segment_with_a_wide_box(self, capsys, tmp_path):
        # 1000001 * 2 box points, but only the two endpoints are lattice points
        code, out, _ = run(capsys, "count", segment_file(tmp_path, (10**6, 1)),
                           "--dilate", "1")
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_dilate_flag_required(self, capsys, square_file):
        code, _, err = run(capsys, "count", square_file)
        assert code == 2
        assert "--dilate" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "count", str(tmp_path / "nope.json"),
                           "--dilate", "2")
        assert code == 2
        assert err.strip()

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 2}))
        code, _, _ = run(capsys, "count", str(path), "--dilate", "2")
        assert code == 2

    def test_overlapping_complex_rejected(self, capsys, tmp_path):
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps({
            "ambient_dim": 1,
            "vertices": [[0], [2], [1], [3]],
            "maximal_simplices": [[0, 1], [2, 3]],
        }))
        code, _, err = run(capsys, "count", str(path), "--dilate", "1")
        assert code == 2
        assert "common face" in err


class TestEhrhart:
    def test_first_simplex(self, capsys, square_file):
        code, out, _ = run(capsys, "ehrhart", square_file, "--simplex", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["1", "3/2", "1/2"]
        assert payload["degree"] == 2
        assert payload["vertices"] == [[0, 0], [1, 0], [0, 1]]

    def test_simplex_index_out_of_range(self, capsys, square_file):
        code, _, err = run(capsys, "ehrhart", square_file, "--simplex", "9")
        assert code == 2
        assert "simplex" in err

    def test_primitive_segment(self, capsys, tmp_path):
        code, out, _ = run(capsys, "ehrhart", segment_file(tmp_path, (30000000, 1)),
                           "--simplex", "0")
        assert code == 0
        assert json.loads(out)["coefficients"] == ["1", "1"]

    def test_resource_limit(self, capsys, tmp_path):
        # 30000001 lattice points on the segment, over the 10^7 budget
        code, _, err = run(capsys, "ehrhart", segment_file(tmp_path, (30000000, 0)),
                           "--simplex", "0")
        assert code == 3
        assert err.strip()


class TestHstar:
    def test_unimodular_triangle(self, capsys, square_file):
        code, out, _ = run(capsys, "hstar", square_file, "--simplex", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["hstar"] == [1, 0, 0]
        assert payload["coefficients"] == ["1", "3/2", "1/2"]

    def test_triangle_of_volume_5(self, capsys, tmp_path):
        # the triangle (0,0), (3,1), (1,2) has area A = 5/2 and B = 3
        # boundary points, so Pick gives A t^2 + (B/2) t + 1, a check
        # independent of the h* engine
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(MIXED_DOC))
        want = ["1", "3/2", "5/2"]
        code, out, _ = run(capsys, "hstar", str(path), "--simplex", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["hstar"] == [1, 2, 2]
        assert payload["coefficients"] == want
        code, out, _ = run(capsys, "ehrhart", str(path), "--simplex", "0")
        assert code == 0
        assert json.loads(out)["coefficients"] == want


class TestCostModelBoundary:
    """The segment [0, L] in Z^1 has the enumeration estimate L t + 1 at
    dilation t, so the method turns additive one step past the budget of
    20,000 box points, on count and verify alike."""

    @pytest.mark.parametrize("length, argv, count, method", [
        (1, ("count", "--dilate", "19999"), 20_000, "enumeration"),
        (1, ("count", "--dilate", "20000"), 20_001, "additive"),
        (2857, ("verify", "--modulus", "7"), 20_000, "enumeration"),
        (10_000, ("verify", "--modulus", "2"), 20_001, "additive"),
    ])
    def test_method_at_the_budget(self, capsys, tmp_path, length, argv, count, method):
        doc = {"ambient_dim": 1, "vertices": [[0], [length]],
               "maximal_simplices": [[0, 1]]}
        path = tmp_path / "segment.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        payload = json.loads(out)
        assert (payload["count"], payload["method"]) == (count, method)
        assert count_method(load_complex(doc), payload["dilation"]) == method


class TestTmin:
    def test_plan(self, capsys):
        code, out, _ = run(capsys, "tmin", "--dim", "2", "--modulus", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["dilation"] == 12
        assert [t["prime"] for t in payload["terms"]] == [2, 3]

    def test_bad_modulus(self, capsys):
        code, _, _ = run(capsys, "tmin", "--dim", "2", "--modulus", "1")
        assert code == 2


class TestVerify:
    def test_square(self, capsys, square_file):
        code, out, err = run(capsys, "verify", square_file, "--modulus", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["count"] == 25
        assert payload["count_residue"] == payload["euler_residue"] == 1
        assert all(s["passed"] for s in payload["subchecks"])
        assert "pass" in err

    def test_l_shape_every_small_modulus(self, capsys, l_shape_file):
        for n in (2, 3, 4, 5, 6, 12):
            code, out, _ = run(capsys, "verify", l_shape_file,
                               "--modulus", str(n))
            assert code == 0
            assert json.loads(out)["verdict"] == "pass"

    def test_empty_complex(self, capsys, empty_file):
        code, out, _ = run(capsys, "verify", empty_file, "--modulus", "6")
        assert code == 0
        payload = json.loads(out)
        assert (payload["count"], payload["euler"], payload["dilation"]) == (0, 0, 12)
        assert payload["method"] == "enumeration"
        assert payload["subchecks"] == []
        assert payload["verdict"] == "pass"


class TestProbe:
    def test_square_rows(self, capsys, square_file):
        code, out, _ = run(capsys, "probe", square_file,
                           "--modulus", "2", "--tmax", "4")
        assert code == 0
        payload = json.loads(out)
        assert [(r["dilation"], r["count"], r["congruent"])
                for r in payload["rows"]] == [
            (1, 4, False), (2, 9, True), (3, 16, False), (4, 25, True)]
        assert payload["planned_dilation"] == 4

    def test_past_the_row_cap_exits_3(self, capsys, square_file):
        # without the cap this table ran for minutes, its memory climbing
        code, out, err = run(capsys, "probe", square_file,
                             "--modulus", "6", "--tmax", "100000000000")
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: probe would count 100000000000 rows")


class TestGen:
    def test_document_loads_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--dim", "2", "--grid", "2",
                           "--keep", "3/4", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"ambient_dim", "vertices", "maximal_simplices"}
        path = tmp_path / "gen.json"
        path.write_text(out)
        code2, out2, _ = run(capsys, "count", str(path), "--dilate", "2")
        assert code2 == 0
        assert json.loads(out2)["count"] > 0

    def test_full_keep_grid(self, capsys):
        code, out, _ = run(capsys, "gen", "--dim", "1", "--grid", "3",
                           "--keep", "1", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["maximal_simplices"] == [[0, 1], [1, 2], [2, 3]]

    def test_decimal_keep_is_exact(self, capsys):
        # "0.5" parses as the exact rational 1/2, not a float
        code, _, _ = run(capsys, "gen", "--dim", "1", "--grid", "1",
                         "--keep", "0.5", "--seed", "0")
        assert code == 0

    def test_bad_keep(self, capsys):
        for bad in ("2", "-1/2", "1/0", "abc"):
            code, _, _ = run(capsys, "gen", "--dim", "1", "--grid", "1",
                             "--keep", bad, "--seed", "0")
            assert code == 2, bad

    def test_oversized_grid_exits_3(self, capsys):
        code, out, err = run(capsys, "gen", "--dim", "4", "--grid", "1000000",
                             "--keep", "1", "--seed", "0")
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: the grid [0, 1000000]^4 has")


class TestFuzz:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--dim", "2", "--grid", "1",
                           "--modulus", "3", "--trials", "4", "--seed", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["passes"] == 4
        assert payload["failures"] == 0
        assert payload["dilation"] == 3

    def test_oversized_grid_exits_3(self, capsys):
        code, out, err = run(capsys, "fuzz", "--dim", "2", "--grid", "1000",
                             "--modulus", "6", "--trials", "2", "--seed", "0")
        assert (code, out) == (3, "")
        assert "resource limit: the grid [0, 1000]^2 has 2000000 maximal" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ["fuzz", "--dim", "2", "--grid", "2", "--modulus", "6",
                "--trials", "5", "--seed", "31"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_stdout_is_pure_json(self, capsys, square_file):
        _, out, _ = run(capsys, "verify", square_file, "--modulus", "4")
        json.loads(out)  # would raise if the human text leaked to stdout

    def test_internal_error_exits_4_with_one_line(self, capsys, monkeypatch,
                                                  square_file):
        def broken(*args, **kwargs):
            raise IntegrityError("cross-check failed")

        monkeypatch.setattr(cli, "run_verify", broken)
        code, out, err = run(capsys, "verify", square_file, "--modulus", "4")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "internal error: cross-check failed\n"


def run_with_stdout_closed(argv, after_lines):
    """Run simplat in a child process whose stdout is a pipe of one page
    that this process closes after reading after_lines lines; return the
    exit code and stderr.

    The report must be longer than the page for the close to be sure to
    land before the child has written it all: the child then blocks on
    the full pipe until it is closed.  With after_lines 0 the pipe is
    closed before the child starts.
    """
    fcntl = pytest.importorskip("fcntl")
    read_end, write_end = os.pipe()
    if after_lines:
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("the pipe cannot be shrunk below the report's size here")
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    else:
        os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.Popen([sys.executable, "-m", "simplat.cli", *argv],
                             stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    if after_lines:
        with os.fdopen(read_end, "rb", buffering=0) as pipe:
            for _ in range(after_lines):
                while pipe.read(1) not in (b"\n", b""):
                    pass
    _, err = child.communicate(timeout=120)
    return child.returncode, err.decode()


class TestClosedStdout:
    """A reader that stops early, as `| head -1`, is not a failed verdict:
    the run exits with its own code, with no traceback."""

    def test_tmin(self):
        code, err = run_with_stdout_closed(
            ["tmin", "--dim", "3", "--modulus", "1000000000000"], 0)
        assert code == cli.EXIT_STDOUT_CLOSED == 5
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_verify_after_one_line(self, tmp_path):
        # the whole 2-D grid-5 at n = 6: a report of about 38 KB
        path = tmp_path / "grid5.json"
        path.write_text(document_to_json(complex_to_document(
            generate_complex(2, 5, 1, seed=0))))
        code, err = run_with_stdout_closed(
            ["verify", str(path), "--modulus", "6"], 1)
        assert code == cli.EXIT_STDOUT_CLOSED
        assert "Traceback" not in err and "BrokenPipeError" not in err


def int_paths(doc):
    """The path (keys and indices) of every int in a document."""
    yield ("ambient_dim",)
    for key in ("vertices", "maximal_simplices"):
        for i, row in enumerate(doc[key]):
            for j in range(len(row)):
                yield (key, i, j)


@st.composite
def malformed_documents(draw):
    """A valid document with one mutation: a key missing or extra, a
    float, bool, string or None in place of an int, a vertex index out of
    range, or a coordinate past the JSON-safe range."""
    doc = copy.deepcopy(draw(st.sampled_from(
        (UNIT_SEGMENT_DOC, UNIT_SQUARE_DOC, L_SHAPE_DOC, HOLLOW_TRIANGLE_DOC))))
    kind = draw(st.sampled_from(("missing", "extra", "not int", "index", "huge")))
    if kind == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "extra":
        doc[draw(st.text(min_size=1).filter(lambda k: k not in doc))] = 0
    elif kind == "not int":
        *parents, last = draw(st.sampled_from(list(int_paths(doc))))
        target = doc
        for key in parents:
            target = target[key]
        target[last] = draw(st.one_of(st.floats(), st.booleans(), st.text(),
                                      st.none()))
    elif kind == "index":
        face = draw(st.sampled_from(doc["maximal_simplices"]))
        face[draw(st.integers(0, len(face) - 1))] = draw(st.one_of(
            st.integers(max_value=-1),
            st.integers(min_value=len(doc["vertices"]))))
    else:
        vertex = draw(st.sampled_from(doc["vertices"]))
        vertex[draw(st.integers(0, len(vertex) - 1))] = draw(st.one_of(
            st.integers(min_value=MAX_SAFE_INT + 1),
            st.integers(max_value=-MAX_SAFE_INT - 1)))
    return doc


class TestMalformedDocuments:
    @given(malformed_documents())
    @settings(max_examples=200, deadline=None)
    def test_exit_code_without_traceback(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("malformed") / "doc.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["verify", str(path), "--modulus", "6"])
        assert code == cli.EXIT_INPUT  # every mutation makes the document invalid


class TestUnreadableDocuments:
    @pytest.mark.parametrize("name", UNREADABLE)
    def test_exit_input_naming_the_reason(self, tmp_path, name):
        data, reason = UNREADABLE[name]
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
            code = cli.main(["verify", str(path), "--modulus", "6"])
        assert code == cli.EXIT_INPUT
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: unreadable JSON: ")
        assert reason in err.getvalue()


class TestNotUtf8Documents:
    @pytest.mark.parametrize("name", NOT_UTF8)
    def test_exit_input_with_the_parse_message(self, tmp_path, name):
        data, _, message = NOT_UTF8[name]
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as parsed:
            parse_document(data)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
            code = cli.main(["verify", str(path), "--modulus", "6"])
        assert code == cli.EXIT_INPUT
        assert out.getvalue() == ""
        assert err.getvalue() == f"error: {parsed.value}\n"
        assert message in err.getvalue()
