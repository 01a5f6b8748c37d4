"""Exit codes, report formats, and determinism of the command line."""

import contextlib
import io
import json
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from strucnet import (
    AnalysisReport,
    AssumptionViolated,
    PatternMatrix,
    StrucnetError,
    analyze,
    is_network_controllable,
    load_network,
    network_from_dict,
)
from strucnet import cli, errors, oracle
from strucnet.cli import build_parser, main
from conftest import (
    INTERCONNECTION_FILE,
    NETWORK_FILE,
    NO_INPUT_NETWORK_FILE,
    NODE_FAIL_NETWORK_FILE,
    REPO_ROOT,
    SPARSE_NETWORK_FILE,
)

from helpers import (
    chain_object,
    fresh_process_env,
    mutated_json,
    network_to_dict,
    networks,
    random_network,
)


CERTIFICATE_KEYS = ["colorable", "derived_set", "forcing_sequence", "uncolored"]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_controllable_network(capsys):
    code, out, err = run(capsys, "check", NETWORK_FILE)
    assert code == 0
    assert "controllable: yes" in out
    assert err == ""


def test_check_uncontrollable_network_prints_witness(capsys):
    code, out, _ = run(capsys, "check", NO_INPUT_NETWORK_FILE)
    assert code == 1
    assert "controllable: no" in out
    assert "uncolored vertices" in out


def test_check_names_the_one_failing_node_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-m", "strucnet.cli", "check", str(NODE_FAIL_NETWORK_FILE)],
        capture_output=True, text=True, env=fresh_process_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "controllable: no" in proc.stdout
    assert "node systems: 1: ok, 2: ok, 3: FAIL\n" in proc.stdout


def test_check_json_round_trips_and_is_stable(capsys):
    code, out1, _ = run(capsys, "check", NETWORK_FILE, "--json")
    assert code == 0
    payload = json.loads(out1)
    assert payload["controllable"] is True
    assert payload["checks"]["assembled"]["derived_set"] == list(range(1, 13))
    for entry in payload["checks"].values():
        assert list(entry) == CERTIFICATE_KEYS
    assert list(payload["topology"]) == ["W", "H", "weakly_colorable", *CERTIFICATE_KEYS]
    _, out2, _ = run(capsys, "check", NETWORK_FILE, "--json")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", NETWORK_FILE, "--json"],
        ["topo", NETWORK_FILE, "--json"],
        ["rank", INTERCONNECTION_FILE, "--json"],
        ["audit", NETWORK_FILE, "--trials", "3"],
    ],
    ids=["check", "topo", "rank", "audit"],
)
def test_json_output_is_one_line(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1)
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)


def test_check_malformed_token_cites_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "nodes": [{"A": [["x"]], "B": [["*"]], "C": [["*"]]}],
        "W": [["0"]],
        "H": [["*"]],
    }))
    code, out, err = run(capsys, "check", bad)
    assert code == 2
    assert out == ""
    assert "row 1, column 1" in err


@pytest.mark.parametrize("token", [["x"], 0, None, " *"], ids=["list", "int", "null", "space"])
def test_check_bad_interconnection_token_is_located(tmp_path, capsys, token):
    obj = json.loads(NETWORK_FILE.read_text())
    obj["W"][3][1] = token  # a '*' in the demo network's W
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", bad)
    assert (code, out) == (2, "")
    assert err == (
        f"error: W: row 4, column 2: invalid pattern token {token!r}, "
        "expected one of '0', '*', '?'\n"
    )


def _dense(block):
    """Rebuild a dense token grid from the sparse report form."""
    rows, cols = block["shape"]
    grid = [["0"] * cols for _ in range(rows)]
    for i, j, token in block["entries"]:
        grid[i - 1][j - 1] = token
    return grid


def test_check_json_patterns_are_sparse(tmp_path, capsys):
    rng = np.random.default_rng(31)
    networks = [load_network(NETWORK_FILE), load_network(NO_INPUT_NETWORK_FILE)]
    networks += [random_network(rng) for _ in range(40)]
    for k, net in enumerate(networks):
        path = tmp_path / f"net{k}.json"
        path.write_text(json.dumps(network_to_dict(net)))
        code, out, _ = run(capsys, "check", path, "--json")
        assert code in (0, 1)
        patterns = json.loads(out)["patterns"]
        assert list(patterns) == ["assembled", "assembled_shifted"]
        expected = is_network_controllable(net).patterns
        for block, pattern in zip(patterns.values(), expected):
            assert list(block) == ["shape", "entries"]
            assert block["shape"] == [pattern.rows, pattern.cols]
            positions = [(i, j) for i, j, _ in block["entries"]]
            assert positions == sorted(set(positions))  # row-major, each entry once
            assert all(token in ("*", "?") for _, _, token in block["entries"])
            assert PatternMatrix.from_tokens(_dense(block)) == pattern


@pytest.mark.parametrize("argv", [["check", "--json"], ["check"], ["topo", "--json"], ["topo"]])
def test_sparse_fixture_gives_the_dense_fixture_output(capsys, argv):
    assert load_network(SPARSE_NETWORK_FILE) == load_network(NETWORK_FILE)
    assert run(capsys, *argv, SPARSE_NETWORK_FILE) == run(capsys, *argv, NETWORK_FILE)


@pytest.mark.parametrize(
    "a, code", [([["0", "0"], ["*", "0"]], 0), ([["0", "0"], ["0", "0"]], 1)], ids=["lower", "zero"]
)
def test_two_state_chain_reads_the_same_dense_and_sparse(tmp_path, capsys, a, code):
    # 2,000 two-state nodes: as equal dense grids the node matrices share one
    # pattern, in sparse form each node has its own. With A = 0 no node is
    # controllable on its own, so the node screen fails every node
    node = {"A": a, "B": [["*"], ["0"]], "C": [["0", "*"]]}
    reports = []
    for form in (node, {name: PatternMatrix.from_json(grid).to_sparse() for name, grid in node.items()}):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_object(2000, form)))
        reports.append(run(capsys, "check", "--json", path))
    assert reports[0] == reports[1]
    exit_code, out, err = reports[0]
    assert (exit_code, err) == (code, "")
    checks = json.loads(out)["node_checks"]
    assert len(checks) == 2000
    assert all(check["controllable"] is (code == 0) for check in checks)


@pytest.mark.parametrize("path", [NETWORK_FILE, NO_INPUT_NETWORK_FILE])
def test_rank_of_the_reported_patterns_reproduces_their_checks(tmp_path, capsys, path):
    _, out, _ = run(capsys, "check", "--json", path)
    report = json.loads(out)
    for key, block in report["patterns"].items():
        pattern_file = tmp_path / f"{key}.json"
        pattern_file.write_text(json.dumps(block))
        code, rank_out, err = run(capsys, "rank", "--json", pattern_file)
        check = report["checks"][key]
        assert (code, err) == (0 if check["colorable"] else 1, "")
        assert json.loads(rank_out) == {"full_row_rank": check["colorable"], **check}


def _sparse_demo():
    return json.loads(SPARSE_NETWORK_FILE.read_text())


def _set(obj, where, value):
    """Replace the matrix at where ("W", "H", or "A" of node 1) by value."""
    if where == "A":
        obj["nodes"][0]["A"] = value
    else:
        obj[where] = value
    return obj


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("W", {"shape": [6, 6]}, "W: sparse pattern is missing key 'entries'"),
        ("A", {"entries": []}, "nodes[0].A: sparse pattern is missing key 'shape'"),
        ("W", {"shape": [6, 0], "entries": []}, "W: 'shape' must be two positive integers, got [6, 0]"),
        ("H", {"shape": [6, True], "entries": []}, "H: 'shape' must be two positive integers, got [6, True]"),
        ("H", {"shape": [6], "entries": []}, "H: 'shape' must be two positive integers, got [6]"),
        (
            "W",
            {"shape": [2_000_000, 6], "entries": []},
            "W: 'shape' [2000000, 6] exceeds the limit of 1000000 rows or columns",
        ),
        ("W", {"shape": [6, 6], "entries": {}}, "W: 'entries' must be a list, got dict"),
        (
            "A",
            {"shape": [4, 4], "entries": [[1, 1, "*"], [5, 1, "*"]]},
            "nodes[0].A: entries[1]: position (5, 1) is outside the shape [4, 4]",
        ),
        (
            "A",
            {"shape": [4, 4], "entries": [[1, 0, "*"]]},
            "nodes[0].A: entries[0]: position (1, 0) is outside the shape [4, 4]",
        ),
        (
            "A",
            {"shape": [4, 4], "entries": [[2, 3, "*"], [1, 1, "*"], [2, 3, "?"]]},
            "nodes[0].A: row 2, column 3 appears twice",
        ),
        (
            "W",
            {"shape": [6, 6], "entries": [[1, 1, "*"], [1, 1, "?"]]},
            "W: row 1, column 1 appears twice",
        ),
        (
            "A",
            {"shape": [4, 4], "entries": [[1, 1, "*"], [2, 2, "0"]]},
            "nodes[0].A: entries[1]: invalid pattern token '0', expected '*' or '?'",
        ),
        (
            "A",
            {"shape": [4, 4], "entries": [[1, 1, ["*"]]]},
            "nodes[0].A: entries[0]: invalid pattern token ['*'], expected '*' or '?'",
        ),
        (
            "A",
            {"shape": [4, 4], "entries": [[1, True, "*"]]},
            "nodes[0].A: entries[0]: row and column must be integers, got [1, True, '*']",
        ),
        (
            "A",
            {"shape": [4, 4], "entries": [[1, 1]]},
            "nodes[0].A: entries[0]: expected [row, column, token], got [1, 1]",
        ),
        (  # every entry is checked before any position is compared
            "A",
            {"shape": [4, 4], "entries": [[2, 3, "*"], [2, 3, "?"], [1, 1, "x"]]},
            "nodes[0].A: entries[2]: invalid pattern token 'x', expected '*' or '?'",
        ),
        (  # the first repeat in row-major order, not in list order
            "A",
            {"shape": [4, 4], "entries": [[3, 2, "*"], [3, 2, "*"], [1, 4, "?"], [1, 4, "*"]]},
            "nodes[0].A: row 1, column 4 appears twice",
        ),
        (
            "A",
            {"shape": [4, 4], "entries": [[1, 1, "*"], [5, 1, "*"], [1, 2, "x"]]},
            "nodes[0].A: entries[1]: position (5, 1) is outside the shape [4, 4]",
        ),
    ],
    ids=[
        "no-entries", "no-shape", "zero-shape", "bool-shape", "short-shape", "huge-shape",
        "entries-object", "row-range", "column-range", "duplicate", "duplicate-in-W",
        "zero-token", "list-token", "bool-index", "short-entry", "token-after-repeat",
        "repeats-in-rows-3-and-1", "two-bad-entries",
    ],
)
def test_bad_sparse_matrix_is_located(tmp_path, capsys, where, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_set(_sparse_demo(), where, value)))
    assert run(capsys, "check", bad) == (2, "", f"error: {message}\n")


def test_declared_rows_are_budgeted_over_the_whole_file(tmp_path, capsys):
    # each matrix is within the per-matrix limit; the third one takes the
    # file past it, and loading stops there, before validation
    tall = {"shape": [400_000, 1], "entries": []}
    obj = {"nodes": [{"A": tall, "B": tall, "C": [["*"]]}], "W": [["*"]], "H": tall}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    message = "error: H: brings the file to 1200002 rows, over the limit of 1000000 for all matrices together\n"
    assert run(capsys, "check", bad) == (2, "", message)
    wide = {"shape": [1, 400_000], "entries": []}
    obj = {"nodes": [{"A": wide, "B": [["*"]], "C": wide}], "W": wide, "H": [["*"]]}
    bad.write_text(json.dumps(obj))
    message = "error: W: brings the file to 1200001 columns, over the limit of 1000000 for all matrices together\n"
    assert run(capsys, "check", bad) == (2, "", message)


def test_bad_sparse_pattern_file_is_located(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"shape": [2, 2], "entries": [[1, 1, "*"], [1, 1, "*"]]}))
    assert run(capsys, "rank", bad) == (2, "", "error: row 1, column 1 appears twice\n")


def _write_non_utf8(path):
    path.write_bytes(b'{"nodes": "\xff\xfe"}')


def _write_deeply_nested(path):
    path.write_text("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("command", ["check", "rank"])
@pytest.mark.parametrize("write", [_write_non_utf8, _write_deeply_nested], ids=["non-utf8", "deep"])
def test_unreadable_json_is_input_error(tmp_path, capsys, command, write):
    bad = tmp_path / "bad.json"
    write(bad)
    code, out, err = run(capsys, command, bad)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: not valid JSON")


@pytest.mark.parametrize("command", ["check", "rank"])
def test_over_long_integer_is_input_error(tmp_path, capsys, command):
    """A 5,000-digit integer where a token goes fails at parse where Python
    caps integer digits, and at the token check where it does not."""
    bad = tmp_path / "long.json"
    grid, one = [["LONG"]], [["*"]]
    obj = {"nodes": [{"A": [["0"]], "B": one, "C": one}], "W": grid, "H": one}
    bad.write_text(json.dumps(obj if command == "check" else grid).replace('"LONG"', "9" * 5000))
    code, out, err = run(capsys, command, bad)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


NETWORK_OBJECTS = [
    json.loads(path.read_text())
    for path in (NETWORK_FILE, NO_INPUT_NETWORK_FILE, NODE_FAIL_NETWORK_FILE, SPARSE_NETWORK_FILE)
]

_INTERCONNECTION_GRID = json.loads(INTERCONNECTION_FILE.read_text())
PATTERN_OBJECTS = [_INTERCONNECTION_GRID, PatternMatrix.from_json(_INTERCONNECTION_GRID).to_sparse()]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_clean_exits(path, obj, commands):
    """Each command on the file gives a verdict or one clean input error: exit 2
    writes nothing to stdout and only error lines to stderr."""
    path.write_text(json.dumps(obj))
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path)])
        assert code in (0, 1, 2), command
        if code == 2:
            assert out.getvalue() == "", command
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith("error: ") for line in lines), command
        elif "--json" in command or command[0] == "audit":  # audit always prints one JSON object
            json.loads(out.getvalue())


@settings(max_examples=200, deadline=None)
@given(obj=mutated_json(NETWORK_OBJECTS))
def test_mutated_networks_exit_cleanly(fuzz_dir, obj):
    views = ("assembled", "assembled-shifted", "interconnection", "topology")
    commands = (
        ["check"], ["check", "--json"], ["topo"], ["topo", "--json"], ["rank"], ["audit", "--trials", "2"],
        *(["export-dot", "--which", which] for which in views),
    )
    _assert_clean_exits(fuzz_dir / "network.json", obj, commands)


@settings(max_examples=100, deadline=None)
@given(obj=mutated_json(PATTERN_OBJECTS))
def test_mutated_patterns_exit_cleanly(fuzz_dir, obj):
    _assert_clean_exits(fuzz_dir / "pattern.json", obj, (["rank"], ["rank", "--json"]))


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no_such_file.json")
    assert code == 2 and err


def test_check_invalid_network_is_input_error(tmp_path, capsys):
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps({
        "nodes": [{"A": [["0"]], "B": [["0"]], "C": [["*"]]}],
        "W": [["0"]],
        "H": [["*"]],
    }))
    code, _, err = run(capsys, "check", bad)
    assert code == 2
    assert "B" in err and "'*'" in err


def test_rank_interconnection_not_full(capsys):
    code, out, _ = run(capsys, "rank", INTERCONNECTION_FILE)
    assert code == 1
    assert "full row rank: no" in out
    assert "uncolored vertices: [6]" in out


def test_rank_identity(tmp_path, capsys):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps([["*", "0", "0"], ["0", "*", "0"], ["0", "0", "*"]]))
    code, out, _ = run(capsys, "rank", path)
    assert code == 0
    assert "full row rank: yes" in out


def test_rank_tall_pattern_is_input_error(tmp_path, capsys):
    path = tmp_path / "tall.json"
    path.write_text(json.dumps([["*"], ["0"]]))
    code, _, err = run(capsys, "rank", path)
    assert code == 2 and "rows <= cols" in err


def test_rank_json_certificate(capsys):
    code, out, _ = run(capsys, "rank", INTERCONNECTION_FILE, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["full_row_rank"] is False
    assert payload["uncolored"] == [6]
    assert list(payload) == ["full_row_rank", *CERTIFICATE_KEYS]
    assert payload["colorable"] is False


def test_topo_demo_network(capsys):
    # W~ and H~ print sparse: a shape header, then 1-based "row column token" lines
    code, out, _ = run(capsys, "topo", NETWORK_FILE)
    assert code == 0
    assert "weakly colorable: yes" in out
    assert "W~ (3 x 3; nonzeros as row column token):\n2 1 *\n3 2 *\nH~ (" in out
    assert "H~ (3 x 2; nonzeros as row column token):\n1 1 *\n1 2 *\nweakly" in out


def test_topo_text_grows_with_nonzeros_not_nodes(tmp_path, capsys):
    # a chain of 2,000 one-state nodes: the dense N x N grid of W~ took 8 MB
    n = 2000
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_object(n)))
    code, out, _ = run(capsys, "topo", path)
    assert code == 0
    assert len(out.encode()) < 200_000
    assert f"W~ ({n} x {n}; nonzeros as row column token):\n2 1 *\n3 2 *\n" in out


def test_check_frees_the_network_before_encoding_the_report(monkeypatch, capsys):
    # the network holds most of a verdict's objects; encoding runs without it
    loaded = []
    load, encode = cli.load_network, AnalysisReport.to_dict

    def load_and_watch(path):
        network = load(path)
        loaded.append(weakref.ref(network))
        return network

    def encode_and_look(report):
        alive.append(loaded[0]() is not None)
        return encode(report)

    alive = []
    monkeypatch.setattr(cli, "load_network", load_and_watch)
    monkeypatch.setattr(AnalysisReport, "to_dict", encode_and_look)
    code, out, _ = run(capsys, "check", NETWORK_FILE, "--json")
    assert code == 0 and json.loads(out)["controllable"] is True
    assert alive == [False]


class _ClosedPipe:
    """A stdout whose reader went away: writing or flushing, as named, raises BrokenPipeError."""

    def __init__(self, failing: str):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [["check", NETWORK_FILE, "--json"], ["topo", NETWORK_FILE], ["rank", INTERCONNECTION_FILE]],
    ids=["check", "topo", "rank"],
)
def test_broken_pipe_exits_141_without_an_error_line(monkeypatch, capsys, argv, failing):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(failing))
    assert main([str(a) for a in argv]) == 141
    assert capsys.readouterr().err == ""


def test_broken_pipe_in_a_fresh_process_is_quiet(tmp_path):
    # about 340 KB of report, more than a pipe holds, so the write fails once the reader is gone
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_object(2000)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "strucnet.cli", "check", "--json", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_process_env(),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_topo_without_inputs(capsys):
    code, out, _ = run(capsys, "topo", NO_INPUT_NETWORK_FILE)
    assert code == 1
    assert "weakly colorable: no" in out
    assert "unreached vertices: [1, 2, 3]" in out


def test_topo_json(capsys):
    code, out, _ = run(capsys, "topo", NETWORK_FILE, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["W"] == {"shape": [3, 3], "entries": [[2, 1, "*"], [3, 2, "*"]]}
    assert payload["H"] == {"shape": [3, 2], "entries": [[1, 1, "*"], [1, 2, "*"]]}
    assert _dense(payload["W"]) == [["0", "0", "0"], ["*", "0", "0"], ["0", "*", "0"]]
    assert _dense(payload["H"]) == [["*", "*"], ["0", "0"], ["0", "0"]]
    assert payload["weakly_colorable"] is True


@pytest.mark.parametrize("path", [NETWORK_FILE, NO_INPUT_NETWORK_FILE])
def test_topo_json_matches_check_topology_block(capsys, path):
    topo_code, topo_out, _ = run(capsys, "topo", path, "--json")
    _, check_out, _ = run(capsys, "check", path, "--json")
    topology = json.loads(check_out)["topology"]
    assert json.loads(topo_out) == topology
    assert topo_code == (0 if topology["weakly_colorable"] else 1)


def test_audit_consistent_run(capsys):
    code, out, _ = run(capsys, "audit", NETWORK_FILE, "--trials", "100", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["symbolic_controllable"] is True
    assert payload["audit"]["failures"] == 0
    assert payload["consistent"] is True


def test_audit_output_is_byte_identical(capsys):
    _, out1, _ = run(capsys, "audit", NETWORK_FILE, "--trials", "25", "--seed", "9")
    _, out2, _ = run(capsys, "audit", NETWORK_FILE, "--trials", "25", "--seed", "9")
    assert out1 == out2


def test_audit_uncontrollable_network_is_consistent(capsys):
    # failures against a negative symbolic verdict are expected, not an
    # inconsistency: one-sided check
    code, out, _ = run(capsys, "audit", NO_INPUT_NETWORK_FILE, "--trials", "10", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["symbolic_controllable"] is False
    assert payload["audit"]["failures"] == 10
    assert payload["consistent"] is True


_AUDIT_LINE = (
    '{{"symbolic_controllable": {}, "audit": {{"trials_run": 5, "failures": {}, "first_failure": {}}}, '
    '"consistent": true, "note": "sampling is a consistency check, not a proof"}}\n'
)


@pytest.mark.parametrize(
    "path, verdict, failures, first_failure",
    [
        (NETWORK_FILE, "true", 0, "null"),
        (NO_INPUT_NETWORK_FILE, "false", 5, '{"trial": 0, "detail": "controllability rank 0 < 12"}'),
        (NODE_FAIL_NETWORK_FILE, "false", 5, '{"trial": 0, "detail": "controllability rank 11 < 12"}'),
    ],
    ids=["demo", "no-input", "node-fail"],
)
def test_audit_of_each_network_fixture(capsys, path, verdict, failures, first_failure):
    # the demo never fails, and both negative variants fail from trial 0
    line = _AUDIT_LINE.format(verdict, failures, first_failure)
    assert run(capsys, "audit", "--trials", "5", path) == (0, line, "")


def test_audit_is_the_same_in_fresh_processes():
    # 500 trials of the demo run in several chunks, each advancing the one
    # stream to its first trial's segment; the string hash seed must not matter
    argv = [
        sys.executable, "-m", "strucnet.cli", "audit", "--trials", "500", "--seed", "7", str(NETWORK_FILE)
    ]
    procs = [
        subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**fresh_process_env(), "PYTHONHASHSEED": hash_seed},
        )
        for hash_seed in ("1", "2")
    ]
    (out1, err1), (out2, err2) = (proc.communicate(timeout=120) for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0]
    assert (err1, err2, out1) == ("", "", out2)
    assert json.loads(out1)["audit"]["failures"] == 0


def test_audit_numeric_breakdown_is_error(capsys, monkeypatch):
    def broken_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", broken_svd)
    code, out, err = run(capsys, "audit", NETWORK_FILE, "--trials", "3", "--seed", "5")
    assert code == 2
    assert out == ""
    assert err == "error: numeric breakdown in trial 0 (seed 5): SVD did not converge\n"


def test_audit_numeric_breakdown_names_a_later_trial(capsys, monkeypatch):
    # only trial 4's realization holds NaN, and only an SVD input holding NaN
    # breaks down; all seven trials share one chunk, which is rerun one trial
    # at a time
    real_sample, real_svd = oracle._ChunkSampler.sample, np.linalg.svd

    def sample(self, seed, trials):
        stacked = real_sample(self, seed, trials)
        if 4 in trials:
            stacked[0][trials.index(4)] = np.nan
        return stacked

    def svd(matrix, *args, **kwargs):
        if np.isnan(matrix).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(matrix, *args, **kwargs)

    monkeypatch.setattr(oracle._ChunkSampler, "sample", sample)
    monkeypatch.setattr(np.linalg, "svd", svd)
    code, out, err = run(capsys, "audit", NETWORK_FILE, "--trials", "7", "--seed", "5")
    assert (code, out) == (2, "")
    assert err == "error: numeric breakdown in trial 4 (seed 5): SVD did not converge\n"


@pytest.mark.parametrize("stage", ["_ChunkSampler.sample", "_controllability_rank"])
def test_audit_out_of_memory_is_error(capsys, monkeypatch, stage):
    # the allocation is faked: a realization too large to allocate is never made
    def unallocatable(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"strucnet.oracle.{stage}", unallocatable)
    code, out, err = run(capsys, "audit", NETWORK_FILE, "--trials", "3", "--seed", "5")
    assert (code, out) == (2, "")
    assert err == "error: out of memory in trial 0 (seed 5) for 12 x 12 realizations\n"


def test_audit_refuses_a_network_too_large_for_one_trial(capsys, tmp_path, monkeypatch):
    # a chain of 20,000 one-state nodes: one trial would take about 26 GB;
    # the refusal comes before the symbolic verdict, which is never computed
    def no_verdict(network):
        pytest.fail("audit decided a network it refuses")

    monkeypatch.setattr(cli, "is_network_controllable", no_verdict)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_object(20_000)))
    code, out, err = run(capsys, "audit", path, "--trials", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: audit refused: one trial of 20000 states needs ")
    assert err.endswith(" bytes, above the limit of 1073741824\n") and err.count("\n") == 1
    assert "Traceback" not in err


def test_audit_rejects_zero_trials(capsys):
    code, out, err = run(capsys, "audit", NETWORK_FILE, "--trials", "0")
    assert (code, out, err) == (2, "", "error: trials must be >= 1, got 0\n")


def test_audit_rejects_tol_as_unknown_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["audit", "--tol", "1e-8", str(NETWORK_FILE)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_audit_rejects_negative_seed(capsys):
    code, out, err = run(capsys, "audit", NETWORK_FILE, "--seed", "-3")
    assert (code, out, err) == (2, "", "error: seed must be non-negative, got -3\n")


def test_every_toolkit_error_class_is_a_strucnet_error():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, BaseException)]
    assert classes == [StrucnetError, AssumptionViolated]  # every refusal is the one type
    assert issubclass(StrucnetError, ValueError) and issubclass(AssumptionViolated, StrucnetError)


def test_a_new_strucnet_error_needs_no_entry_in_the_cli(monkeypatch, capsys):
    # main prints any StrucnetError, also a subclass it has never heard of
    class Refused(StrucnetError):
        pass

    def refuse(path):
        raise Refused(f"{path}: refused")

    monkeypatch.setattr(cli, "load_network", refuse)
    assert run(capsys, "check", "net.json") == (2, "", "error: net.json: refused\n")


def _dot(num_vertices, filled, star_edges, any_edges):
    """The DOT text export_dot writes, spelled out for the tests."""
    lines = ["digraph pattern {", "  rankdir=LR;"]
    for v in range(1, num_vertices + 1):
        lines.append(f"  {v} [style=filled, fillcolor=black, fontcolor=white];" if v in filled else f"  {v};")
    lines += [f"  {src} -> {dst} [style=solid];" for src, dst in sorted(star_edges)]
    lines += [f"  {src} -> {dst} [style=dashed];" for src, dst in sorted(any_edges)]
    return "\n".join(lines + ["}"]) + "\n"


def test_export_dot_topology(capsys):
    # [W~ H~] is 3 x 5; the weak rule's derived set (the seeds 4, 5 plus
    # every node they reach) is drawn filled. The node-fail network differs
    # from the demo only inside node 3, so its topology is the demo's
    edges = {(1, 2), (2, 3), (4, 1), (5, 1)}
    expected = {
        NETWORK_FILE: _dot(5, {1, 2, 3, 4, 5}, edges, set()),
        NO_INPUT_NETWORK_FILE: _dot(5, {4, 5}, {(1, 2), (2, 3)}, set()),
        NODE_FAIL_NETWORK_FILE: _dot(5, {1, 2, 3, 4, 5}, edges, set()),
    }
    for path, dot in expected.items():
        code, out, err = run(capsys, "export-dot", path, "--which", "topology")
        assert (code, err, out) == (0, "", dot)
        filled = {int(line.split()[0]) for line in out.splitlines() if "fillcolor=black" in line}
        screen = json.loads(run(capsys, "topo", path, "--json")[1])
        assert filled == set(screen["derived_set"])


@settings(max_examples=50, deadline=None)
@given(net=networks())
def test_export_dot_topology_draws_the_topo_report(fuzz_dir, net):
    # the drawing has one vertex per column of [W~ H~], an edge from column
    # to row per entry of W~ and of H~ (whose columns follow W~'s), and the
    # weak rule's derived set filled
    path = fuzz_dir / "topology.json"
    path.write_text(json.dumps(network_to_dict(net)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["topo", "--json", str(path)]) in (0, 1)
        screen = json.loads(out.getvalue())
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["export-dot", "--which", "topology", str(path)]) == 0
    n = screen["W"]["shape"][1]
    edges = {"*": set(), "?": set()}
    for i, j, token in screen["W"]["entries"]:
        edges[token].add((j, i))
    for i, j, token in screen["H"]["entries"]:
        edges[token].add((n + j, i))
    expected = _dot(n + screen["H"]["shape"][1], set(screen["derived_set"]), edges["*"], edges["?"])
    assert (err.getvalue(), out.getvalue()) == ("", expected)


def test_export_dot_interconnection(capsys):
    code, out, _ = run(capsys, "export-dot", NETWORK_FILE, "--which", "interconnection")
    assert code == 0
    assert "  8;" in out
    assert "4 -> 6 [style=dashed];" in out


def _two_stars_in_b(obj):
    obj["nodes"][0]["B"][3][1] = "*"  # column 2 of node 1's B already has its '*'
    return obj


def _short_h(obj):
    obj["H"].pop()
    return obj


def _wide_w(obj):
    for row in obj["W"]:
        row.append("0")
    return obj


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_two_stars_in_b, "error: node 1, matrix B: column 2 has 2 '*' entries, expected exactly one\n"),
        (_short_h, "error: matrix H: has 5 rows, expected 6 from node blocks\n"),
        (_wide_w, "error: matrix W: has shape (6, 7), expected (6, 6) from node blocks\n"),
    ],
    ids=["two-stars-in-B", "short-H", "wide-W"],
)
def test_export_dot_validates_every_view(tmp_path, capsys, spoil, message):
    # every command that reads a network refuses it with the same one message
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spoil(json.loads(NETWORK_FILE.read_text()))))
    commands = [["check"], ["check", "--json"], ["topo"], ["topo", "--json"], ["audit", "--trials", "2"]]
    commands += [
        ["export-dot", "--which", which]
        for which in ("assembled", "assembled-shifted", "interconnection", "topology")
    ]
    for command in commands:
        assert run(capsys, *command, bad) == (2, "", message), command


def test_export_dot_tall_interconnection(tmp_path, capsys):
    # three node inputs against one node output and one external input:
    # [W H] is 3 x 2 and is drawn on vertices 1..3, one edge per nonzero
    path = tmp_path / "tall.json"
    path.write_text(
        json.dumps(
            {
                "nodes": [{"A": [["*"]], "B": [["*", "*", "*"]], "C": [["*"]]}],
                "W": [["*"], ["0"], ["?"]],
                "H": [["0"], ["*"], ["0"]],
            }
        )
    )
    code, out, err = run(capsys, "export-dot", path, "--which", "interconnection")
    assert (code, err) == (0, "")
    assert out == (
        "digraph pattern {\n  rankdir=LR;\n  1;\n  2;\n  3;\n"
        "  1 -> 1 [style=solid];\n  2 -> 2 [style=solid];\n  1 -> 3 [style=dashed];\n}\n"
    )
    assert run(capsys, "check", path)[0] in (0, 1)  # the network is valid


def test_export_dot_assembled_variants(tmp_path, capsys):
    # each drawing is the graph of the pattern in check --json, with the
    # derived set of that pattern's certificate filled
    rng = np.random.default_rng(8)
    paths = [NETWORK_FILE, NO_INPUT_NETWORK_FILE]
    for k in range(20):
        paths.append(tmp_path / f"net{k}.json")
        paths[-1].write_text(json.dumps(network_to_dict(random_network(rng))))
    fills = set()
    for path in paths:
        report = json.loads(run(capsys, "check", path, "--json")[1])
        outs, filled = [], []
        for which, key in (("assembled", "assembled"), ("assembled-shifted", "assembled_shifted")):
            code, out, err = run(capsys, "export-dot", path, "--which", which)
            assert (code, err) == (0, "")
            block = report["patterns"][key]
            edges = {"*": set(), "?": set()}
            for i, j, token in block["entries"]:
                edges[token].add((j, i))
            filled.append(frozenset(report["checks"][key]["derived_set"]))
            assert out == _dot(block["shape"][1], filled[-1], edges["*"], edges["?"])
            outs.append(out)
        assert outs[0] != outs[1]
        fills.add(filled[0] == filled[1])
    assert fills == {True, False}  # some networks fill the two drawings differently


def test_export_dot_unknown_choice(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["export-dot", str(NETWORK_FILE), "--which", "everything"])
    assert excinfo.value.code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", str(NETWORK_FILE), "--frobnicate"])
    assert excinfo.value.code == 2


def test_parser_is_reused_without_carrying_state(capsys):
    assert build_parser() is build_parser()  # built once per process
    run(capsys, "audit", NETWORK_FILE, "--trials", "5")
    code, out, _ = run(capsys, "audit", NETWORK_FILE)
    assert code == 0
    assert json.loads(out)["audit"]["trials_run"] == 100  # the default again
    with pytest.raises(SystemExit):
        main(["check", str(NETWORK_FILE), "--frobnicate"])
    capsys.readouterr()
    code, out, err = run(capsys, "check", NETWORK_FILE)
    assert (code, err) == (0, "")
    assert "controllable: yes" in out


# Runs in a fresh interpreter, so no earlier import of numpy can hide one.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import strucnet

ORACLE_NAMES = (
    "AuditConfig", "AuditOutcome", "audit_network", "audit_rank", "enumerate_patterns",
    "kalman_controllable", "shift_exclusion_exhaustive", "shift_exclusion_random",
)
import_numpy = "numpy" in sys.modules
exposed = [name for name in ORACLE_NAMES if hasattr(strucnet, name)]
import strucnet.cli

net, pattern = sys.argv[1:]
symbolic = [
    ["check", net], ["check", net, "--json"], ["rank", pattern], ["topo", net],
    *(["export-dot", net, "--which", which]
      for which in ("assembled", "assembled-shifted", "interconnection", "topology")),
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [strucnet.cli.main(argv) for argv in symbolic]
    symbolic_numpy = "numpy" in sys.modules
    codes.append(strucnet.cli.main(["audit", net, "--trials", "2"]))
audit_numpy = "numpy" in sys.modules
unresolved = [name for name in strucnet.__all__ if getattr(strucnet, name, None) is None]
try:
    strucnet.no_such_name
    unknown_raises = False
except AttributeError:
    unknown_raises = True
print(json.dumps([codes, import_numpy, exposed, symbolic_numpy, audit_numpy, unresolved, unknown_raises]))
"""

_ORACLE_PROBE = "import sys, strucnet.oracle; print('numpy' in sys.modules)"


def test_only_audit_loads_numpy():
    env = fresh_process_env()
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(NETWORK_FILE), str(INTERCONNECTION_FILE)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, import_numpy, exposed, symbolic_numpy, audit_numpy, unresolved, unknown_raises = json.loads(
        proc.stdout
    )
    assert codes == [0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert import_numpy is False
    assert exposed == []
    assert symbolic_numpy is False
    assert audit_numpy is True
    assert unresolved == []
    assert unknown_raises is True
    proc = subprocess.run(
        [sys.executable, "-c", _ORACLE_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


# Runs under `python -S`: no site hook can have loaded a module before the CLI does.
_STDLIB_PROBE = """
import contextlib, io, json, sys

src, net, pattern = sys.argv[1:]
sys.path.insert(0, src)
import strucnet.cli

commands = [
    ["check", net], ["check", net, "--json"], ["rank", pattern], ["topo", net],
    *(["export-dot", net, "--which", which]
      for which in ("assembled", "assembled-shifted", "interconnection", "topology")),
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [strucnet.cli.main(argv) for argv in commands]
heavy = sorted({"dataclasses", "inspect", "pathlib", "typing"} & set(sys.modules))
print(json.dumps([codes, heavy]))
"""


def test_cli_loads_no_dataclasses_inspect_pathlib_or_typing():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _STDLIB_PROBE,
         str(REPO_ROOT / "src"), str(NETWORK_FILE), str(INTERCONNECTION_FILE)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 1, 0, 0, 0, 0, 0], []]


def test_missing_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def _readme_blocks(lang: str) -> list[str]:
    """The bodies of the README's fenced blocks tagged lang, in order."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_readme_examples_run_and_match_the_cli(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    recipe, example = _readme_blocks("python")
    # the recipe redraws one audit trial alone: the values the audit's sampler gives it
    trial = {}
    exec(recipe, trial)
    stacked = oracle._ChunkSampler(trial["network"]).sample(trial["S"], range(trial["T"], trial["T"] + 1))
    assert all(np.array_equal(trial[name], values[0]) for name, values in zip("abcwh", stacked))
    exec(example, {})
    assert capsys.readouterr().out.startswith(analyze(load_network(NETWORK_FILE)).to_text())
    [topo] = _readme_blocks("text")
    assert run(capsys, "topo", "fixtures/three_node_network.json") == (0, topo, "")
    # the sparse patterns excerpt elides its entries with "..."
    blocks = [json.loads(block) for block in _readme_blocks("json") if "..." not in block]
    assert len(blocks) == 3
    for obj in blocks:
        if isinstance(obj, dict) and "nodes" in obj:
            network_from_dict(obj)
        else:
            PatternMatrix.from_json(obj)
