import json
import time
from fractions import Fraction

import pytest

from carom.cli import main
from carom.table import load_table
from carom.zoo import MACHINE_TEXTS

NONREV = """\
states: A B H
initial: A
halting: H
A 0 -> B 0 R
A 1 -> B 0 R
B 0 -> H 0 R
B 1 -> H 1 R
"""


@pytest.fixture
def rev_move_file(tmp_path):
    path = tmp_path / "rev-move.tm"
    path.write_text(MACHINE_TEXTS["rev-move"])
    return str(path)


def test_check_reversible(rev_move_file, capsys):
    assert main(["check", rev_move_file]) == 0
    assert "reversible" in capsys.readouterr().out


def test_check_witness(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text(NONREV)
    assert main(["check", str(path)]) == 1
    assert "not reversible" in capsys.readouterr().out


def test_check_malformed(tmp_path, capsys):
    path = tmp_path / "junk.tm"
    path.write_text("states A H\n")
    assert main(["check", str(path)]) == 2


def test_encode(capsys):
    assert main(["encode", "@1", "--k", "0"]) == 0
    out = capsys.readouterr().out
    assert "5/3^2" in out and ".12" in out
    assert main(["encode", "@", "--k", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "1/3^1"


def test_encode_deep_head(capsys):
    # head 37: the value's denominator exponent is 39 (the head digit
    # itself sits at ternary position 113, the rewrite scale)
    assert main(["encode", "@1", "--k", "37", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    num, _, exp = doc["value"].partition("/3^")
    assert int(exp) == 39
    from carom.encoding import rewrite_scale
    assert rewrite_scale(37).exp == 113


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("past, code", [(1, 2), (0, 0)], ids=["past-cap", "at-cap"])
def test_encode_head_is_bounded_by_the_cap(capsys, sign, past, code):
    # --k beyond the cap (BILLIARD_KMAX, 64 by default) is an input error
    # at once, as --K is
    from carom.encoding import k_max_cap
    cap = k_max_cap()
    t0 = time.perf_counter()
    assert main(["encode", "@1", "--k", str(sign * (cap + past))]) == code
    assert time.perf_counter() - t0 < 1
    if code:
        assert f"--k must be in [-{cap}, {cap}]" in capsys.readouterr().err

def test_compile_run_roundtrip(rev_move_file, tmp_path, capsys):
    table_file = str(tmp_path / "table.json")
    assert main(["compile", rev_move_file, "-o", table_file, "--K", "4"]) == 0
    capsys.readouterr()
    assert main(["run", table_file, "--tape", "@001", "--json",
                 "--budget", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "halted"
    assert doc["steps"] == 3
    assert doc["tape"] == "{2:1}"
    # in-memory pipeline gives bit-identical results
    assert main(["run", rev_move_file, "--K", "4", "--tape", "@001",
                 "--json", "--budget", "50"]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2 == doc


def test_run_both_modes(rev_move_file, capsys):
    assert main(["run", rev_move_file, "--K", "4", "--tape", "@001",
                 "--mode", "both", "--json", "--budget", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "halted"
    assert doc["max_deviation"] < 1e-30
    # walls are built only where the ray goes: far fewer than the scene's
    assert 0 < doc["max_candidates"] <= doc["walls_built"] < 100


@pytest.mark.parametrize("text", [
    "states: initial H\ninitial: initial\nhalting: H\n"
    "initial 0 -> H 1 R\ninitial 1 -> H 0 R\n",
    "states: A halt H\ninitial: A\nhalting: halt H\nA 0 -> halt 1 R\nA 1 -> H 0 R\n",
], ids=["state-named-initial", "state-named-halt"])
def test_states_named_initial_or_halt_run_and_verify(tmp_path, text):
    # a state's checkpoint is its own station's, whatever its name
    path = tmp_path / "named.tm"
    path.write_text(text)
    for tape in ("@", "@1"):
        for mode in ("symbolic", "numeric"):
            assert main(["run", str(path), "--K", "3", "--tape", tape, "--mode", mode]) == 0
    assert main(["verify", str(path), "--K", "3", "--support", "1"]) == 0


def test_run_numeric_json_at_default_K(rev_move_file, capsys):
    assert main(["run", rev_move_file, "--tape", "@00001", "--mode", "numeric",
                 "--json", "--budget", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "halted" and doc["head"] == 5
    assert doc["max_deviation"] < 1e-30
    assert doc["walls_built"] > 0 and doc["max_candidates"] > 0
    assert doc["denominator_bits"] == 50


def test_run_json_reports_the_period_and_runs_once(tmp_path, capsys, monkeypatch):
    from carom import cli, numeric
    path = tmp_path / "pacer.tm"
    path.write_text(MACHINE_TEXTS["pacer"])
    argv = ["run", str(path), "--tape", "@1", "--budget", "100", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["period_steps"] == 2 and "period_bounces" not in doc
    # the numeric modes run the symbolic engine once, inside run_numeric
    calls, run_symbolic = [], numeric.run_symbolic

    def counted(*args):
        calls.append(args)
        return run_symbolic(*args)

    monkeypatch.setattr(numeric, "run_symbolic", counted)
    monkeypatch.setattr(cli, "run_symbolic", counted)
    for mode in ("numeric", "both"):
        assert main(argv + ["--mode", mode]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["period_steps"] == 2 and got["period_bounces"] == 20
        assert got["verdict"] == "budget-exhausted" and got["steps"] == 100
    assert len(calls) == 2
    # a run that never returns reports null for both
    assert main(argv[:3] + ["@", "--budget", "1", "--json", "--mode", "both"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["period_steps"] is None and got["period_bounces"] is None


def test_run_trace_file(rev_move_file, tmp_path, capsys):
    trace = tmp_path / "trace.log"
    assert main(["run", rev_move_file, "--K", "4", "--tape", "@001",
                 "--trace", str(trace), "--budget", "50"]) == 0
    text = trace.read_text()
    assert "verdict: halted" in text
    assert "reflection" in text


def test_run_trace_of_a_closed_orbit_is_one_period(tmp_path, capsys):
    # pacer @1 closes after 2 steps: its log is the first period's events
    # and one repeat line, whatever the budget
    path = tmp_path / "pacer.tm"
    path.write_text(MACHINE_TEXTS["pacer"])
    logs = {}
    for budget in (100, 10 ** 12):
        trace = tmp_path / f"trace-{budget}.log"
        t0 = time.perf_counter()
        assert main(["run", str(path), "--tape", "@1", "--budget", str(budget),
                     "--trace", str(trace)]) == 0
        assert time.perf_counter() - t0 < 1.0
        logs[budget] = trace.read_text().splitlines()
    events, tail = logs[100][:-3], logs[100][-3:]
    assert tail == ["repeat: period_steps=2 until_step=100", "verdict: budget-exhausted",
                    "steps: 100"]
    assert logs[10 ** 12] == events + ["repeat: period_steps=2 until_step=1000000000000",
                                       "verdict: budget-exhausted", "steps: 1000000000000"]
    # the period: the launch checkpoint of step 0 up to the events of step 1
    assert events[0].startswith("0 checkpoint ") and events[-1].startswith("1 reflection ")
    assert sum(" checkpoint " in line for line in events) == 2


def test_verify_cli(rev_move_file, capsys):
    assert main(["verify", rev_move_file, "--K", "6", "--support", "1",
                 "--budget", "50", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] and doc["tapes"] == 8


def test_verify_support_past_the_tape_cap_fails_fast(rev_move_file, capsys):
    # --support 40 would list 2^81 tapes: refused on the cell count, before
    # the table is compiled or any tape is listed
    t0 = time.process_time()
    assert main(["verify", rev_move_file, "--support", "40"]) == 2
    assert time.process_time() - t0 < 1.0
    assert "--support 40" in capsys.readouterr().err


def check_audit_json(K, pairs, blocks, capsys):
    assert main(["audit", "--K", str(K), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    assert doc["pairs"] == pairs
    assert doc["min_slack"] == str(Fraction(4, 3 ** (3 * K + 2)))
    assert doc["blocks"] == blocks
    assert doc["tightest"] == [K, K]   # the deepest level's blocks sit closest


def test_audit_cli(capsys):
    check_audit_json(3, 16_002, 254, capsys)


def test_audit_cli_K6(capsys):
    check_audit_json(6, 67_084_290, 16_382, capsys)


def test_audit_past_the_block_cap_fails_before_the_sweep(capsys, monkeypatch):
    # K = 10 has 4,194,302 blocks, past AUDIT_MAX_BLOCKS = 2^20: refused on
    # the count, before any block is swept; K = 9's 1,048,574 reach the sweep
    from carom import cli
    swept = []
    monkeypatch.setattr(cli, "check_separation", lambda K: swept.append(K) or [])
    for K in (10, 64):
        assert main(["audit", "--K", str(K)]) == 2
        assert f"--K {K} would sweep {2 ** (2 * K + 2) - 2} blocks" in capsys.readouterr().err
    assert swept == []
    assert main(["audit", "--K", "9", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"] == 1_048_574 and swept == [9]


def test_svg_cli(rev_move_file, tmp_path, capsys):
    out = tmp_path / "table.svg"
    assert main(["svg", rev_move_file, "--K", "2", "-o", str(out)]) == 0
    import xml.etree.ElementTree as ET
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")


def test_svg_of_a_closed_orbit_draws_one_period(tmp_path, capsys):
    # the polyline of a closed orbit is its launch point, one period of
    # hits and the period's first hit again, whatever the budget: the
    # first period_bounces + 2 points of the trajectory
    import xml.etree.ElementTree as ET
    from pathlib import Path

    from carom.machine import parse_machine, parse_tape
    from carom.numeric import run_numeric
    from carom.table import compile_table

    pacer = Path(__file__).resolve().parent.parent / "demos" / "machines" / "pacer.tm"
    out = tmp_path / "pacer.svg"
    t0 = time.perf_counter()
    assert main(["svg", str(pacer), "--tape", "@1", "--budget", str(10 ** 12),
                 "-o", str(out)]) == 0
    assert time.perf_counter() - t0 < 1
    polyline = ET.fromstring(out.read_text()).find(".//{http://www.w3.org/2000/svg}polyline")
    drawn = polyline.get("points").split()
    result = run_numeric(compile_table(parse_machine(pacer.read_text()), 8),
                         parse_tape("@1"), 100)
    assert len(drawn) == result.period_bounces + 2
    assert drawn == [f"{x:.12g},{y:.12g}" for x, y in result.points[:len(drawn)]]
    assert drawn[-1] == drawn[1]


def test_svg_levels_past_the_wall_cap_fail_fast(rev_move_file, tmp_path, capsys):
    # rev-move at K=12 lists 134,217,742 walls at --levels 12: refused on
    # the O(K) count, before any wall is listed
    out = tmp_path / "table.svg"
    t0 = time.process_time()
    assert main(["svg", rev_move_file, "--K", "12", "--levels", "12", "-o", str(out)]) == 2
    assert time.process_time() - t0 < 1.0
    assert "134217742 walls" in capsys.readouterr().err
    assert not out.exists()
    assert main(["svg", rev_move_file, "--K", "12", "--levels", "2", "-o", str(out)]) == 0
    import xml.etree.ElementTree as ET
    assert ET.fromstring(out.read_text()).tag.endswith("svg")


def test_negative_counts_rejected(rev_move_file, tmp_path, capsys):
    assert main(["verify", rev_move_file, "--K", "2", "--support", "-3"]) == 2
    assert "--support" in capsys.readouterr().err
    out = tmp_path / "table.svg"
    assert main(["svg", rev_move_file, "--K", "2", "--levels", "-2", "-o", str(out)]) == 2
    assert "--levels" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_rejected(rev_move_file):
    assert main(["run", rev_move_file, "--K", "0", "--tape", "@"]) == 2
    # the trace is exact: there is no --precision, and argparse exits 2
    for digits in ("10", "60"):
        with pytest.raises(SystemExit) as exc:
            main(["run", rev_move_file, "--precision", digits, "--tape", "@"])
        assert exc.value.code == 2


@pytest.mark.parametrize("K, mangle, message", [
    (2, lambda doc: doc["meta"].pop("scene_levels") and doc, "not a carom table file"),
    (2, lambda doc: [], "not a carom table file"),
    (2, lambda doc: {**doc, "meta": None}, "not a carom table file"),
    (2, lambda doc: {**doc, "meta": {**doc["meta"], "K": 0}}, "K must be >= 1"),
    (2, lambda doc: {**doc, "meta": {**doc["meta"], "scene_levels": -1}},
     "scene_levels must be >= 0"),
    # a recompile would list about 4^10 walls a mirror family: refused on
    # the count of walls before any is listed
    (10, lambda doc: {**doc, "meta": {**doc["meta"], "scene_levels": 10}},
     "stored scene lists"),
], ids=["no-scene-levels", "top-level-list", "null-meta", "zero-K",
        "negative-scene-levels", "deep-scene-levels"])
def test_malformed_table_file_is_input_error(rev_move_file, tmp_path, capsys, K, mangle,
                                             message):
    # a wrong-shaped table document is an input error (exit 2), not a crash
    # or a hang
    table_file = tmp_path / "table.json"
    assert main(["compile", rev_move_file, "-o", str(table_file), "--K", str(K)]) == 0
    table_file.write_text(json.dumps(mangle(json.loads(table_file.read_text()))))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["run", str(table_file), "--tape", "@"]) == 2
    assert time.perf_counter() - t0 < 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indent-2"])
def test_reformatted_table_file_is_compared_by_value(rev_move_file, tmp_path, indent):
    # a table file json re-dumped in another format still loads and gives
    # the same table; the same file with one mirror coordinate moved does not
    table_file = tmp_path / "table.json"
    assert main(["compile", rev_move_file, "-o", str(table_file), "--K", "3"]) == 0
    text = table_file.read_text()
    doc = json.loads(text)
    table_file.write_text(json.dumps(doc, indent=indent))
    assert main(["run", str(table_file), "--tape", "@01"]) == 0
    assert load_table(table_file.read_text()).to_json() == text
    mirror = next(w for w in doc["scene"] if w["id"].startswith("split:A:k1:"))
    n, d = map(int, mirror["p1"][1].split("/"))
    mirror["p1"][1] = str(Fraction(n + 1, d))
    table_file.write_text(json.dumps(doc, indent=indent))
    assert main(["run", str(table_file), "--tape", "@01"]) == 2


def test_symbolic_commands_do_not_load_mpmath(rev_move_file, tmp_path):
    # a fresh interpreter, with mpmath installed or not: no carom command,
    # numeric runs and traced svgs included, loads it
    import subprocess
    import sys
    from pathlib import Path

    table = tmp_path / "rev-move.json"
    svg = tmp_path / "rev-move.svg"
    script = f"""
import contextlib, io, sys
import carom.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [carom.cli.main(["compile", {rev_move_file!r}, "-o", {str(table)!r}, "--K", "3"]),
             carom.cli.main(["audit", "--K", "2"]),
             carom.cli.main(["verify", {str(table)!r}, "--support", "1"]),
             carom.cli.main(["run", {str(table)!r}, "--tape", "@1", "--mode", "numeric"]),
             carom.cli.main(["svg", {str(table)!r}, "--tape", "@1", "-o", {str(svg)!r}])]
print(codes, "mpmath" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, check=True).stdout
    assert out.splitlines() == ["[0, 0, 0, 0, 0] False"]
    assert svg.read_text().count("<polyline") == 1
