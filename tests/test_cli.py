"""Command-line surface: exit codes, report formats, and reproducibility."""

import decimal
import json
import re
import subprocess
import sys

import pytest

from pm_figures import DIAGRAM_TABLES, FIGURE_16, FIGURE_32_RIGHT
from pmtoy.cli import main
from pmtoy.extension import four_state_machine
from pmtoy.toy import spekkens_machine


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_exit_zero_at_depth_six(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--machine", "extended32", "--depth", "6"
    )
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["machine"] == "extended32"
    assert report["depth"] == 6
    assert report["sequences_checked"] == 32 * sum(9**k for k in range(1, 7))


def test_verify_violations_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--machine", "spekkens16", "--depth", "3"
    )
    assert code == 1
    report = json.loads(out)
    assert report["violations"]
    v = report["violations"][0]
    assert set(v) == {
        "kind", "start", "sequence", "outputs", "positions", "expected", "observed",
    }


def test_verify_unknown_machine_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--machine", "bogus_machine")
    assert code == 2
    assert "unknown machine" in err


def test_verify_bad_depth_exit_two(capsys):
    for depth in ("0", "100001"):
        code, _, err = run_cli(capsys, "verify", "--machine", "extended32", "--depth", depth)
        assert code == 2
        assert "depth" in err


def test_verify_paper4_reports_label_discrepancy(capsys):
    code, out, _ = run_cli(capsys, "verify", "--machine", "paper4", "--depth", "2")
    assert code == 0
    report = json.loads(out)
    assert any("label discrepancy" in note for note in report["notes"])


def test_verify_reports_byte_identical_except_elapsed(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "verify", "--machine", "spekkens16", "--depth", "3"
        )
        assert code == 1
        outs.append(out)
    scrub = lambda s: re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": X', s)
    assert scrub(outs[0]) == scrub(outs[1])


def test_verify_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--machine", "paper4", "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_huge_depth_renders_exact_count(capsys):
    expected = 32 * 9 * (9**5000 - 1) // 8  # 4 772 digits
    code, out, _ = run_cli(capsys, "verify", "--machine", "extended32", "--depth", "5000")
    assert code == 0
    count = json.loads(out)["sequences_checked"]
    assert decimal.Decimal(count) == expected
    code, out, _ = run_cli(
        capsys, "verify", "--machine", "extended32", "--depth", "5000", "--format", "text"
    )
    assert code == 0
    assert f"sequences checked: {count}\n" in out
    code, out, _ = run_cli(capsys, "verify", "--machine", "extended32", "--depth", "100000")
    assert code == 0
    assert len(json.loads(out)["sequences_checked"]) == 95426


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--machine", "spekkens16", "--depth", "3", "--format", "csv",
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "kind,start,sequence,outputs,positions,expected,observed"
    assert any("context_product" in line for line in lines[1:])


def test_verify_machine_from_json_file(capsys, tmp_path):
    path = tmp_path / "machine.json"
    path.write_text(spekkens_machine().to_json())
    code, out, _ = run_cli(
        capsys, "verify", "--machine", str(path), "--depth", "3"
    )
    assert code == 1
    assert json.loads(out)["machine"] == "spekkens16"


def test_verify_malformed_machine_file_exit_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--machine", str(path))
    assert code == 2
    assert "cannot load machine" in err


def _machine_file(tmp_path, inputs):
    # paper4's file with its input columns renamed in place; a name given
    # twice keeps the later column, and MealyMachine would refuse it.
    data = four_state_machine().to_json_dict()
    for table in ("outputs", "transitions"):
        for label, row in data[table].items():
            data[table][label] = {inputs[i]: v for i, v in enumerate(row.values())}
    data["inputs"] = list(inputs)
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),
        ("dump",),
        ("simulate", "--start", "a", "--seq", "Z1Z2"),
    ],
)
def test_machine_with_non_pm_inputs_exit_two(capsys, tmp_path, argv):
    names = four_state_machine().inputs
    for inputs, bad in (
        (("Q7",) + names[1:], "Q7"),
        (names[:-1] + (names[0],), "each once"),
    ):
        path = _machine_file(tmp_path, inputs)
        code, out, err = run_cli(capsys, argv[0], "--machine", path, *argv[1:])
        assert code == 2
        assert bad in err
        assert out == ""


def test_unwritable_report_path_exit_two(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    code, _, err = run_cli(capsys, "ks-scan", "--output", str(target))
    assert code == 2
    assert "cannot write report" in err


def test_ks_scan_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "ks-scan")
    assert code == 0
    assert "satisfying the QM context signs (rows +1, cols 1-2 +1, col 3 -1): 0" in out
    assert "all-plus context signs: 16" in out
    code, out, _ = run_cli(capsys, "ks-scan", "--format", "json")
    data = json.loads(out)
    assert data["qm_satisfying"] == 0
    assert data["all_plus_satisfying"] == 16
    assert all(int(k) % 2 == 0 for k in data["minus_product_histogram"])


def test_simulate_reproducible_and_product(capsys):
    args = (
        "simulate", "--machine", "extended32", "--start", "a",
        "--seq", "Z1Z2,X1X2,Y1Y2", "--seed", "11",
    )
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    outputs = [int(m) for m in re.findall(r"output ([+-]1)", out1)]
    assert outputs[0] * outputs[1] * outputs[2] == -1


def test_simulate_spekkens_start_label(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--machine", "spekkens16", "--start", "++++", "--seq", "Z1",
    )
    assert code == 0
    assert "output +1" in out


def test_simulate_empty_sequence_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--machine", "spekkens16", "--start", "++++", "--seq", " "
    )
    assert code == 2
    assert "empty" in err


def test_simulate_unknown_observable_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--machine", "spekkens16", "--start", "++++", "--seq", "Z1,Q7",
    )
    assert code == 2
    assert "Q7" in err


def test_dump_spekkens_matches_figure(capsys):
    code, out, _ = run_cli(
        capsys, "dump", "--machine", "spekkens16", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert [st["table"] for st in data["states"]] == FIGURE_16
    assert all(st["qm_deviation"] == ["col3"] for st in data["states"])


def test_dump_extended_matches_both_figure_halves(capsys):
    code, out, _ = run_cli(
        capsys, "dump", "--machine", "extended32", "--format", "json"
    )
    data = json.loads(out)
    tables = [st["table"] for st in data["states"]]
    assert tables[:16] == FIGURE_16
    assert tables[16:] == FIGURE_32_RIGHT
    devs = {tuple(st["qm_deviation"]) for st in data["states"]}
    assert devs == {("col3",), ("row3",)}


def test_dump_paper4_is_the_diagram(capsys):
    code, out, _ = run_cli(capsys, "dump", "--machine", "paper4", "--format", "json")
    data = json.loads(out)
    assert {st["label"]: st["table"] for st in data["states"]} == DIAGRAM_TABLES


def test_dump_text_table(capsys):
    code, out, _ = run_cli(capsys, "dump", "--machine", "paper4")
    assert code == 0
    assert "+++/+++/+++" in out
    assert "deviation: col3" in out and "deviation: row3" in out


def test_search_paper4(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--family", "paper4", "--depth", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["exhausted"] is True
    assert data["completions"] >= 1
    assert data["machines"]


def test_search_cplus16_certificate(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--family", "cplus16", "--depth", "3", "--format", "text"
    )
    assert code == 0
    assert "certificate: no machine in this family passes at this depth" in out


def test_search_budget_exhaustion_exit_three(capsys):
    code, _, _ = run_cli(
        capsys, "search", "--family", "all32-bit2", "--depth", "4", "--budget", "5"
    )
    assert code == 3


def test_deep_search_stops_at_the_budget_and_finds_the_depth_four_machine(capsys):
    # The product graph saturates, so a deep search stops at the node budget
    # like a shallow one, and with the default budget it finds what depth 4
    # finds.
    code, out, _ = run_cli(
        capsys, "search", "--family", "paper4", "--depth", "9", "--budget", "1"
    )
    assert code == 3
    assert json.loads(out)["exhausted"] is False
    reports = {}
    for depth in ("4", "100000"):
        code, out, _ = run_cli(capsys, "search", "--family", "paper4", "--depth", depth)
        assert code == 0
        reports[depth] = json.loads(out)
    assert reports["100000"]["completions"] == reports["4"]["completions"] == 1
    assert reports["100000"]["machines"] == reports["4"]["machines"]


def test_search_unknown_family_exit_two(capsys):
    code, _, err = run_cli(capsys, "search", "--family", "everything")
    assert code == 2
    assert "unknown family" in err


def test_output_path_and_report_dir(capsys, tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--machine", "extended32", "--depth", "2",
        "--output", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["machine"] == "extended32"
    assert str(target) in out

    report_dir = tmp_path / "reports"
    report_dir.mkdir()
    monkeypatch.setenv("PMTOY_REPORT_DIR", str(report_dir))
    code, out, _ = run_cli(capsys, "ks-scan", "--format", "json")
    assert code == 0
    written = list(report_dir.iterdir())
    assert len(written) == 1
    assert json.loads(written[0].read_text())["qm_satisfying"] == 0


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pmtoy.cli", "verify", "--machine", "paper4", "--depth", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["machine"] == "paper4"
