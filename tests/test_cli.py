"""Command-line surface: exit codes, report formats, and reproducibility."""

import decimal
import hashlib
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


# sha256 of each builtin's `pmtoy verify` report with its "elapsed_ms" line
# removed, recorded at commit 595469a: reports stay byte-identical across
# changes to the verifier, not only from one run to the next.
GOLDEN_REPORTS = {
    ("extended32", 3, "csv"): "921d609b421b452af72cbba5634ff470d564c1d1784198a22509f88a4a3b86c5",
    ("extended32", 3, "json"): "e913e927cc67e50939b04655f7ec4f6bb63d07be06f107a4849f31e7c66722eb",
    ("extended32", 3, "text"): "f4b15a6a992897e96a0b662935fc89b674287ffa3bd38197986bcd63d4b62c92",
    ("extended32", 6, "csv"): "921d609b421b452af72cbba5634ff470d564c1d1784198a22509f88a4a3b86c5",
    ("extended32", 6, "json"): "077cacfb782218282c338ee2b0d85a9ed3a3512bd87c72379db061cbad8c64ed",
    ("extended32", 6, "text"): "8ff0101e7a94f190411907c16675c20cf07f267e5d388dff97d1a8f360d9f367",
    ("extended32-randomized", 3, "csv"): "921d609b421b452af72cbba5634ff470d564c1d1784198a22509f88a4a3b86c5",
    ("extended32-randomized", 3, "json"): "141a8ad168eb470a67752818d4ae2aea5213e5e5f10f2a952f923ebc6efa4d07",
    ("extended32-randomized", 3, "text"): "f93c086cf11fb0f3b722b0583a67d01a3ad4446a0f6dd28a456eda51d5a39445",
    ("extended32-randomized", 6, "csv"): "921d609b421b452af72cbba5634ff470d564c1d1784198a22509f88a4a3b86c5",
    ("extended32-randomized", 6, "json"): "c570a9eae7f573f229d236c0aba648533c02e2ff0d3389818f71dcbfbce27010",
    ("extended32-randomized", 6, "text"): "dab85c5902b0fd460f6302fbf1c49e864eef8cd8ed20a1173ecd46e8a06f5383",
    ("paper4", 3, "csv"): "921d609b421b452af72cbba5634ff470d564c1d1784198a22509f88a4a3b86c5",
    ("paper4", 3, "json"): "f8b3741035b059344f8ed49fb498edcd28b742946edbe5430a6e5b7cac597c40",
    ("paper4", 3, "text"): "8f507f3a990c5d7d75630e36221948e1007697e0366999b42d4726e38545f194",
    ("paper4", 6, "csv"): "921d609b421b452af72cbba5634ff470d564c1d1784198a22509f88a4a3b86c5",
    ("paper4", 6, "json"): "5f02bc1bfdd49d2dec7f535e04c39f7a5bb70323bdda02d2b8da4a4f67c791ca",
    ("paper4", 6, "text"): "d6ebb56207c87796bc1c70d5040282d87e18c2844ba7cecc64f963f74ee6b677",
    ("spekkens16", 3, "csv"): "2041f9e6347dfe15656ec261c6ecadcf2b3b0809eb7a3445bc602d418275337b",
    ("spekkens16", 3, "json"): "c730e5586bfd7e8bab5007ea3c46e8747130a9c04ff1d3bc263c99964459dbb4",
    ("spekkens16", 3, "text"): "22a111e42061e348eb9795ce3fc824361c96c71d765c310d9f00d79ff90a456b",
    ("spekkens16", 6, "csv"): "2041f9e6347dfe15656ec261c6ecadcf2b3b0809eb7a3445bc602d418275337b",
    ("spekkens16", 6, "json"): "cd1272e17efd2282496bc84a7abe433f6eb2d4d62d3d2ccbdbba1f3390162a4e",
    ("spekkens16", 6, "text"): "7d93a802992159df589fccecfdc4fee7f79aaf2da97c9a2ec5f8915634f93396",
}


@pytest.mark.parametrize("machine, depth, fmt", sorted(GOLDEN_REPORTS))
def test_verify_reports_match_golden_hashes(capsys, machine, depth, fmt):
    code, out, _ = run_cli(
        capsys, "verify", "--machine", machine, "--depth", str(depth), "--format", fmt
    )
    assert code == (1 if machine == "spekkens16" else 0)
    kept = "".join(line for line in out.splitlines(True) if '"elapsed_ms"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == GOLDEN_REPORTS[machine, depth, fmt]


# sha256 of the rest of the CLI's outputs, recorded at commit 7ed772f. None
# of them carries a timing, so each must stay byte-identical across commits.
GOLDEN_OUTPUTS = {
    "search --family paper4 --depth 4 --format json": "63268a141b068bfa1955f79924dfc9a622a77d4d05f66df36c37f91e534ff919",
    "search --family paper4 --depth 4 --format text": "3e587f76d73d14c8dce7f34b497308618aa09147392013f2fc9adbf4f08a1ba8",
    "search --family cplus16 --depth 4 --format json": "9c0e6143a13a2c9d08a4fda7a5e3310b0bb2ccc72445370fc946bd79501329b2",
    "search --family cplus16 --depth 4 --format text": "ae6994632dbe7ee376baf21de6f80f46421b13a949cfed0ee0ec3ac8253ef12a",
    "search --family all32-bit2 --depth 4 --format json": "4bb5b5a025aa86a770a94472278690e15835636408e9fd105599371dd4d54732",
    "search --family all32-bit2 --depth 4 --format text": "ccf07d6dc7a1690c45518287a54a6a60574c360a34aa99a0cffba46178bb957e",
    "dump --machine spekkens16 --format json": "8d62343bbda48b8970b984b591d8d8af95a0f401884067c4e78fb0ec779dc742",
    "dump --machine spekkens16 --format text": "c1d9004485769c2e481fe9377cea52d0cdc1df19fc9e151a1f9f57418874846b",
    "dump --machine extended32 --format json": "34f4a8dde77e1665fafa00fcf016c4f995c86b47f270f013363070ee3bcd754f",
    "dump --machine extended32 --format text": "d44efe15445604450efe65ae104db1931b4c0a4a08495990d370cc1b06b8c53e",
    "dump --machine extended32-randomized --format json": "b4c2b12de27e39697d25aa09421e2877cd6e3c09d54d2c5dfa2545de1bcdd7f2",
    "dump --machine extended32-randomized --format text": "bb91ff23c8c4392264c88f5f4f77d80f1bbe016329af40b92a74cea5501645f4",
    "dump --machine paper4 --format json": "9a4471bc2ada7e1150606d2b4821d398e242005ffbf15119a2e027d053219810",
    "dump --machine paper4 --format text": "d35191e67e1adbd626ad716aab144a543444cc6396f4b270ad09e5a2b1cc8fcb",
    "ks-scan --format json": "425e36266c014f9fb1c44010e06b069df2271a80c9d24a55727c83037478dea1",
    "ks-scan --format text": "cc8d1ee2d90c53fe9496221cb22063ae6ae060c6586ffcf78f7d86bb92052686",
    "simulate --machine extended32-randomized --start a --seq Z1Z2,X1X2,Y1Y2,Z1,X2,Z1Z2 --seed 7": "b4989c4d261d638bec7cf12b396a9fc5bf1990ba931c3de75afbe3f499377c83",
    "simulate --machine spekkens16 --start ++++ --seq Z1,X1X2,Y1Y2,Z1X2,X1 --seed 11": "2c48eee6d3df4ac13f2b59e61c16937f5e989d2023de90832c7aa568a44ba540",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_OUTPUTS))
def test_outputs_match_golden_hashes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OUTPUTS[argv]


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


@pytest.mark.parametrize("value", [1.7, True, "1", -1.2])
def test_verify_machine_file_with_a_non_integer_output_exit_two(capsys, tmp_path, value):
    # Only what `to_json_dict` writes loads: an output is the JSON integer
    # 1 or -1, never a value `int` would coerce to one.
    data = four_state_machine().to_json_dict()
    data["outputs"]["a"]["Z1"] = value
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "verify", "--machine", str(path))
    assert code == 2
    assert "cannot load machine" in err and "output" in err



def test_verify_machine_file_with_keys_to_json_dict_never_writes_exit_two(capsys, tmp_path):
    data = four_state_machine().to_json_dict()
    data["name"] = [1, {"x": None}]
    data["outputs"]["zz"] = data["outputs"]["a"]
    data["extra"] = True
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--machine", str(path), "--depth", "2")
    assert code == 2
    assert "cannot load machine" in err
    assert out == ""


def _all_plus_machine_file(tmp_path, states, row):
    names = list(four_state_machine().inputs)
    data = {
        "name": "odd",
        "inputs": names,
        "states": states,
        "outputs": {s: {n: 1 for n in names} for s in states},
        "transitions": {s: {n: row for n in names} for s in states},
    }
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--depth", "3", "--format", "text"),
        ("dump",),
        ("simulate", "--start", "p", "--seq", "Z1"),
    ],
)
@pytest.mark.parametrize(
    "states, row, bad",
    [
        ([], [], "no states"),
        (["p"], [{"to": "p", "prob": "1/2"}, {"to": "p", "prob": "1/2"}], "repeated successor"),
    ],
)
def test_machine_file_with_no_states_or_a_repeated_successor_exit_two(
    capsys, tmp_path, argv, states, row, bad
):
    # With no states, verify would check no sequence and pass.
    path = _all_plus_machine_file(tmp_path, states, row)
    code, out, err = run_cli(capsys, argv[0], "--machine", path, *argv[1:])
    assert code == 2
    assert "cannot load machine" in err and bad in err
    assert out == ""


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
    # `text` is the one text format and the default.
    assert run_cli(capsys, "dump", "--machine", "paper4", "--format", "text") == (code, out, "")
    with pytest.raises(SystemExit) as exc:
        main(["dump", "--machine", "paper4", "--format", "text-table"])
    assert exc.value.code == 2


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
