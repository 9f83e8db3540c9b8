"""Property test of the exit-code contract: malformed inputs never escape as tracebacks.

`main` must return, or exit through argparse, with 0 pass, 1 violations,
2 usage error or 3 budget exhausted, for any argv and any machine file.
Depths stay at most 3 and search budgets at most 50 so each example is
cheap.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtoy import pauli
from pmtoy.cli import BUILTIN_MACHINES, main
from pmtoy.extension import four_state_machine
from pmtoy.verify import FAMILIES

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
NAMES = st.sampled_from(pauli.OBSERVABLE_NAMES + ("Q7", "", "z1")) | st.text(max_size=4)
INF, NAN = float("inf"), float("nan")
OUTPUTS = st.sampled_from([1, -1, 0, 2, 1.0, True, "1", "x", INF, NAN, None, []])
PROBS = st.sampled_from(["1", "1/2", "0", "-1", "2", "1/0", "nan", "inf", "x", INF, NAN, 1, None])
DEPTHS = st.sampled_from(["-1", "0", "1", "2", "3", "x"])


@st.composite
def machine_files(draw):
    """The paper4 machine's JSON with one malformation, arbitrary JSON, or not JSON."""
    doc = four_state_machine().to_json_dict()
    label = draw(st.sampled_from(doc["states"]))
    inp = draw(st.sampled_from(doc["inputs"]))
    edges = [e for row in doc["transitions"].values() for e in row.values() if e]
    kind = draw(st.integers(0, 10))
    if kind == 1:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == 2:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON)
    elif kind == 3:
        doc["inputs"][draw(st.integers(0, 8))] = draw(NAMES)
    elif kind == 4:
        doc["inputs"].append(draw(NAMES))
    elif kind == 5:
        doc["outputs"][label][inp] = draw(OUTPUTS)
    elif kind == 6:
        draw(st.sampled_from(edges))[0]["prob"] = draw(PROBS)
    elif kind == 7:
        draw(st.sampled_from(edges))[0]["to"] = draw(st.text(max_size=8) | JSON)
    elif kind == 8:
        # Rename an input everywhere, so the file still loads.
        doc = json.loads(json.dumps(doc).replace(json.dumps(inp), json.dumps(draw(NAMES))))
    elif kind == 9:
        doc = draw(JSON)
    elif kind == 10:
        return draw(st.text(max_size=20))
    return json.dumps(doc)


def _options(draw, options):
    """Each option with a drawn value; some are left out, but never the cost bounds."""
    argv = []
    for flag, values in options:
        if flag in ("--machine", "--family", "--depth", "--budget") or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def argvs(draw, machines, output_dir):
    formats = st.sampled_from(["json", "csv", "text", "text-table", "xml"])
    outputs = st.sampled_from([str(output_dir / "report"), str(output_dir / "no-dir" / "report")])
    common = [("--format", formats), ("--output", outputs)]
    command = draw(st.sampled_from(["verify", "dump", "simulate", "search", "ks-scan", "junk"]))
    if command == "verify":
        options = [("--machine", machines), ("--depth", DEPTHS)] + common
    elif command == "dump":
        options = [("--machine", machines)] + common
    elif command == "simulate":
        options = [
            ("--machine", machines),
            ("--start", st.sampled_from(["a", "b", "++++", "++++/col", "nowhere"])),
            ("--seq", st.lists(NAMES, max_size=4).map(",".join)),
            ("--seed", st.sampled_from(["0", "7", "-1", str(2**64 - 1), str(2**64)])),
        ]
    elif command == "search":
        families = st.sampled_from(tuple(FAMILIES) + ("bogus",))
        budgets = st.sampled_from(["-1", "0", "1", "5", "50"])
        options = [("--family", families), ("--depth", DEPTHS), ("--budget", budgets)] + common
    elif command == "ks-scan":
        options = common
    else:
        return draw(st.lists(st.text(max_size=8), max_size=4))
    return [command] + _options(draw, options)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize(
    "field, value",
    [
        ("output", INF),
        ("output", NAN),
        ("prob", "1/0"),
        ("prob", "0"),
        ("prob", INF),
        ("prob", "x"),
        ("prob", "1e0"),
        ("prob", "1e999999999"),
        (None, "[" * 100_000),
    ],
)
def test_bad_machine_file_exit_two(workdir, field, value):
    doc = four_state_machine().to_json_dict()
    if field == "output":
        doc["outputs"]["a"]["Z1"] = value
    elif field == "prob":
        doc["transitions"]["a"]["Z1Z2"][0]["prob"] = value
    path = workdir / "bad.json"
    path.write_text(json.dumps(doc) if field else value)
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["dump", "--machine", str(path)]) == 2
    assert err.getvalue().startswith("error: cannot load machine")


def assert_in_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_machine_files_stay_in_contract(workdir, data):
    path = workdir / "machine.json"
    path.write_text(data.draw(machine_files()))
    command = data.draw(st.sampled_from(["verify", "dump", "simulate"]))
    argv = [command, "--machine", str(path)]
    if command == "verify":
        argv += ["--depth", data.draw(st.sampled_from(["1", "2", "3"]))]
    elif command == "simulate":
        argv += ["--start", data.draw(st.sampled_from(["a", "b", "nowhere"]))]
        argv += ["--seq", data.draw(st.sampled_from(["Z1Z2", "X1Z2,Z1", "Q7"]))]
    assert_in_contract(argv)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_argv_stays_in_contract(workdir, data):
    path = workdir / "paper4.json"
    path.write_text(four_state_machine().to_json())
    machines = st.sampled_from(BUILTIN_MACHINES + ("bogus", "", str(path), str(workdir)))
    assert_in_contract(data.draw(argvs(machines, workdir)))
