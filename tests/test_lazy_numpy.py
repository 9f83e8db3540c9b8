"""numpy is loaded only where a matrix is built.

Each test runs in a fresh interpreter, because this test process has
already imported numpy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pmtoy

CLI_CASES = [
    *(["verify", "--machine", "extended32", "--depth", "3", "--format", f]
      for f in ("json", "csv", "text")),
    ["search", "--family", "paper4", "--depth", "3"],
    ["simulate", "--machine", "extended32", "--start", "a",
     "--seq", "Z1Z2,X1X2,Y1Y2", "--seed", "11"],
    *(["dump", "--machine", "extended32", "--format", f] for f in ("json", "text")),
    *(["ks-scan", "--format", f] for f in ("json", "text")),
]


def run_fresh(script: str) -> str:
    """Run `script` in a new interpreter that imports this checkout's pmtoy; return its stdout."""
    src = str(Path(pmtoy.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_subcommands_never_import_numpy():
    script = f"""
        import contextlib, io, json, sys
        import pmtoy
        after_import = "numpy" in sys.modules
        from pmtoy.cli import main
        results = []
        for argv in {CLI_CASES!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            results.append([" ".join(argv), code, "numpy" in sys.modules])
        print(json.dumps([after_import, results]))
    """
    after_import, results = json.loads(run_fresh(script))
    assert not after_import
    assert len(results) == len(CLI_CASES)
    for command, code, numpy_loaded in results:
        assert code in (0, 1), command
        assert not numpy_loaded, command


def test_matrix_api_imports_numpy_on_first_use():
    script = """
        import sys
        from pmtoy import pauli
        assert "numpy" not in sys.modules

        # The exact rule builds no matrix.
        runs = pauli.knowledge_runs(["Z1", "X1"])
        assert sorted(runs.values()) == [0.25] * 4
        assert "numpy" not in sys.modules

        # Z1 measured from I/4: the float oracle itself loads numpy.
        tree = pauli.qm_outcome_tree(["Z1"])
        assert [(b.outcome, b.probability) for b in tree.branches] == [(1, 0.5), (-1, 0.5)]
        assert "numpy" in sys.modules
        try:
            pauli.NO_SUCH_NAME
        except AttributeError:
            pass
        else:
            raise AssertionError("pauli.NO_SUCH_NAME did not raise")
        print("ok")
    """
    assert run_fresh(script) == "ok\n"
