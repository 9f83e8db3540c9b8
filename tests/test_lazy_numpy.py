"""pmtoy runs without numpy, and compiles a monitor table only where it is walked.

numpy is a test dependency only: the package builds no matrix.  Each
test runs in a fresh interpreter, because this test process has already
imported numpy and compiled the tables.
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
        from pmtoy.cli import main
        after_import = "numpy" in sys.modules
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


def test_package_runs_with_numpy_blocked():
    # A None entry in sys.modules makes every `import numpy` raise ImportError.
    script = f"""
        import contextlib, importlib, io, json, pathlib, sys
        sys.modules["numpy"] = None
        import pmtoy
        from pmtoy import pauli
        from pmtoy.cli import main

        for f in pathlib.Path(pmtoy.__file__).parent.glob("*.py"):
            importlib.import_module("pmtoy" if f.stem == "__init__" else "pmtoy." + f.stem)
        codes = []
        for argv in {CLI_CASES!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))

        # Z1 then X1 from I/4, and Z1 alone through the benchmark's names.
        assert sorted(pauli.knowledge_runs(["Z1", "X1"]).values()) == [0.25] * 4
        runs = pauli.tree_transcripts(pauli.qm_outcome_tree(["Z1"]))
        assert dict(runs) == {{(1,): 0.5, (-1,): 0.5}}
        try:
            pauli.NO_SUCH_NAME
        except AttributeError:
            pass
        else:
            raise AssertionError("pauli.NO_SUCH_NAME did not raise")
        print(json.dumps(codes))
    """
    codes = json.loads(run_fresh(script))
    assert len(codes) == len(CLI_CASES)
    assert all(code in (0, 1) for code in codes), codes


def test_monitor_tables_are_compiled_only_by_the_commands_that_walk_them():
    # Neither table is built at import: `ks-scan`, `simulate` and `dump`
    # compile none, `verify` only the reduced one, `search` the raw one too.
    script = """
        import contextlib, io, json
        from pmtoy.cli import main
        from pmtoy.verify import _compiled

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) in (0, 1), argv
            return _compiled.cache_info().currsize

        sizes = [_compiled.cache_info().currsize]
        sizes += [run(["ks-scan", "--format", "json"])]
        sizes += [run(["simulate", "--machine", "extended32", "--start", "a",
                       "--seq", "Z1Z2,X1X2,Y1Y2", "--seed", "11"])]
        sizes += [run(["dump", "--machine", "extended32"])]
        sizes += [run(["verify", "--machine", "extended32", "--depth", "3"])]
        misses = _compiled.cache_info().misses
        _compiled(True)
        reduced_was_compiled = _compiled.cache_info().misses == misses
        sizes += [run(["search", "--family", "paper4", "--depth", "3"])]
        print(json.dumps([sizes, reduced_was_compiled]))
    """
    sizes, reduced_was_compiled = json.loads(run_fresh(script))
    assert sizes == [0, 0, 0, 0, 1, 2]
    assert reduced_was_compiled
