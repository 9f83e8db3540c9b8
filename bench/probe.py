"""Set-up probe: run in a fresh interpreter, it pays what every CLI call pays.

It imports numpy and `pmtoy.cli`, builds every builtin machine, both
rejected variants and every candidate family, and prints the time of
each step as one JSON line.  The caller times the whole process and puts
`src` on PYTHONPATH.
"""

import json
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (timed on its own: pmtoy.pauli imports it)

t1 = time.perf_counter()
from pmtoy import cli  # noqa: E402

t2 = time.perf_counter()
build_ms = {}
for name in cli.BUILTIN_MACHINES:
    b0 = time.perf_counter()
    cli.build_machine(name)
    build_ms[name] = (time.perf_counter() - b0) * 1000

from pmtoy.extension import variant_machine  # noqa: E402
from pmtoy.verify import FAMILIES  # noqa: E402

t3 = time.perf_counter()
for kind in ("single_trigger", "same_destination"):
    variant_machine(kind)
t4 = time.perf_counter()
for make in FAMILIES.values():
    make()

print(
    json.dumps(
        {
            "cli.numpy_import_ms": (t1 - t0) * 1000,
            "cli.import_ms": (t2 - t1) * 1000,
            "cli.build_machine_ms": sum(build_ms.values()),
            "toy.build_ms": build_ms["spekkens16"],
            "extension.build_ms": sum(v for k, v in build_ms.items() if k != "spekkens16"),
            "extension.variant_build_ms": (t4 - t3) * 1000,
        }
    )
)
