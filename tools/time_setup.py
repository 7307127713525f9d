"""Time one command's set-up, a change against its parent commit.

Usage, from the root of the repository:

    python3 tools/time_setup.py --parent REV [--rounds 10] [--append BENCH_N.json]

``bench_pair.time_main`` compares this checkout with REV.  Each round runs
this script once on each side (``--measure``), in a fresh process that
imports numpy and the standard-library modules deffuant imports (STDLIB)
first, then prints one JSON object of milliseconds:

* ``import.own_ms``: ``import deffuant; from deffuant import cli,
  montecarlo``, as ``perfbench/command.py`` times it: deffuant's own
  modules compiled from source (no bytecode is read or written, as under
  the benchmark's PYTHONDONTWRITEBYTECODE) and run;
* ``import.factory_ms``: the part of that import spent in
  ``dataclasses._process_class``, which writes each ``@dataclass``'s
  methods as source text and compiles it;
* ``setup.<label>_ms``: ``import.own_ms`` plus ``cli.load_config`` of the
  benchmark config <label> (perfbench/workloads.py), the first load of each
  config in the process, the four loaded in workload order.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from bench_pair import ROOT, time_main

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

STDLIB = ("argparse", "array", "bisect", "dataclasses", "enum", "functools", "hashlib", "json",
          "math", "os", "pathlib", "pickle", "typing")


def measure() -> dict:
    """The figures of the deffuant on the path (see the module docstring)."""
    import importlib

    import numpy  # noqa: F401

    for name in STDLIB:
        importlib.import_module(name)
    import dataclasses

    spent = []
    process_class = dataclasses._process_class

    def timed_process_class(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return process_class(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - t0)

    dataclasses._process_class = timed_process_class
    with tempfile.TemporaryDirectory(prefix="time-setup-") as tmp:
        configs = {}
        for workload in WORKLOADS.values():
            for label, config in ((workload.simulate_label, workload.simulate),
                                  (workload.estimate_label, workload.estimate)):
                configs[label] = Path(tmp) / f"{label}.json"
                configs[label].write_text(json.dumps(config))
        sys.dont_write_bytecode = True
        sys.pycache_prefix = str(Path(tmp) / "no-bytecode")   # nothing cached there to read

        t0 = time.perf_counter()
        import deffuant  # noqa: F401
        from deffuant import cli, montecarlo  # noqa: F401
        own_ms = (time.perf_counter() - t0) * 1e3

        figures = {"import.own_ms": round(own_ms, 3),
                   "import.factory_ms": round(sum(spent) * 1e3, 3)}
        for label, path in configs.items():
            t0 = time.perf_counter()
            cli.load_config(str(path), argparse.Namespace())
            figures[f"setup.{label}_ms"] = round(own_ms + (time.perf_counter() - t0) * 1e3, 3)
    return figures


if __name__ == "__main__":
    sys.exit(time_main(
        __file__, __doc__, key="setup", unit="ms", rounds=10, measure=measure,
        jobs=lambda k: [()],
        method=("all of a round's figures measured in one fresh process, which imports numpy "
                "and the standard-library modules deffuant imports before it times "
                "deffuant's import")))
