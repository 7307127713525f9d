"""Time the geometry of the consensus bound, a change against its parent commit.

Usage, from the root of the repository:

    python3 tools/time_bound.py --parent REV [--rounds 10] [--append BENCH_N.json]

``bench_pair.time_main`` compares this checkout with REV.  Each round runs
this script once on each side (``--measure``), in a fresh process that
prints one JSON object of microseconds, each the best of 5 timed calls:

* ``<space>.<norm>``: ``chebyshev_center``, then ``expected_center_distance``
  from that centre with the ``estimate`` command's side stream at seed 7.
  The spaces are the unit square (``square``) and the disk of radius 1/2
  about (1/2, 1/2) (``ball2``) under each norm, the unit cube under
  euclidean (``cube``, where a Monte Carlo mean remains) and a 5-point cloud
  in the plane (``cloud5``);
* ``estimate_er100.bound_path``: ``cli.cmd_estimate`` on the ``large``
  benchmark's estimate-er100 config at seed 7, with ``run_ensemble`` stubbed
  out, so that it times what each side's command does besides the trials:
  the enclosing ball, E d(X, c) where that side computes it, and
  ``ensemble.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, best_us, time_main

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEED = 7
NORMS = ("euclidean", "l1", "linf")


def measure() -> dict:
    """The figures of the deffuant on the path (see the module docstring)."""
    import numpy as np

    from deffuant import (BallSpace, Box, ConsensusEstimate, EnsembleResult, PointCloud,
                          chebyshev_center, cli, expected_center_distance)
    from deffuant.model import side_stream

    cases = {f"square.{norm}": (Box([0.0, 0.0], [1.0, 1.0]), norm) for norm in NORMS}
    cases["cube.euclidean"] = (Box([0.0] * 3, [1.0] * 3), "euclidean")
    cases.update({f"ball2.{norm}": (BallSpace([0.5, 0.5], 0.5, norm), norm) for norm in NORMS})
    cases["cloud5.euclidean"] = (PointCloud(np.random.default_rng(SEED).random((5, 2))),
                                 "euclidean")

    def bound(space, norm):
        ball = chebyshev_center(space, norm)
        return expected_center_distance(space, ball.center, norm, rng=side_stream(SEED, "bound"))

    figures = {name: best_us(lambda: bound(*case), 5) for name, case in cases.items()}

    estimate = ConsensusEstimate(p_hat=0.5, ci_low=0.1, ci_high=0.9, n_trials=2, n_undecided=0)
    cli.run_ensemble = lambda *args, **kwargs: EnsembleResult(
        estimate=estimate, counts={"consensus": 1, "dissensus": 1, "undecided": 0}, rows=[])
    with tempfile.TemporaryDirectory(prefix="time-bound-") as tmp:
        path = Path(tmp) / "estimate.json"
        path.write_text(json.dumps(WORKLOADS["large"].estimate))
        config = cli.load_config(str(path), argparse.Namespace())
        with contextlib.redirect_stdout(io.StringIO()):
            figures["estimate_er100.bound_path"] = best_us(
                lambda: cli.cmd_estimate(config, 2, SEED, Path(tmp), 1, False), 5)
    return figures


if __name__ == "__main__":
    sys.exit(time_main(
        __file__, __doc__, key="bound", unit="us", rounds=10, measure=measure,
        jobs=lambda k: [()],
        method=("each figure is the best of 5 in-process calls, all of a round's figures "
                "measured in one fresh process")))
