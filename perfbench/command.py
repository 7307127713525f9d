"""Run one deffuant CLI command in this process and time its parts.

Usage: python3 perfbench/command.py SPEC.json

SPEC is a JSON object with these keys:

* ``argv``: arguments for ``deffuant.cli.main``;
* ``trace``: install the span tracer of spans.py;
* ``fault``: null, or "overshoot" to make every update use rate 0.9, which
  moves each agent past the pair midpoint;
* ``setup_only``: stop after ``cli.load_config``;
* ``probe``: sample the speed of the CPU while the command runs (SpeedProbe);
* ``result``: where to write the timings.

Set-up is the import of deffuant plus ``cli.load_config``; wall time is the
rest of ``cli.main``.  Both leave out the probe's own time.  The exit code is
the CLI's.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# What one probe loop takes, in thread CPU time, on a core of the 2-core
# Intel Xeon VM (Python 3.11.7) the benchmark was tuned on, at its usual
# speed.  A speed of 1 means that speed.
REFERENCE_PROBE_S = 0.002
PROBE_EVERY_S = 0.1


class SpeedProbe:
    """How fast this process's core runs Python, sampled ten times a second.

    On a shared machine the same command takes up to half as long again when
    other tenants load the core, and that load changes within seconds.  A
    sample times a fixed pure-Python loop in thread CPU time, so time spent
    waiting for the core does not count, only how fast it runs.  Samples are
    taken at the start, from a SIGALRM timer, and at the end.  ``speed`` is
    their mean over the command, relative to REFERENCE_PROBE_S.  ``clock``
    is perf_counter less the probe's own time.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.speeds: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        w0 = time.perf_counter()
        t0 = time.thread_time()
        acc = 0
        for i in range(20000):
            acc += (i * 7) % 13
        self.speeds.append(REFERENCE_PROBE_S / max(time.thread_time() - t0, 1e-9))
        self.spent += time.perf_counter() - w0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self):
        if self.enabled:
            self.sample()
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.sample()

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds) if self.speeds else 1.0


def _timed(func, sink: list, clock):
    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return func(*args, **kwargs)
        finally:
            sink.append(clock() - t0)
    return timed


def _inject_overshoot(cli) -> None:
    """Patch the CLI's engine entry so every update overshoots (rate 0.9)."""
    from deffuant.model import MuSchedule

    class Overshoot(MuSchedule):
        inf_positive = True

        def mu_at(self, t, rng):
            return 0.9

    real = cli.run_trajectory
    cli.run_trajectory = (lambda initial, schedule, mu, *args, **kwargs:
                          real(initial, schedule, Overshoot(), *args, **kwargs))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    with SpeedProbe(spec["probe"]) as probe:
        code, result = _run(spec, probe.clock)
    result["speed"] = probe.speed
    Path(spec["result"]).write_text(json.dumps(result))
    return code


def _run(spec: dict, clock) -> tuple[int, dict]:
    t0 = clock()
    import deffuant  # noqa: F401  (timed: part of set-up)
    from deffuant import cli, montecarlo
    import_s = clock() - t0

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["fault"] == "overshoot":
        _inject_overshoot(cli)

    load_s: list[float] = []
    cli.load_config = _timed(cli.load_config, load_s, clock)
    # Steps summed over the trials run in this process (none with a pool).
    trial_steps = 0
    run_trial = montecarlo.run_trial

    def counting_run_trial(*args, **kwargs):
        nonlocal trial_steps
        result = run_trial(*args, **kwargs)
        trial_steps += result.steps_run
        return result

    montecarlo.run_trial = counting_run_trial

    t1 = clock()
    if spec["setup_only"]:
        args = cli.build_parser().parse_args(spec["argv"])
        cli.load_config(args.config, args)
        code = 0
    else:
        code = cli.main(spec["argv"])
    total_s = clock() - t1

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return code, {
        "exit_code": code,
        "setup_s": import_s + sum(load_s),
        "wall_s": total_s - sum(load_s),
        "trial_steps": trial_steps,
        "peak_rss_mb": peak_kb / 1024.0,
        "trace": tracer.export() if tracer is not None else None,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
