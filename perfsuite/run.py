"""The repository benchmark: one seeded scenario workload per invocation.

Usage (from the repository root)::

    python3 perfsuite/run.py --workload backlog --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``backlog``, ``tidy``, ``elastic`` and
``regions`` (see ``workloads.py``).  The spec is generated from
``--seed`` alone and the simulator sees only its JSON text.

With ``--trace 0`` the invocation measures the end-to-end metrics:

- ``setup_s``: import ``repro``, parse the spec JSON and build the
  runtime, in a fresh interpreter whose clock starts at its first
  statement.  Median of several children, run one at a time and
  spread evenly between the timed repeats, after one untimed child has
  warmed the bytecode cache.
- ``run_s``: drive, finalize, compile and digest a freshly built
  runtime (the build is not timed).  Median of the repeats that fit
  in ``--seconds``, after one untimed warm-up repeat.
- ``peak_rss_mb``: this process's peak resident set.

Both times are host-scaled: each repeat is divided by the time of the
reference workload (``reference.py``) run right before and after it,
and each set-up by that of a fresh interpreter's fixed standard-library
imports (``import_reference.py``) run right before and after it.
Multiplied by the references' nominal times, they read as seconds on a
nominal host.  The host's speed swings by 1.5x to 3x over minutes; the
scaling cancels that (``STEADINESS.md``).

A diagnostic line before the result gives the median unscaled times
and ``host.calibration_ms``, the fastest run of
``benchmarks/perf/harness.py``'s calibration loop (sampled before
every repeat), so a slow host can be told from a slow change.  The
calibration loop never divides a metric.

With ``--trace 1`` it measures the per-layer metrics instead: the same
set-up children report their phases, untraced repeats give the
baseline ``run_s``, and traced repeats (``tracing.py``) give each
layer's work counts and self times, taken from the fastest traced
repeat.  Self times are unscaled seconds.  Spans of that repeat are
written to ``.perfsuite-out/``.

Every repeat and set-up child counts as attempted.  One fails if it
raises, finishes fewer tasks than it generated, or digests differently
from the invocation's first repeat; traced repeats also fail if their
work counts differ from the first traced repeat's.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import IMPORT_REFERENCE_S, REFERENCE_S, reference_s
from workloads import WORKLOADS, spec_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Timed set-up children per invocation (after one untimed child); odd,
#: so that one child is the median.
SETUP_CHILDREN = 7
#: Fewest timed repeats, even when ``--seconds`` runs out first.
MIN_REPEATS = 5
#: Fewest traced repeats (their work counts must agree).
MIN_TRACED = 2
#: Where traced invocations write their spans.
TRACE_DIR = ROOT / ".perfsuite-out"

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "scenario.import_s": "s", "scenario.parse_s": "s",
    "scenario.build_s": "s", "scenario.compile_s": "s",
    "scenario.digest_s": "s", "scenario.tasks": "count",
    "sim.events": "count", "sim.step_self_s": "s",
    "sim.us_per_event": "us", "sim.idle_tail_events": "count",
    "scheduling.rounds": "count", "scheduling.entries_ordered": "count",
    "scheduling.order_s": "s", "scheduling.placement_probes": "count",
    "scheduling.placement_s": "s", "scheduling.probe_hit_ratio": "ratio",
    "scheduling.queue_len_mean": "tasks",
    "scheduling.portfolio_evals": "count", "scheduling.portfolio_s": "s",
    "datacenter.executions": "count", "datacenter.execute_s": "s",
    "datacenter.epoch_flush_s": "s", "datacenter.capacity_syncs": "count",
    "datacenter.capacity_sync_s": "s",
    "autoscaling.decisions": "count", "autoscaling.decide_s": "s",
    "observability.advances": "count", "observability.windows": "count",
    "observability.advance_s": "s",
    "sharding.epochs": "count", "sharding.empty_epochs": "count",
    "sharding.messages": "count", "sharding.advance_s": "s",
    "sharding.exchange_s": "s",
    "tracing.overhead_ratio": "ratio", "host.calibration_ms": "ms",
}


class Outcomes:
    """Attempted/failed accounting plus the invocation's reference digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.tasks: int | None = None

    def fail(self, reason: str) -> None:
        self.failed += 1
        print(f"FAILED: {reason}", file=sys.stderr)

    def check_run(self, result, digest: str, generated: int) -> bool:
        """Count one repeat; True when its outputs are correct."""
        self.attempted += 1
        if self.digest is None:
            self.digest = digest
            self.tasks = generated
        if result.tasks_total != generated:
            self.fail(f"result counts {result.tasks_total} tasks, "
                      f"the runtime generated {generated}")
        elif result.tasks_finished < generated:
            self.fail(f"{result.tasks_finished} of {generated} tasks "
                      f"finished")
        elif digest != self.digest:
            self.fail(f"digest {digest[:12]} differs from the first "
                      f"repeat's {self.digest[:12]}")
        else:
            return True
        return False


def _execute(runtime):
    result = runtime.execute()
    return result, result.digest()


def run_once(spec, tracer=None):
    """Build a fresh runtime, then time drive + compile + digest."""
    runtime = spec.build()
    generated = len(runtime.tasks)
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        result, digest = _execute(runtime)
    else:
        result, digest = tracer.span("run", _execute, runtime)
    return time.perf_counter() - start, result, digest, generated


def repeat_until(spec, deadline: float, minimum: int, outcomes: Outcomes,
                 between, tracer=None, on_pass=None) -> list[tuple]:
    """Timed repeats until ``deadline`` (at least ``minimum`` attempts).

    ``between()`` runs before each repeat, outside its timed region.
    Each passing repeat gives ``(elapsed, reference)``: its seconds and
    the mean time of the reference runs just before and after it.
    """
    samples: list[tuple] = []
    attempts = 0
    while attempts < minimum or time.perf_counter() < deadline:
        attempts += 1
        between()
        if tracer is not None:
            tracer.begin(attempts)
        before = reference_s()
        try:
            elapsed, result, digest, generated = run_once(spec, tracer)
        except Exception as exc:  # a failing repeat is counted, not fatal
            outcomes.attempted += 1
            outcomes.fail(f"repeat raised {exc!r}")
            continue
        reference = (before + reference_s()) / 2
        if outcomes.check_run(result, digest, generated) and (
                on_pass is None or on_pass(elapsed, result)):
            samples.append((elapsed, reference))
    return samples


def scaled(samples: list[tuple]) -> float | None:
    """Median of ``elapsed / reference``, in seconds of the nominal host."""
    if not samples:
        return None
    return statistics.median(e / r for e, r in samples) * REFERENCE_S


class Sidecar:
    """Work spread between the timed repeats of one invocation.

    Runs the set-up children at even intervals over the measuring
    window, so their median is not hostage to one slow moment of the
    host, and one calibration sample before every repeat.
    """

    def __init__(self, spec_text: str, outcomes: Outcomes, start: float,
                 seconds: float) -> None:
        from benchmarks.perf.harness import calibration_unit
        self._calibration_unit = calibration_unit
        self.spec_text = spec_text
        self.outcomes = outcomes
        self.due = [start + seconds * i / SETUP_CHILDREN
                    for i in range(SETUP_CHILDREN)]
        self.samples: list[dict] = []
        self.calibration_ms = float("inf")

    def __call__(self) -> None:
        self.calibration_ms = min(self.calibration_ms,
                                  self._calibration_unit(repeat=1) * 1000.0)
        if self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.child(timed=True)

    def finish(self) -> None:
        """Run the set-up children whose turn never came."""
        while self.due:
            self.due.pop(0)
            self.child(timed=True)

    def child(self, timed: bool) -> None:
        """One set-up in a fresh interpreter, between two reference
        children; keeps the timed samples."""
        outcomes = self.outcomes
        outcomes.attempted += 1
        try:
            before = float(_python("import_reference.py").stdout)
            proc = _python("setup_child.py", self.spec_text)
            after = float(_python("import_reference.py").stdout)
        except subprocess.CalledProcessError as exc:
            outcomes.fail(f"{exc.cmd[-1]} exited {exc.returncode}: "
                          f"{exc.stderr.strip()[-300:]}")
            return
        except subprocess.TimeoutExpired as exc:
            outcomes.fail(f"{exc.cmd[-1]} ran longer than 60 s")
            return
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["reference_s"] = (before + after) / 2
        if sample["tasks"] != outcomes.tasks:
            outcomes.fail(f"set-up child built {sample['tasks']} tasks, "
                          f"the benchmark's runtime {outcomes.tasks}")
        elif timed:
            self.samples.append(sample)

    def setup(self) -> dict | None:
        """The median child's phase times, host-scaled like ``run_s``."""
        if not self.samples:
            return None
        ordered = sorted(self.samples,
                         key=lambda s: s["setup_s"] / s["reference_s"])
        middle = ordered[len(ordered) // 2]
        scale = IMPORT_REFERENCE_S / middle["reference_s"]
        phases = ("setup_s", "import_s", "parse_s", "build_s")
        return {phase: middle[phase] * scale for phase in phases}


def _python(script: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run one of the benchmark's scripts in a fresh interpreter."""
    return subprocess.run([sys.executable, str(HERE / script)], input=stdin,
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=60, check=True)


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one invocation; returns the result object to print."""
    from repro.scenario import ScenarioSpec

    spec_text = spec_json(workload, seed)
    spec = ScenarioSpec.from_json(spec_text)
    outcomes = Outcomes()
    start = time.perf_counter()
    deadline = start + seconds
    sidecar = Sidecar(spec_text, outcomes, start, seconds)
    # Warm-up repeat: untimed; fixes the reference digest and task count.
    repeat_until(spec, start, 1, outcomes, lambda: None)
    if outcomes.tasks is None:
        raise RuntimeError("the warm-up repeat did not complete")
    sidecar.child(timed=False)  # warms the bytecode cache
    if not trace:
        samples = repeat_until(spec, deadline, MIN_REPEATS, outcomes,
                               sidecar)
        sidecar.finish()
        _diagnose(samples, sidecar)
        setup = sidecar.setup()
        metrics = {"setup_s": setup["setup_s"] if setup else None,
                   "run_s": scaled(samples),
                   "peak_rss_mb": peak_rss_mb()}
        return _report(outcomes, metrics, END_TO_END)

    from tracing import Tracer, layer_metrics, write_spans
    now = time.perf_counter()
    untraced = repeat_until(spec, now + (deadline - now) / 2, MIN_REPEATS,
                            outcomes, sidecar)
    tracer = Tracer()
    best: dict = {}
    reference_counts: list[dict] = []

    def keep(elapsed: float, result) -> bool:
        counts = dict(tracer.counts)
        if not reference_counts:
            reference_counts.append(counts)
        elif counts != reference_counts[0]:
            outcomes.fail("traced work counts differ between repeats")
            return False
        if not best or elapsed < best["elapsed"]:
            best.update(elapsed=elapsed, spans=tracer.spans,
                        metrics=layer_metrics(tracer, result))
        return True

    tracer.install()
    try:
        traced = repeat_until(spec, deadline, MIN_TRACED, outcomes, sidecar,
                              tracer, keep)
    finally:
        tracer.uninstall()
    sidecar.finish()
    _diagnose(untraced, sidecar)
    metrics = dict.fromkeys(PER_LAYER)
    setup = sidecar.setup()
    if best and untraced and setup and traced:
        metrics.update(best["metrics"])
        metrics["tracing.overhead_ratio"] = scaled(traced) / scaled(untraced)
        for phase in ("import_s", "parse_s", "build_s"):
            metrics[f"scenario.{phase}"] = setup[phase]
        TRACE_DIR.mkdir(exist_ok=True)
        write_spans(best["spans"],
                    TRACE_DIR / f"spans-{workload}-seed{seed}.jsonl")
    metrics["host.calibration_ms"] = sidecar.calibration_ms
    return _report(outcomes, metrics, PER_LAYER)


def _diagnose(samples: list[tuple], sidecar: Sidecar) -> None:
    """Print the unscaled medians beside the host diagnostics."""
    wall = statistics.median(e for e, _ in samples) if samples else 0.0
    reference = (statistics.median(r for _, r in samples)
                 if samples else 0.0)
    print(f"host.calibration_ms={sidecar.calibration_ms:.4f} "
          f"reference_ms={reference * 1000:.4f} "
          f"unscaled_run_s={wall:.4f} repeats={len(samples)}", flush=True)


def _report(outcomes: Outcomes, metrics: dict, units: dict) -> dict:
    missing = sorted(name for name in units if metrics.get(name) is None)
    if missing:
        raise RuntimeError(f"no successful measurement of {missing}")
    return {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run the "
              f"benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
