"""gbgeom benchmark: time to an exact answer, checked against an oracle.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 18 --trace 0

One process, one thread, a closed loop: it asks gbgeom for one answer at a
time and waits for it.  An answer is one CLI command (``paper``), one reduced
basis or plane detection (``rational``, ``parametric``) or one normal-form
query (``membership``).  Each pass asks every item once in a seeded order;
passes repeat until ``--seconds`` of answering have gone by, not counting
answers that timed out, and at least ``MIN_PASSES`` times, so every item's
time is a median over passes.  An answer that runs
past ``LIMIT_S`` is recorded as a timeout, counts at the limit, and its item
is not asked again in this run.  ``attempted`` and ``failed`` count items:
an item fails if any of its answers timed out, raised or was wrong.

Every time is reported at a fixed reference speed of the machine
(``speed.py``): reference work interleaved with the answers gives the
machine's speed during each answer, and its measured time is scaled by it.
The times as measured are printed beside them.

Every answer is rendered and checked outside the timed region: ``paper``
outputs byte for byte against ``ref/paper.json``, the others against sympy
(``oracle.py``, run in a child process during set-up so it never enters this
one) or against bases precomputed by ``make_refs.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under ``tracing.Tracer`` and prints the
per-layer metrics and ``trace.overhead_ratio``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Per-answer limit.  katsura-3 and pinned-13-5, the slowest items that
# finish, take 2-3 s untraced on the 2-core machine BASELINE.json was
# measured on, and about a quarter more traced; katsura-4, cyclic-5 and the
# stress system take minutes.
LIMIT_S = 8.0
MIN_PASSES = 3
# setup_s is the median of at least this many set-ups, and of more while
# they have taken less than SETUP_MIN_S in all, up to SETUP_MAX_REPEATS: a
# set-up of 50 ms is too short for a median of three to repeat.  Each
# re-import of gbgeom leaves a little memory behind, less than peak_rss_mb's
# bound at the largest count.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
# A run stops starting passes after this long, so it always ends well
# within three minutes.
HARD_STOP_S = 120.0


class AnswerTimeout(BaseException):
    """Raised in the answering code when the per-answer limit expires.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


def _expire(signum, frame):
    raise AnswerTimeout


def timed(call, limit: float, meter=None):
    """Run ``call`` under the limit: (status, seconds, result or error).

    Reference work that ``meter`` did meanwhile is not counted.
    """
    busy = 0.0 if meter is None else meter.busy
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = call()
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except AnswerTimeout:
        return "timeout", limit, None
    except Exception as error:  # a failed answer is recorded, the run goes on
        return "error", time.perf_counter() - start, f"{type(error).__name__}: {error}"
    if meter is not None:
        elapsed -= meter.busy - busy
    return "ok", elapsed, result


def forget_gbgeom() -> None:
    """Drop every imported gbgeom module and free what only they held."""
    for name in [n for n in sys.modules if n == "gbgeom" or n.startswith("gbgeom.")]:
        del sys.modules[name]
    gc.collect()


def fresh_import():
    """Import gbgeom from this checkout's src/."""
    package = importlib.import_module("gbgeom")
    importlib.import_module("gbgeom.cli")
    return package


class Run:
    """Answers, samples and failures of one run of one workload."""

    def __init__(self, items, limit: float, outputs: dict | None = None, meter=None):
        self.items = items
        self.limit = limit
        # Its reference work is taken out of answer times; None in traced passes.
        self.meter = meter
        self.samples = {item.name: [] for item in items}
        # When each sample's answer started and ended, in perf_counter seconds;
        # None for a timeout, which is charged at the limit and not scaled.
        self.spans = {item.name: [] for item in items}
        self.dropped: set[str] = set()
        # The first rendered answer of each item; later answers must equal it.
        self.outputs = {} if outputs is None else outputs
        self.answered = dict.fromkeys(self.samples, 0)
        self.wrong = dict.fromkeys(self.samples, 0)
        self.asked: set[str] = set()
        self.answers = 0
        self.timeouts = 0
        self.timeout_s = 0.0
        self.errors: list[str] = []

    def ask(self, item, wrap=None) -> None:
        call = item.call if wrap is None else (lambda: wrap(item.call))
        start = time.perf_counter()
        status, seconds, result = timed(call, self.limit, self.meter)
        span = None if status == "timeout" else (start, time.perf_counter())
        self.spans[item.name].append(span)
        self.asked.add(item.name)
        self.answers += 1
        self.samples[item.name].append(seconds)
        if status == "timeout":
            self.timeouts += 1
            self.timeout_s += seconds
            self.dropped.add(item.name)
        elif status == "error":
            self.errors.append(f"{item.name}: {result}")
            self.dropped.add(item.name)
        else:
            answer = item.render(result)
            self.answered[item.name] += 1
            if self.outputs.setdefault(item.name, answer) != answer:
                self.wrong[item.name] += 1

    def passes(self, seconds: float, min_passes: int, rng, wrap=None, on_pass=None) -> int:
        """Ask every item once per pass, for ``seconds`` of answering.

        Time spent in answers that timed out does not count, so the number of
        passes over the answered items does not depend on how many time out.
        The meter, if any, samples the machine's speed meanwhile.
        """
        start = time.perf_counter()
        lost = self.timeout_s
        done = 0
        if self.meter is not None:
            self.meter.start()
        try:
            while done < min_passes or (
                time.perf_counter() - start - (self.timeout_s - lost) < seconds
            ):
                if time.perf_counter() - start > HARD_STOP_S:
                    break
                order = [item for item in self.items if item.name not in self.dropped]
                rng.shuffle(order)
                for item in order:
                    self.ask(item, wrap)
                done += 1
                if on_pass is not None:
                    on_pass()
        finally:
            if self.meter is not None:
                self.meter.stop()
        return done

    def absorb(self, other: "Run") -> None:
        """Count another run's answers and failures as this run's."""
        self.asked |= other.asked
        self.dropped |= other.dropped
        self.answers += other.answers
        self.timeouts += other.timeouts
        self.errors += other.errors
        for name in other.answered:
            self.answered[name] += other.answered[name]
            self.wrong[name] += other.wrong[name]

    def verify(self) -> None:
        """Check each item's first answer; if it is wrong, so are all of them."""
        for item in self.items:
            if item.name not in self.outputs:
                continue
            try:
                right = item.check(self.outputs[item.name])
            except workloads.check.CheckError as error:
                self.errors.append(f"{item.name}: unreadable answer: {error}")
                right = False
            if not right:
                self.wrong[item.name] = self.answered[item.name]

    def scaled(self, meter) -> dict[str, list[float]]:
        """Every sample scaled by the machine's speed during its answer."""
        return {
            name: [
                t if span is None else t * meter.factor_for(*span)
                for t, span in zip(samples, self.spans[name])
            ]
            for name, samples in self.samples.items()
        }

    @property
    def wrong_answers(self) -> int:
        return sum(self.wrong.values())

    @property
    def attempted(self) -> int:
        """Items asked: the repeats of one item over passes are one question."""
        return len(self.asked)

    @property
    def failed(self) -> int:
        """Items with an answer that timed out, raised or was wrong."""
        return len(self.dropped | {name for name, count in self.wrong.items() if count})


def item_medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(s) for name, s in samples.items() if s}


def tail_percentile(items: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in the
    shortest run.

    Fixed per workload from its item count, so it does not move when a faster
    program fits more passes into a run.
    """
    return math.floor(100 * (1 - 10 / (items * MIN_PASSES)))


def answer_times(run: Run, samples: dict[str, list[float]], passes: int) -> list[float]:
    """Every answer's time, sorted, with each item weighing the same per pass.

    An item dropped after a timeout or an error would have failed the same way
    in every later pass, so its one sample stands for all of them.  Otherwise
    a timed-out item would weigh less the more passes fit in a run, and the
    percentiles would shift with the pass count.
    """
    times = []
    for name, item_samples in samples.items():
        if name in run.dropped:
            item_samples = item_samples + item_samples[-1:] * (passes - len(item_samples))
        times += item_samples
    return sorted(times)


def answer_metrics(run: Run, samples: dict[str, list[float]], passes: int) -> dict[str, float]:
    every = answer_times(run, samples, passes)
    medians = item_medians(samples)
    rank = math.ceil(tail_percentile(len(run.items)) / 100 * len(every))
    return {
        "batch_s": sum(medians.values()),
        "core_batch_s": sum(medians[i.name] for i in run.items if not i.slow),
        "answer_p50_s": statistics.median(every),
        "answer_tail_s": every[rank - 1],
    }


def end_to_end(run: Run, passes: int, setup_s: float, meter=None) -> tuple[dict, dict]:
    """The end-to-end metrics and the numbers printed beside them, among
    them the answer times as measured.

    ``meter`` scales each answer by the speed during it, and the set-up by
    the speed over the whole run: most of a set-up is the oracle's child
    process, whose speed the samples next to it do not show.
    """
    scaled = run.samples if meter is None else run.scaled(meter)
    factor = 1.0 if meter is None else meter.factor()
    reported = {**answer_metrics(run, scaled, passes), "setup_s": setup_s * factor}
    measured = {**answer_metrics(run, run.samples, passes), "setup_s": setup_s}
    metrics = {name: (value, "s") for name, value in reported.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    percentile = tail_percentile(len(run.items))
    every = len(answer_times(run, run.samples, passes))
    extra = {
        "failed_fraction": (run.failed / run.attempted, "fraction"),
        "timeouts": (run.timeouts, "count"),
        "wrong_answers": (run.wrong_answers, "count"),
        "answer_tail_percentile": (percentile, "%"),
        "answer_tail_beyond": (every - math.ceil(percentile / 100 * every), "count"),
        "answers": (run.answers, "count"),
        **{f"measured_{name}": (value, "s") for name, value in measured.items()},
    }
    return metrics, extra


def traced_layers(run: Run, package, seconds: float, rng, meter) -> tuple[dict, dict, int]:
    """Per-layer metrics from traced passes that alternate with untraced ones.

    The first pass is untraced; items that time out or fail in it are not
    asked again.  Then a traced and an untraced pass alternate for
    ``seconds`` of answering and at least ``MIN_PASSES`` pairs, so a change
    of machine speed during the run falls on both alike.  Each per-layer
    value is a per-pass total, the median over traced passes; the overhead
    ratio compares the items answered in both.  Times are scaled by the
    speed that ``meter`` finds in the untraced passes.  Returns the metrics,
    the other printed numbers and the number of untraced passes.
    """
    passes = run.passes(0, 1, rng)
    traced = Run([i for i in run.items if i.name not in run.dropped], run.limit, run.outputs)
    tracer = tracing.Tracer(package)
    per_pass = []

    def collect():
        per_pass.append(tracer.totals())
        tracer.reset()

    start = time.perf_counter()
    traced_passes = 0
    while traced_passes < MIN_PASSES or (
        time.perf_counter() - start - traced.timeout_s < seconds
    ):
        if time.perf_counter() - start > HARD_STOP_S:
            break
        tracer.install()
        try:
            traced_passes += traced.passes(0, 1, rng, tracer.run, collect)
        finally:
            tracer.uninstall()
        passes += run.passes(0, 1, rng)
    untraced_medians = item_medians(run.samples)
    traced_medians = item_medians(traced.samples)
    answered = [name for name in traced_medians if name not in traced.dropped]
    traced_batch = sum(traced_medians[name] for name in answered)
    untraced_batch = sum(untraced_medians[name] for name in answered)
    layer = tracing.median_totals(per_pass)
    layer["trace.overhead_ratio"] = traced_batch / untraced_batch
    run.absorb(traced)
    factor = meter.factor()
    metrics = {
        name: (value * factor if _unit(name) == "s" else value, _unit(name))
        for name, value in layer.items()
    }
    extra = {
        "traced_passes": (traced_passes, "count"),
        "traced_answered_batch_s": (traced_batch * factor, "s"),
        "untraced_answered_batch_s": (untraced_batch * factor, "s"),
    }
    return metrics, extra, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gbgeom" / "__init__.py").is_file():
        print(f"error: no gbgeom sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _expire)
    setup = workloads.WORKLOADS[args.workload]

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
    ):
        package = items = None
        forget_gbgeom()
        start = time.perf_counter()
        package = fresh_import()
        items = setup(package, args.seed, ROOT)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)

    rng = random.Random(f"order:{args.workload}:{args.seed}")
    meter = speed.Meter()
    run = Run(items, LIMIT_S, meter=meter)
    if not args.trace:
        passes = run.passes(args.seconds, MIN_PASSES, rng)
        run.verify()
        metrics, extra = end_to_end(run, passes, setup_s, meter)
    else:
        metrics, extra, passes = traced_layers(run, package, args.seconds, rng, meter)
        run.verify()
    extra["passes"] = (passes, "count")
    extra["speed_factor"] = (meter.factor(), "ratio")
    extra["reference_samples"] = (len(meter.samples), "count")

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:<11} {name:<32} {_fmt(value):>14} {unit}")
    for name, value in sorted(item_medians(run.samples).items(), key=lambda kv: -kv[1]):
        print(f"{args.workload:<11} item {name:<48} {value:.6f} s measured")
    wrong = [f"{name}: {count} wrong answers" for name, count in run.wrong.items() if count]
    for problem in run.errors + wrong:
        print(f"{args.workload:<11} FAILED {problem}")
    result = {
        "correct": run.wrong_answers == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_degree"):
        return "degree"
    return "count"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


if __name__ == "__main__":
    sys.exit(main())
