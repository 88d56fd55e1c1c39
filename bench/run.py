"""Calibrated query benchmark for maxlab.

Run from the repository root:

    python3 bench/run.py --workload nonultra --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one caller: each operation
starts when the previous one has ended. A run writes the workload's input
files, loads them several times (set-up), then repeats whole rounds for
about `--seconds` of wall time. A round runs the five query kinds
(field, decide, search, audit, cli) once on every input, in a fixed order.
Every operation's output is checked outside its timed interval.

Every timed interval is calibrated: a fixed loop of `fractions.Fraction`
arithmetic runs just before and just after it and every SAMPLE_PERIOD_S
inside it, and the reported time is the interval times REF_NOMINAL_S over the
mean reference time. This cancels most of the drift of a shared machine's
speed, which moves all pure-Python work alike. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics, or
with `--trace 1` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPS = 3  # set-up repetitions per run; setup_s is their median
REF_TERMS = 24  # terms of the reference loop
REF_REPEATS = 3  # reference loops before and after an interval; their median is used
SAMPLE_PERIOD_S = 0.005  # one reference loop runs every this many seconds inside an interval
REF_NOMINAL_S = 150e-6  # fixed nominal reference time that calibrated times are scaled to
KINDS = ("field", "decide", "search", "audit", "cli")


_W = tuple(Fraction(k % 9 + 1, k % 4 + 1) for k in range(REF_TERMS))
_V = tuple(Fraction(k % 19 - 9) for k in range(REF_TERMS))


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small-rational arithmetic (no maxlab code).

    It mixes what maxlab's inner loops do: weighted sums, construction and
    comparison of `Fraction`s.
    """
    t0 = perf_counter()
    total = mass = Fraction(0)
    above = 0
    for k, (v, w) in enumerate(zip(_V, _W)):
        total += v * w
        mass += w
        if Fraction(k % 7 + 1, k % 5 + 2) > total / mass:
            above += 1
    return perf_counter() - t0


def reference() -> float:
    gc.collect()
    return statistics.median(reference_loop() for _ in range(REF_REPEATS))


class Clock:
    """Calibrated timing of intervals; keeps raw, reference and calibrated samples.

    The reference loop runs before and after each interval (after a garbage
    collection) and, driven by SIGALRM, every SAMPLE_PERIOD_S inside it, so
    that a change of the machine's speed in the middle of a long operation is
    seen. The time spent in those inner samples is taken off the interval.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[tuple[float, float, float]]] = {}
        self._inner: list[float] = []
        self._inner_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self._inner.append(reference_loop())
        spent = perf_counter() - t0
        self._inner_s += spent
        if self.tracer is not None:
            self.tracer.exclude(spent)

    def time(self, label: str, phase: str, fn):
        """Run fn in a calibrated interval.

        Returns (result, calibrated seconds, raw seconds, mean reference seconds);
        the raw seconds exclude the reference loops run inside the interval.
        """
        before = reference()
        self._inner, self._inner_s = [], 0.0
        root = self.tracer.open_root(f"bench.{label}", phase) if self.tracer else None
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = perf_counter() - t0 - self._inner_s
            ref = statistics.fmean([before, reference(), *self._inner])
            factor = REF_NOMINAL_S / ref
            if root is not None:
                self.tracer.close_root(root, factor)
        return result, raw * factor, raw, ref

    def record(self, kind: str, raw: float, ref: float, calibrated: float) -> None:
        self.samples.setdefault(kind, []).append((raw, ref, calibrated))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="wall time of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    oracle_path = ROOT / "tests" / "oracle.py"
    if not (src / "maxlab" / "__init__.py").is_file() or not oracle_path.is_file():
        print(f"bench: no maxlab checkout around {BENCH} (need src/maxlab and tests/oracle.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import maxlab
    import maxlab.cli
    import maxlab.io

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    oracle = checks.load_oracle(oracle_path)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT))
    try:
        return run(args, maxlab, oracle, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, maxlab, oracle, tracer, work: Path) -> int:
    clock = Clock(tracer)
    bundles, rng = inputs.build(args.workload, args.seed, work)

    # Set-up: what a session pays before its first query, repeated SETUP_REPS times.
    # One calibrated step per space: load it, its measures and function, enumerate its balls.
    setup_totals = []
    for _ in range(SETUP_REPS):
        loaded = []
        steps = []
        for b in bundles:
            if b.audit_space == b.space:
                (space, (mu, audit_mu), family), *step = clock.time(
                    "setup", "setup", lambda: load(maxlab, b.space, (b.measure, b.audit_measure), b.fn)
                )
                steps.append(step)
                audit_space, audit_family = space, family
            else:
                (space, (mu,), family), *step = clock.time(
                    "setup", "setup", lambda: load(maxlab, b.space, (b.measure,), b.fn)
                )
                steps.append(step)
                (audit_space, (audit_mu,), audit_family), *step = clock.time(
                    "setup", "setup", lambda: load(maxlab, b.audit_space, (b.audit_measure,))
                )
                steps.append(step)
            loaded.append((space, mu, family, audit_space, audit_mu, audit_family))
        cal, raw, ref = zip(*steps)
        setup_totals.append((sum(raw), statistics.fmean(ref), sum(cal)))

    refs = []
    for b in bundles:
        main_ref = checks.Reference(oracle, b.dist)
        audit_ref = main_ref if b.audit_dist is b.dist else checks.Reference(oracle, b.audit_dist)
        refs.append((main_ref, audit_ref))
    # Everything alive now lives for the whole run; frozen, it is no longer
    # traversed by the collections before each reference loop or inside operations.
    gc.collect()
    gc.freeze()

    attempted = failed = 0
    check_rng = random.Random(f"check:{args.workload}:{args.seed}")

    def attempt(kind, b, fn, check):
        nonlocal attempted, failed
        attempted += 1
        try:
            result, cal, raw, ref = clock.time(kind, "round", fn)
            check(result)
        except Exception:
            failed += 1
            print(f"bench: {kind} on {b.name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        clock.record(kind, raw, ref, cal)

    # A new round starts while the time used plus half a mean round stays below
    # --seconds, so that a run lasts --seconds give or take half a round.
    rounds = 0
    t_start = perf_counter()
    while rounds == 0 or (perf_counter() - t_start) * (1 + 0.5 / rounds) < args.seconds:
        for i, (b, data, (oref, audit_ref)) in enumerate(zip(bundles, loaded, refs)):
            space, mu, family, audit_space, audit_mu, audit_family = data
            # The field query of the first grid input uses the indicator of [0, 1].
            indicator_m = b.grid_m if i == 0 else None
            if indicator_m is not None:
                values = [Fraction(1) if k <= indicator_m else Fraction(0) for k in range(space.n)]
            else:
                values = inputs.random_function(rng, space.n)
            f = maxlab.SampleFunction(tuple(values))
            attempt(
                "field", b,
                lambda: maxlab.maximal_field(f, mu, space, family=family),
                lambda r: checks.check_field(r, oref, b.weights, values, check_rng, indicator_m),
            )
            attempt(
                "decide", b,
                lambda: maxlab.coincidence_exact(space, mu, family=family),
                lambda r: checks.check_decision(r, oref),
            )
            attempt(
                "search", b,
                lambda: maxlab.coincidence_randomized(
                    space, mu, trials=inputs.SEARCH_TRIALS, seed=args.seed, family=family
                ),
                lambda r: checks.check_search(r, oref, inputs.SEARCH_TRIALS),
            )
            attempt(
                "audit", b,
                lambda: maxlab.check_ball_infimum(audit_space, audit_mu, family=audit_family),
                lambda r: checks.check_audit(r, audit_ref, b.audit_weights, check_rng),
            )
            report = work / "report.json"
            if b.grid_m is not None:
                argv = ["demo-grid", "--n", str(b.grid_m), "--out", str(report)]
                check = lambda code: checks.check_cli_grid(code, report, b.grid_m)
            else:
                argv = ["maximal", "--space", str(b.space), "--measure", str(b.measure),
                        "--fn", str(b.fn), "--out", str(report)]
                check = lambda code: checks.check_cli_maximal(
                    code, report, oref, b.weights, b.values, check_rng
                )
            attempt("cli", b, lambda: maxlab.cli.main(argv), check)
        rounds += 1
    wall = perf_counter() - t_start
    timed = sum(raw for samples in clock.samples.values() for raw, _, _ in samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rows = summarize(clock, setup_totals, peak_rss_mb)
    print(f"maxlab benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={len(bundles)} rounds={rounds} wall_s={wall:.1f} timed_share={timed / wall:.2f}")
    print(f"attempted={attempted} failed={failed}")
    print(f"{'metric':16s} {'calibrated':>12s} {'unit':5s} {'raw median':>12s} {'ref median':>11s} samples")
    for name, (value, unit, raw, ref_med, count) in rows.items():
        raw_s = "" if raw is None else f"{raw:12.4f}"
        ref_s = "" if ref_med is None else f"{ref_med * 1e3:8.4f} ms"
        print(f"{name:16s} {value:12.4f} {unit:5s} {raw_s:>12s} {ref_s:>11s} {count}")
    if tracer is not None:
        metrics = tracer.metrics(SETUP_REPS, rounds)
        print("per-layer metrics (per set-up repetition plus per round):")
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:14.6f} {m['unit']}")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv")
    else:
        metrics = {name: {"value": v[0], "unit": v[1]} for name, v in rows.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"rows": rows, "samples": clock.samples, **result}, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def load(maxlab, space_path, measure_paths, fn_path=None):
    """One set-up step: a space file, its measure and function files, its balls."""
    space = maxlab.io.load_space(space_path)
    measures = tuple(maxlab.io.load_measure(p, space.n) for p in measure_paths)
    if fn_path is not None:
        maxlab.io.load_function(fn_path, space.n)
    return space, measures, maxlab.enumerate_balls(space)


def summarize(clock: Clock, setup_totals, peak_rss_mb: float) -> dict:
    """metric -> (value, unit, raw median, reference median, sample count)."""
    rows = {}
    raw, ref, cal = zip(*setup_totals)
    rows["setup_s"] = (statistics.median(cal), "s", statistics.median(raw), statistics.median(ref),
                       len(cal))
    ops = 0
    op_seconds = 0.0
    for kind in KINDS:
        samples = clock.samples.get(kind, [])
        if not samples:
            continue
        raw, ref, cal = zip(*samples)
        rows[f"{kind}_ms"] = (statistics.median(cal) * 1e3, "ms", statistics.median(raw) * 1e3,
                              statistics.median(ref), len(cal))
        ops += len(cal)
        op_seconds += sum(cal)
    rows["queries_per_s"] = (ops / op_seconds, "1/s", None, None, ops)
    rows["peak_rss_mb"] = (peak_rss_mb, "MB", None, None, 1)
    return rows


if __name__ == "__main__":
    sys.exit(main())
