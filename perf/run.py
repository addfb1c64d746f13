#!/usr/bin/env python3
"""The perf ledger's one command.

Contract mode (what the driver runs, one workload per invocation)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, repeats cold set-up,
warms up, runs ops for S seconds, checks every answer against
``perf/golden.json`` and prints every metric by name; the last line of
stdout is the result object.  ``--trace 0`` reports the end-to-end
metrics with tracing off; ``--trace 1`` alternates traced and untraced
ops and reports the per-layer metrics.

Ledger modes (no ``--workload``): the full set (default), ``--aa K``,
``--record``, ``--compare A B``, ``--regen-golden``, ``--smoke``.  Each
run of a ledger mode is a contract-mode subprocess.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
HISTORY = os.path.join(HERE, "history.jsonl")

#: Cold set-up repetitions whose median is ``setup_s``.
SETUP_REPS = {"full": 31, "smoke": 5}
#: Fewest ops a run takes a median over, however short ``--seconds``.
MIN_OPS = 3
#: Full-set traced runs are shorter than the timed ones: they feed the
#: layer table, not a gated metric.
TRACE_SECONDS_SHARE = 0.4
#: ``--smoke`` must finish within this many seconds.
SMOKE_BUDGET_S = 15.0


class Calibration:
    """A fixed, benchmark-owned spin that says how fast the box is now.

    The box this runs on has slow phases: for minutes at a time every op
    takes 5-30% longer, CPU time and wall time alike, so neither more
    samples nor a different quantile helps — whole runs shift.  A spin of
    interpreter and numpy work taken right before each timed sample
    shifts with them.  Timings are reported as ``sample / spin ×
    REFERENCE_S``: seconds on a box where the spin takes its reference
    time.  Measured over 13 minutes of interleaved ops, this cut the
    spread between 45 s windows from 5.5-7.0% to 2.0-2.4%.  The spin
    touches nothing of the program, so it cannot move with a change."""

    #: The spin's wall seconds on the box the workload sizes were tuned on.
    REFERENCE_S = 0.033

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._array = rng.integers(0, 1 << 30, size=40_000)
        self._pairs = [(int(a), int(b)) for a, b in rng.integers(0, 2000, size=(11_000, 2))]

    def spin(self) -> float:
        """Dict and set traffic, a sort and a scan, an integer loop — the
        instruction mix of the engine's mappers and kernels, on a working
        set small enough not to show in ``peak_rss_mb``."""
        started = time.perf_counter()
        for _ in range(10):
            counts: dict = {}
            for pair in self._pairs:
                counts[pair] = counts.get(pair, 0) + 1
            seen = set()
            for a, b in self._pairs:
                if a > b:
                    seen.add(a)
            self._array[::3].cumsum()
            self._array.copy().sort()
            total = 0
            for i in range(28_000):
                total += i * i % 7
        return time.perf_counter() - started

    def timed(self, action) -> tuple[float, float, object]:
        """Spin, then time ``action``: (normalised s, wall s, its result)."""
        spin = self.spin()
        started = time.perf_counter()
        result = action()
        wall = time.perf_counter() - started
        return wall / spin * self.REFERENCE_S, wall, result


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bootstrap() -> None:
    """Put the program on the path and keep temp files in the checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perf/run.py: nothing to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    tempfile.tempdir = os.path.join(OUT, "tmp")


# ----------------------------------------------------------------------
# Contract mode: one workload, one invocation
# ----------------------------------------------------------------------
class Checker:
    """Counts ops attempted and failed against the golden digest."""

    def __init__(self, name: str, golden) -> None:
        self.name = name
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self._repeat = None

    def __call__(self, op):
        self.attempted += op.attempted
        wrong = op.digest != self.golden
        if op.repeat is not None:
            # Answers that follow vertex order have no seed-free golden;
            # they must at least repeat from op to op.
            if self._repeat is None:
                self._repeat = op.repeat
            wrong = wrong or op.repeat != self._repeat
        if wrong:
            print(
                f"WRONG ANSWER on {self.name}: got {op.digest!r}, golden {self.golden!r}",
                file=sys.stderr,
            )
        self.failed += op.attempted if wrong else op.refused
        return op


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> tuple[dict, dict]:
    """Returns the contract's result object and a detail record holding
    n and quartiles of every sampled metric."""
    import layers
    import workloads

    workload = workloads.BY_NAME[name]
    with open(GOLDEN) as handle:
        check = Checker(name, json.load(handle)[scale][name])
    inputs = workloads.generate_inputs(workload.size(scale), seed)
    scratch = tempfile.mkdtemp(prefix=f"{name}-")
    calibration = Calibration()
    session = None
    try:
        # Cold set-up, repeated on fresh objects; the last one is kept.
        setup_samples, setup_wall, graph_samples = [], [], []
        for _ in range(SETUP_REPS[scale]):
            if session is not None:
                session.close()
            timings: dict = {}
            normalised, wall, session = calibration.timed(
                lambda: workload.setup(inputs, scratch, timings)
            )
            setup_samples.append(normalised)
            setup_wall.append(wall)
            graph_samples.append(timings)
        check(session.run_op())  # warm-up: caches fill, lazy imports finish
        if trace:
            metrics, samples = layers.traced_ops(
                workload, session, inputs, scratch, seed, seconds, MIN_OPS, check
            )
            for key in graph_samples[0]:
                metrics[key] = statistics.median(t[key] for t in graph_samples)
            units = {metric: unit for metric, unit, _ in layers.LAYER_METRICS}
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, f"trace-{name}.json"), "w") as handle:
                json.dump({"workload": name, "seed": seed, "spans": metrics.pop("_spans")}, handle)
        else:
            metrics, samples = timed_ops(session, seconds, check, calibration)
            metrics["setup_s"] = statistics.median(setup_samples)
            samples["setup_s"] = setup_samples
            samples["setup_wall_s"] = setup_wall
            units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(scratch, ignore_errors=True)

    detail = {"workload": name, "seed": seed, "scale": scale, "samples": {}}
    for metric, values in samples.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        detail["samples"][metric] = {"n": len(values), "q1": q1, "median": median, "q3": q3}
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            metric: {"value": float(metrics[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }
    return result, detail


def timed_ops(session, seconds: float, check, calibration: Calibration) -> tuple[dict, dict]:
    """Untraced ops for ``seconds``: the end-to-end metrics."""
    run_samples, run_wall, peak = [], [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(run_samples) < MIN_OPS:
        normalised, wall, op = calibration.timed(session.run_op)
        run_samples.append(normalised)
        run_wall.append(wall)
        peak = max(peak, check(op).peak_accounted_bytes)
    metrics = {
        "run_s": statistics.median(run_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "peak_accounted_mb": peak / 1e6,
    }
    return metrics, {"run_s": run_samples, "run_wall_s": run_wall}


def print_metrics(result: dict, detail: dict) -> None:
    print(
        f"workload {detail['workload']}  seed {detail['seed']}  scale {detail['scale']}  "
        f"attempted {result['attempted']}  failed {result['failed']}"
    )
    for metric, entry in result["metrics"].items():
        line = f"  {metric:<32} {entry['value']:>14.6g} {entry['unit']}"
        sample = detail["samples"].get(metric)
        if sample:
            line += f"   n={sample['n']} q1={sample['q1']:.6g} q3={sample['q3']:.6g}"
        print(line)
    for metric, sample in detail["samples"].items():
        if metric not in result["metrics"]:  # raw wall times behind the normalised ones
            print(
                f"  ({metric:<30} {sample['median']:>14.6g} s   n={sample['n']} "
                f"q1={sample['q1']:.6g} q3={sample['q3']:.6g})"
            )


# ----------------------------------------------------------------------
# Ledger modes: every run is a contract-mode subprocess
# ----------------------------------------------------------------------
def invoke(name: str, seed: int, seconds: float, trace: int, scale: str) -> tuple[dict, dict]:
    """One contract-mode run in its own process (own RSS, own imports)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"{name}: no result (exit {done.returncode})\n{done.stderr}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail "))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return result, detail


def full_set(seed: int, seconds: float, scale: str = "full", traced: bool = True) -> dict:
    """Every workload once: ``{workload: record}``, printed as it goes."""
    import workloads

    records = {}
    for workload in workloads.WORKLOADS:
        result, detail = invoke(workload.name, seed, seconds, 0, scale)
        print_metrics(result, detail)
        record = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": result["metrics"],
            "samples": detail["samples"],
            "per_layer": {},
        }
        if traced:
            share = max(0.2, seconds * TRACE_SECONDS_SHARE)
            layer_result, layer_detail = invoke(workload.name, seed, share, 1, scale)
            print_metrics(layer_result, layer_detail)
            record["correct"] = record["correct"] and layer_result["correct"]
            record["per_layer"] = layer_result["metrics"]
            record["samples"].update(layer_detail["samples"])
        records[workload.name] = record
    return records


def all_correct(records: dict) -> bool:
    return all(record["correct"] for record in records.values())


def mode_smoke(seed: int) -> int:
    """Every workload at smoke size, both trace modes, inside the budget."""
    started = time.perf_counter()
    records = full_set(seed, 0.2, scale="smoke")
    elapsed = time.perf_counter() - started
    leftovers = os.listdir(os.path.join(OUT, "tmp"))
    print(f"smoke: {elapsed:.1f}s of {SMOKE_BUDGET_S:.0f}s, leftovers in out/tmp: {leftovers}")
    ok = all_correct(records) and elapsed <= SMOKE_BUDGET_S and not leftovers
    return 0 if ok else 1


def mode_aa(seed: int, seconds: float, sets: int) -> int:
    import ledger

    runs = []
    for index in range(sets):
        print(f"--- A/A set {index + 1} of {sets} (seed {seed + index}) ---")
        runs.append(full_set(seed + index, seconds, traced=False))
    lines, ok = ledger.aa_report(runs, load_spec())
    print("\n".join(lines))
    print("A/A gate:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def mode_record(seed: int, seconds: float) -> int:
    import ledger
    import workloads

    records = full_set(seed, seconds)
    if not all_correct(records):
        print("not recorded: wrong answers", file=sys.stderr)
        return 1
    sizes = {w.name: [w.full.n, w.full.m, w.full.labels] for w in workloads.WORKLOADS}
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(ledger.record_line(ROOT, seed, seconds, sizes, records)) + "\n")
    print(f"appended to {os.path.relpath(HISTORY, ROOT)}")
    return 0


def mode_compare(ref_a: str, ref_b: str) -> int:
    import ledger

    history = ledger.load_history(HISTORY)
    lines, ok = ledger.compare(ledger.pick(history, ref_a), ledger.pick(history, ref_b), load_spec())
    print("\n".join(lines))
    return 0 if ok else 1


def mode_regen_golden(seed: int) -> int:
    """Rewrite golden.json, but only with digests that three independent
    routes agree on (see ``workloads.verified_digest``)."""
    import workloads

    golden: dict = {"full": {}, "smoke": {}}
    scratch = tempfile.mkdtemp(prefix="golden-")
    try:
        for scale in golden:
            for workload in workloads.WORKLOADS:
                digest, problems = workloads.verified_digest(workload, scale, seed, scratch)
                for problem in problems:
                    print(f"{workload.name} [{scale}]: {problem}", file=sys.stderr)
                if problems:
                    print("golden.json not written", file=sys.stderr)
                    return 1
                golden[scale][workload.name] = digest
                print(f"{workload.name} [{scale}]: verified")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # One line per digest: supports lists are long and uninteresting.
    blocks = [
        f' "{scale}": {{\n'
        + ",\n".join(
            f'  "{name}": {json.dumps(digest, sort_keys=True, separators=(",", ":"))}'
            for name, digest in sorted(digests.items())
        )
        + "\n }"
        for scale, digests in golden.items()
    ]
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="contract mode: run this one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="every workload at smoke size")
    parser.add_argument("--aa", type=int, nargs="?", const=2, metavar="K", help="A/A noise gate over K sets")
    parser.add_argument("--record", action="store_true", help="append a full set to history.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="history lines by index or commit")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return mode_compare(*args.compare)
    bootstrap()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload:
        result, detail = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.scale)
        print_metrics(result, detail)
        print("detail " + json.dumps(detail))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.regen_golden:
        return mode_regen_golden(args.seed)
    if args.smoke:
        return mode_smoke(args.seed)
    if args.aa:
        return mode_aa(args.seed, seconds, args.aa)
    if args.record:
        return mode_record(args.seed, seconds)
    return 0 if all_correct(full_set(args.seed, seconds)) else 1


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    raise SystemExit(main())
