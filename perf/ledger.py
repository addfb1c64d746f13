"""The committed history and the noise-aware reports over it.

``history.jsonl`` is append-only, one JSON object per ``run.py --record``;
its first line is the baseline of the PR that added the ledger.  A change
is flagged by ``compare`` only when it is beyond both the metric's bound
and the run's own inter-quartile spread, and ``aa_report`` is the gate
that says whether the box is quiet enough for the bounds to mean anything.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess


def spread(values: list[float]) -> float:
    """Inter-quartile distance (``statistics.quantiles(n=4)``) as a share
    of the median — the statistic the acceptance gate uses."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def aa_report(sets: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Spread of the K sets' medians per workload × end-to-end metric.

    A spread above half the metric's bound fails the gate; above a third
    it is marked, because the acceptance run wants a third."""
    lines = [f"{'workload':<16} {'metric':<20} {'median':>12} {'spread':>8} {'bound':>7}  verdict"]
    ok = True
    for workload in sets[0]:
        for metric in spec["end_to_end"]:
            values = [s[workload]["end_to_end"][metric["name"]]["value"] for s in sets]
            share = spread(values)
            verdict = "ok"
            if share > metric["bound"] / 2:
                verdict, ok = "TOO NOISY (> bound/2)", False
            elif share > metric["bound"] / 3:
                verdict = "marginal (> bound/3)"
            lines.append(
                f"{workload:<16} {metric['name']:<20} {statistics.median(values):>12.6g} "
                f"{share:>8.2%} {metric['bound']:>7.0%}  {verdict}"
            )
        if not all(s[workload]["correct"] for s in sets):
            lines.append(f"{workload:<16} WRONG ANSWERS")
            ok = False
    return lines, ok


def current_commit(root: str) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def record_line(root: str, seed: int, seconds: float, sizes: dict, records: dict) -> dict:
    import numpy

    return {
        "commit": current_commit(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "sizes": sizes,
        "workloads": records,
    }


def load_history(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def pick(history: list[dict], ref: str) -> dict:
    """A history line by index (``0``, ``-1``) or by commit prefix (the
    latest line of that commit)."""
    try:
        return history[int(ref)]
    except (ValueError, IndexError):
        pass
    for line in reversed(history):
        if line["commit"].startswith(ref):
            return line
    raise SystemExit(f"no history line matches {ref!r}")


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Per-workload rows of B against A; True when nothing regressed."""
    lines = [
        f"A = {a['commit']} (seed {a['seed']})   B = {b['commit']} (seed {b['seed']})",
        f"{'workload':<16} {'metric':<20} {'A':>12} {'B':>12} {'change':>8} {'bound':>6} {'iqr':>6}  verdict",
    ]
    ok = True
    for workload, before in a["workloads"].items():
        after = b["workloads"].get(workload)
        if after is None:
            lines.append(f"{workload:<16} missing from B")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = before["end_to_end"][name]["value"]
            new = after["end_to_end"][name]["value"]
            worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
            # The within-run quartiles bound what one run can resolve.
            noise = 0.0
            for side in (before, after):
                sample = side.get("samples", {}).get(name)
                if sample and sample["median"]:
                    noise = max(noise, (sample["q3"] - sample["q1"]) / sample["median"])
            verdict = "~"
            if abs(worse) > metric["bound"] and abs(worse) > noise:
                verdict = "REGRESSION" if worse > 0 else "improved"
                ok = ok and worse <= 0
            lines.append(
                f"{workload:<16} {name:<20} {old:>12.6g} {new:>12.6g} {worse:>+8.1%} "
                f"{metric['bound']:>6.0%} {noise:>6.1%}  {verdict}"
            )
    return lines, ok
