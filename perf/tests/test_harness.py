"""Harness tests for the perf ledger.

Not part of tier-1 (``testpaths = ["tests"]``); run them with
``python -m pytest perf/tests -q``.  They drive ``perf/run.py`` at smoke
size, twice, and hold the schema in ``BENCHMARK.json`` to the code.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Workloads whose ops run on one thread: their counts must repeat exactly.
SERIAL = ("motif4-mem", "fsm3-mem", "clique4-filter", "explore4-spill")


@pytest.fixture(scope="module")
def spec() -> dict:
    return run.load_spec()


@pytest.fixture(scope="module")
def smoke_runs() -> list[dict]:
    return [run.full_set(seed=1, seconds=0.2, scale="smoke") for _ in range(2)]


def test_schema_limits_and_names(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert spec["paths"] == ["perf"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < metric["bound"] <= 0.25 for metric in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_spec_matches_code(spec):
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.LAYER_METRICS
    )


def test_every_workload_reports_every_metric(spec, smoke_runs):
    for records in smoke_runs:
        assert list(records) == [w["name"] for w in spec["workloads"]]
        for name, record in records.items():
            assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1, name
            for metric in spec["end_to_end"]:
                entry = record["end_to_end"][metric["name"]]
                assert entry["unit"] == metric["unit"] and entry["value"] > 0, (name, metric)
            for sampled in ("run_s", "setup_s"):
                assert record["samples"][sampled]["n"] >= run.MIN_OPS
            assert set(record["per_layer"]) == {m["name"] for m in spec["per_layer"]}


def test_counts_repeat_exactly(smoke_runs):
    first, second = smoke_runs
    for name in SERIAL:
        assert (
            first[name]["end_to_end"]["peak_accounted_mb"]
            == second[name]["end_to_end"]["peak_accounted_mb"]
        ), name
        for metric in layers.COUNT_METRICS:
            assert first[name]["per_layer"][metric] == second[name]["per_layer"][metric], (
                name,
                metric,
            )
    # Concurrent workloads still do the same work, whatever the interleaving.
    for name in ("motif4-threads", "service-mix"):
        for metric in ("explore.emitted", "apps.mapped", "service.requests"):
            assert first[name]["per_layer"][metric] == second[name]["per_layer"][metric]


def test_layers_land_where_the_workloads_say(smoke_runs):
    layer = {name: record["per_layer"] for name, record in smoke_runs[0].items()}
    assert layer["explore4-spill"]["storage.io_mb"]["value"] > 0
    for name in ("motif4-mem", "motif4-threads", "fsm3-mem", "clique4-filter"):
        assert layer[name]["storage.io_mb"]["value"] == 0
    assert layer["service-mix"]["service.hit_ratio"]["value"] == pytest.approx(90 / 96)
    assert layer["fsm3-mem"]["eigenhash.calls"]["value"] > layer["motif4-mem"]["eigenhash.calls"]["value"]
    assert layer["motif4-threads"]["executor.threads_over_serial"]["value"] > 0


def test_nothing_left_behind(smoke_runs):
    assert os.listdir(os.path.join(run.OUT, "tmp")) == []
    # Every run was a waited-for subprocess; none may survive as a child.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_corrupted_golden_fails_the_run(tmp_path, monkeypatch, capsys):
    # main() points tempfile at perf/out/tmp; keep that from outliving the test.
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    with open(run.GOLDEN) as handle:
        golden = json.load(handle)
    golden["smoke"]["clique4-filter"]["value"] += 1
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", str(corrupted))
    code = run.main(
        ["--workload", "clique4-filter", "--scale", "smoke", "--seconds", "0.1", "--trace", "0"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    perf/ exist; it must fail there without printing a result."""
    import subprocess

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "motif4-mem", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )  # fmt: skip
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_aa_gate_and_compare_are_noise_aware(spec):
    def one_set(run_s: float) -> dict:
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
        metrics["run_s"] = {"value": run_s, "unit": "s"}
        samples = {"run_s": {"n": 21, "q1": run_s * 0.99, "median": run_s, "q3": run_s * 1.01}}
        return {"w": {"correct": True, "end_to_end": metrics, "samples": samples}}

    _, quiet = ledger.aa_report([one_set(1.0), one_set(1.01), one_set(0.99), one_set(1.0)], spec)
    _, noisy = ledger.aa_report([one_set(1.0), one_set(1.2), one_set(0.9), one_set(1.0)], spec)
    assert quiet and not noisy

    def line(run_s: float) -> dict:
        return {"commit": "c", "seed": 1, "workloads": one_set(run_s)}

    assert ledger.compare(line(1.0), line(1.05), spec)[1]  # inside the bound
    assert not ledger.compare(line(1.0), line(1.3), spec)[1]  # a regression
    assert ledger.compare(line(1.0), line(0.7), spec)[1]  # an improvement is not a failure
