"""Tests of the benchmark itself (not of hypertower).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pair():
    args = ("--workload", "sigma-completion", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    # different hash seeds, so no count may depend on set or dict order
    return [_bench(*args, hashseed=h) for h in ("1", "2")]


def test_traced_counts_repeat_exactly(traced_pair):
    first, second = (_result(p) for p in traced_pair)
    assert all(p.returncode == 0 for p in traced_pair)
    counts = {
        name: m["value"]
        for name, m in first["metrics"].items()
        if m["unit"] in ("count", "levels") or name.endswith("hit_ratio")
    }
    assert counts["limit.limit_eq.calls"] > 0
    for name, value in counts.items():
        assert second["metrics"][name]["value"] == value, name


def test_schema_lists_every_metric_with_its_unit(traced_pair):
    untraced = _bench("--workload", "sigma-completion", "--seed", "3", "--seconds", "0.1")
    assert untraced.returncode == 0, untraced.stderr
    for proc, key in ((untraced, "end_to_end"), (traced_pair[0], "per_layer")):
        doc = _result(proc)
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] > 0
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in doc["metrics"].items()}
        assert got == want
        for name, unit in want.items():
            line = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}$"
            assert re.search(line, proc.stdout, re.M), name


def test_wrong_expected_output_fails(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "EXPECTED_PREFIX", (1, 3, 1))
    code = run.main(["--workload", "sigma-completion", "--seed", "3", "--seconds", "0.1"])
    out = capsys.readouterr().out
    doc = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert doc["correct"] is False and doc["failed"] > 0
    assert "metric failed_share = 0 " not in out


def test_laws_cli_bytes_must_repeat(monkeypatch):
    mods = workloads.import_fresh()
    wl = workloads.laws_cli(mods, 5)
    item = next(i for i in wl.items if "tropical" in i.label)
    assert wl.run_item(item).failed == 0
    real_run = mods["cli"].run

    def noisy(argv):
        code = real_run(argv)
        sys.stdout.write(" ")
        return code

    monkeypatch.setattr(mods["cli"], "run", noisy)
    out = wl.run_item(item)
    assert out.failed == out.checks > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "lee-membership", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
