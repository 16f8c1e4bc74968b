"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They run every workload at small sizes and check that each metric named in
BENCHMARK.json is reported, and that deliberately perturbed results fail the
correctness gate.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import majorep as mj  # noqa: E402
import workloads as wl  # noqa: E402
from majorep import serialize  # noqa: E402
from worker import tail  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace",
               str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])


def test_counts_repeat_at_a_seed():
    counts = ("geomeasure.landscape_evals", "geomeasure.ascent_calls",
              "marginals.gauge_fit_calls")
    seen = []
    for _ in range(2):
        proc = run("--workload", "entangle", "--seed", "9", "--seconds", "0.2", "--trace", "1",
                   "--smoke")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        seen.append([metrics[c]["value"] for c in counts])
    assert seen[0] == seen[1] and all(v > 0 for v in seen[0])


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("--workload", "entangle", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_leaves_ten_samples_beyond():
    value, pct = tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert sum(x > value for x in range(100)) == 10


# ------------------------------------------------------------ perturbations
def constellation_op(s):
    item = (s, mj.random_su2(np.random.default_rng(2)), (1,) * s.n)
    return item, wl.Constellations.run(wl.Calls(), item)


def test_moved_point_fails_rebuild():
    s = mj.random_symmetric_state(8, np.random.default_rng(1))
    item, (const, rebuilt, before, after) = constellation_op(s)
    assert wl.Constellations.check(item, (const, rebuilt, before, after)).ok
    (root, mult), *rest = const.points
    moved = mj.ProjectiveRoot(root.z + 1e-6, root.w)
    bad = mj.MajoranaConstellation(const.n, ((moved, mult), *rest))
    outcome = wl.Constellations.check(item, (bad, rebuilt, before, after))
    assert not outcome.ok and outcome.kind == "rebuild"


def test_wrong_label_fails():
    s = mj.random_symmetric_state(6, np.random.default_rng(1))
    item, (const, rebuilt, before, _) = constellation_op(s)
    outcome = wl.Constellations.check(item, (const, rebuilt, before, (2, 1, 1, 1, 1)))
    assert not outcome.ok and outcome.kind == "label"


def degenerate_op(mults):
    rng = np.random.default_rng(3)
    item = (wl.degenerate_state(mults, rng), mj.random_su2(rng), tuple(mults))
    return item, wl.Constellations.run(wl.Calls(), item)


def test_degenerate_wrong_label_is_measured_not_failed():
    item, (const, rebuilt, before, after) = degenerate_op((6, 1, 1))
    outcome = wl.Constellations.check(item, (const, rebuilt, before, after))
    assert outcome.ok and "defect" not in outcome.info
    outcome = wl.Constellations.check(item, (const, rebuilt, before, (5, 1, 1, 1)))
    assert outcome.ok and outcome.info["defect"] == "label"


def test_degenerate_rebuild_off_its_constellation_fails():
    item, (const, rebuilt, before, after) = degenerate_op((4, 4))
    amp = rebuilt.c.copy()
    amp[0] += 1e-6
    bad = dataclasses.replace(rebuilt, c=amp)
    outcome = wl.Constellations.check(item, (const, bad, before, after))
    assert not outcome.ok and outcome.kind == "rebuild"
    outcome = wl.Constellations.check(item, (const, rebuilt, before, (4, 3)))
    assert not outcome.ok and outcome.kind == "count"


@pytest.mark.parametrize("item", [
    ("random", mj.random_symmetric_state(8, np.random.default_rng(4)), None),
    ("dicke", mj.dicke_state(8, 3), 3),
    ("ghz", mj.ghz_state(8), None),
])
@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_eg_off_by_a_micro_fails(item, delta):
    report = mj.geometric_measure(item[1])
    assert wl.Entangle.check(item, report).ok
    bad = dataclasses.replace(report, eg=report.eg + delta)
    assert not wl.Entangle.check(item, bad).ok


def test_missing_ring_or_cpp_fails():
    item = ("dicke", mj.dicke_state(8, 3), 3)
    report = mj.geometric_measure(item[1])
    assert not wl.Entangle.check(item, dataclasses.replace(report, ring=False)).ok
    ghz = ("ghz", mj.ghz_state(8), None)
    report = mj.geometric_measure(ghz[1])
    assert not wl.Entangle.check(ghz, dataclasses.replace(report, cpps=report.cpps[:1])).ok


def test_reconstruction_off_the_state_fails():
    full = mj.expand_to_full(mj.dnk_state(6, 2, 0.6, 0.8))
    item = ("unique", full.amp, wl.marginals(full, []))
    result = wl.Reconstruct.run(wl.Calls(), item)
    assert wl.Reconstruct.check(item, result).ok
    amp = result.state.amp.copy()
    amp[1] += 1e-3
    bad = dataclasses.replace(result, state=mj.FullState(6, amp))
    assert not wl.Reconstruct.check(item, bad).ok
    ghz = mj.expand_to_full(mj.ghz_state(6))
    assert not wl.Reconstruct.check(("ambiguous", ghz.amp, None), result).ok


def test_pipeline_entangle_document_off_by_a_micro_fails():
    state = json.dumps(serialize.state_to_dict(mj.ghz_state(4)))
    report = serialize.report_to_dict(mj.geometric_measure(mj.ghz_state(4)))
    assert wl.Pipeline.check(("entangle", 0, None), (state, json.dumps(report))).ok
    report["eg"] += 1e-6
    assert not wl.Pipeline.check(("entangle", 0, None), (state, json.dumps(report))).ok
