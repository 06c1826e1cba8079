"""Tests of the benchmark itself (not collected by the library's test suite).

    python -m pytest bench/test_bench.py -q

They use the cheapest ops each op stream has: its warm-up op plus one small
op, so the whole module runs in a few minutes, most of it `verify-all`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as harness  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

from fracbspde import cli  # noqa: E402


def small_ops(workdir: Path) -> list:
    """Warm-up ops plus one cheap op of each other kind."""
    ops = [part.warmup(workdir) for part in W.PARTS.values()]
    rng = np.random.default_rng(5)
    ops.append(W._holder_op(rng, "rand", 256, 48))
    ops.append(W._probe_op(1.5, 0.5, (0.25, 1.0), 4000, 7))
    return ops


def traced_records(ops, tracer: Tracer) -> list:
    out = []
    for i, op in enumerate(ops):
        with tracer.installed():
            out.append(harness.execute(op, f"t{i}", tracer, op_id=i))
    return out


def test_op_outputs_identical_with_tracing_on_and_off(tmp_path):
    ops = small_ops(tmp_path)
    plain = [harness.execute(op, f"t{i}") for i, op in enumerate(ops)]
    traced = traced_records(ops, Tracer())
    for p, t in zip(plain, traced):
        assert p.passed and t.passed, (p.cause, t.cause)
        assert p.sha256 == t.sha256, p.kind
        assert p.exact_sha256 == t.exact_sha256, p.kind


def test_exact_counts_repeat_and_spans_cover_ops(tmp_path):
    first, second = Tracer(), Tracer()
    traced_records(small_ops(tmp_path), first)
    traced_records(small_ops(tmp_path), second)
    assert dict(first.counts) == dict(second.counts)
    assert dict(first.calls) == dict(second.calls)
    for key in ("fft.points", "zakai.path_steps", "regression.design_cells",
                "grid.norm_cells", "kernel.points", "levy.samples"):
        assert first.counts[key] > 0, key
    metrics = first.layer_metrics()
    assert metrics["op.unattributed_share"] <= 0.10


def test_tracer_restores_every_binding():
    import fracbspde.bspde
    import fracbspde.regression

    before = (np.fft.fft, fracbspde.bspde.project_expectation, fracbspde.regression.project_expectation)
    with Tracer().installed():
        assert np.fft.fft is not before[0]
        assert fracbspde.bspde.project_expectation is not before[1]
    after = (np.fft.fft, fracbspde.bspde.project_expectation, fracbspde.regression.project_expectation)
    assert after == before


def test_chrome_trace_spans_nest(tmp_path):
    tracer = Tracer()
    traced_records(small_ops(tmp_path)[:1], tracer)
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path, {})
    events = json.loads(path.read_text())["traceEvents"]
    ids = {e["args"]["id"]: e for e in events}
    assert events and all(e["ph"] == "X" for e in events)
    for e in events:
        parent = e["args"]["parent"]
        if parent is None:
            assert e["name"].startswith("op.")
            continue
        p = ids[parent]
        assert p["ts"] <= e["ts"] and e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1.0
        assert e["args"]["op"] == p["args"]["op"]


def test_verify_all_quick_report_identical_with_tracing(tmp_path):
    def report(tag, tracer=None):
        rep, timing = tmp_path / f"report-{tag}.json", tmp_path / f"timing-{tag}.json"
        argv = ["verify-all", "--tier", "quick", "--seed", "7", "--report", str(rep),
                "--timing", str(timing)]
        if tracer is None:
            assert cli.main(argv) == 0
        else:
            with tracer.installed():
                assert cli.main(argv) == 0
        return rep.read_bytes()

    tracer = Tracer()
    assert report("off") == report("on", tracer)
    assert tracer.calls["cli.main"] == 1 and tracer.counts["fft.points"] > 0


def test_warmup_outputs_match_reference_digests(tmp_path):
    assert set(json.loads(harness.REFERENCE.read_text())["workloads"]) == set(W.WORKLOADS)
    facts = harness.machine_facts(len(os.sched_getaffinity(0)))
    for name, wl in W.WORKLOADS.items():
        digests = harness.Digests(name, seed=12345, facts=facts)
        rec = harness.execute(wl.warmup(tmp_path), "warmup")
        digests.check(rec)
        assert rec.digest in ("exact", "close"), name


def test_rounds_repeat_for_a_seed(tmp_path):
    for wl in W.WORKLOADS.values():
        a = wl.draw_round(3, 2, tmp_path, "a")
        b = wl.draw_round(3, 2, tmp_path, "b")
        assert [(o.kind, o.params) for o in a] == [(o.kind, o.params) for o in b]
        other = wl.draw_round(4, 2, tmp_path, "c")
        assert [o.params for o in other] != [o.params for o in a]
        # every round has the same mix of op sizes
        assert sorted(o.cls for o in other) == sorted(o.cls for o in a)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    rec = harness.Record("k", "kind", {}, 1.0, True, "")
    computed = set(Tracer().layer_metrics()) | set(harness._common([rec], rec))
    computed |= {"trace.overhead_ratio", "trace.untraced_ops_per_s", "trace.traced_ops_per_s"}
    assert per_layer == computed
    assert [m["name"] for m in spec["end_to_end"]] == ["ops_per_s", "setup_s", "peak_rss_mb"]


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "control_holder", "--seed", "1",
         "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("part", sorted(W.PARTS))
def test_gate_fails_on_a_wrong_output(tmp_path, part):
    """A gate must reject outputs the oracle contradicts, not only exceptions."""
    op = W.PARTS[part].warmup(tmp_path)
    result = op.run()
    assert op.check(result).passed
    if part == "control":
        assert not op.check(1).passed  # a nonzero exit code
    elif part == "kernel":
        rc, bounds = result
        assert not op.check((1, bounds)).passed
        bad = [dataclasses.replace(bounds[0], constant=float("nan"))] + bounds[1:]
        assert not op.check((rc, bad)).passed
    elif part == "holder":
        result = type(result)(lhs=float("nan"), rhs=result.rhs)
        assert not op.check(result).passed
    else:
        closed, reg = result
        reg.u_hat = reg.u_hat * 3.0
        assert not op.check((closed, reg)).passed
