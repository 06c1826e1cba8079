"""Benchmark harness for fracbspde: one workload per run, closed loop, one client.

    python3 bench/run.py --workload control_holder --seed 1 --seconds 50 --trace 0

Run it from a source checkout: it imports ``src/fracbspde`` next to this
directory, never an installed copy, and exits 2 without a result when that
source is missing.  BLAS/OpenMP threads are capped at the number of usable
cores before numpy loads.

``--trace 0`` measures the end-to-end metrics: set-up (median of separate
set-up processes), then complete rounds of ops for about ``--seconds`` of
loop time.  ``--trace 1`` is the separate traced run: one fixed
round, each op once untraced and once under the tracer, which gives the
per-layer metrics, the tracing overhead and a Chrome trace file.  Every op
is gated by the library's own oracle, and its numeric outputs are compared
with the digests stored for the reference seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
the ones BENCHMARK.json lists.  A fuller record (machine facts, every op)
goes to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import base64
import ctypes
import ctypes.util
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference" / "digests.json"
REFERENCE_SEED = 0
SETUP_PROBES = 3
TRACE_ROUNDS = 1
PROBE_TIMEOUT_S = 150
REL_TOL = 1e-12  # the ROADMAP's rule: bit-identical, or within 1e-12 relative
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(Exception):
    pass


def prepare() -> int:
    """Cap BLAS/OpenMP threads and put the checkout's source first on the path."""
    if not (SRC / "fracbspde" / "__init__.py").is_file():
        raise SourceMissing(f"no fracbspde source under {SRC}")
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import fracbspde

    if Path(fracbspde.__file__).resolve().parent != (SRC / "fracbspde").resolve():
        raise SourceMissing(f"fracbspde imported from {fracbspde.__file__}, not {SRC}")
    return cap


# --- machine facts --------------------------------------------------------------


def _cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                info.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return info


def _cache_sizes() -> dict:
    """Data/unified cache sizes of cpu0 by level, e.g. {"L2": "2048K"}."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def machine_facts(cap: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = _cpuinfo()
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name", platform.processor()),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_cap": cap,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_flags_sha256": hashlib.sha256(cpu.get("flags", "").encode()).hexdigest()[:16],
    }


def fingerprint(facts: dict) -> dict:
    """What must match for bit-identical outputs to be expected."""
    keys = ("cpu_model", "cpu_flags_sha256", "numpy", "scipy", "blas", "thread_cap")
    return {k: facts[k] for k in keys}


# --- ops ------------------------------------------------------------------------


@dataclass
class Record:
    key: str  # "r<round>-<pos>" or "warmup"
    kind: str
    params: dict
    latency_s: float
    passed: bool
    cause: str
    sha256: str = ""
    exact_sha256: str = ""
    values_b64: str = ""
    z: list = field(default_factory=list)
    unstable_bounds: int = 0
    working_set: int = 0
    bytes_written: int = 0
    digest: str = "unchecked"  # unchecked | exact | close | mismatch
    cls: str = ""  # the op's size class
    maxrss_mib: float = 0.0  # the process's peak resident memory after the op


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda pad: 0


MALLOC_TRIM = _malloc_trim()


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _decode(text: str):
    import numpy as np

    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype="<f8")


def execute(op, key: str, tracer=None, op_id: int = 0) -> Record:
    """Run one op (timed), then its gate; any exception fails the op, not the run."""
    import numpy as np
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.op(op_id, op.kind, op.params):
                result = op.run()
    except Exception as exc:  # the op failed; record why and go on
        latency = time.perf_counter() - t0
        return Record(key, op.kind, op.params, latency, False, f"{type(exc).__name__}: {exc}",
                      working_set=op.working_set, cls=op.cls)
    latency = time.perf_counter() - t0
    maxrss = _maxrss_mib()
    try:
        outcome = op.check(result)
    except Exception as exc:  # an unreadable output fails the op
        outcome = Outcome(False, f"gate raised {type(exc).__name__}: {exc}", [])
    exact = hashlib.sha256(outcome.exact).hexdigest() if outcome.exact else ""
    raw = np.ascontiguousarray(outcome.values, dtype="<f8").tobytes()
    return Record(
        key,
        op.kind,
        op.params,
        latency,
        bool(outcome.passed),
        outcome.cause,
        sha256=hashlib.sha256(raw).hexdigest(),
        exact_sha256=exact,
        values_b64=base64.b64encode(zlib.compress(raw, 9)).decode(),
        z=[float(z) for z in outcome.z],
        unstable_bounds=outcome.unstable_bounds,
        working_set=op.working_set,
        bytes_written=sum(p.stat().st_size for p in op.outputs if p.exists()),
        cls=op.cls,
        maxrss_mib=maxrss,
    )


class Digests:
    """Reference outputs of the reference seed (and every warm-up op)."""

    def __init__(self, workload: str, seed: int, facts: dict):
        self.entries = {}
        self.same_machine = False
        if REFERENCE.is_file():
            ref = json.loads(REFERENCE.read_text())
            self.same_machine = ref["fingerprint"] == fingerprint(facts)
            entries = ref["workloads"].get(workload, {})
            self.entries = {k: v for k, v in entries.items() if seed == ref["seed"] or k == "warmup"}

    def check(self, rec: Record) -> None:
        import numpy as np

        ref = self.entries.get(rec.key)
        if ref is None or not rec.values_b64:
            return
        if ref["kind"] != rec.kind:
            rec.digest = "mismatch"
        elif ref["sha256"] == rec.sha256:
            rec.digest = "exact"
        else:
            got, want = _decode(rec.values_b64), _decode(ref["values"])
            scale = float(np.max(np.abs(want))) if want.size else 0.0
            close = got.shape == want.shape and np.allclose(
                got, want, rtol=REL_TOL, atol=REL_TOL * scale
            )
            rec.digest = "close" if close else "mismatch"
        # the control policy table must not move at all on the machine that recorded it
        if self.same_machine and ref.get("exact_sha256", "") != rec.exact_sha256:
            rec.digest = "mismatch"


# --- runs -----------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Set up as a run does (imports, inputs, one warm-up op), then report and exit."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    workdir = _workdir(workload, seed)
    try:
        wl.draw_round(seed, 0, workdir, "r0")
        rec = execute(wl.warmup(workdir), "warmup")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"ready {int(rec.passed)}", flush=True)
    return 0


def _workdir(workload: str, seed: int) -> Path:
    path = OUT / f"work-{workload}-seed{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def measure_setup(workload: str, seed: int) -> tuple[list[float], bool]:
    """Wall time from spawning a fresh process to the end of its warm-up op."""
    times, ok = [], True
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = "-"
                while line and not line.startswith("ready "):
                    line = proc.stdout.readline()
                times.append(time.perf_counter() - t0)
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        ok &= line.strip() == "ready 1" and proc.returncode == 0
    return times, ok


def timed_loop(wl, seed: int, seconds: float, workdir: Path, digests: Digests):
    """Complete rounds, back to back, for about `seconds`.

    Another round starts only while it would end nearer `seconds` than
    stopping now does (by the mean round time so far), so a run neither
    falls short nor overshoots by more than half a round.
    """
    records, loop_s, r = [], 0.0, 0
    while r == 0 or loop_s + 0.5 * loop_s / r < seconds:
        ops = wl.draw_round(seed, r, workdir, f"r{r}")
        t0 = time.perf_counter()
        for pos, op in enumerate(ops):
            rec = execute(op, f"r{r}-{pos}")
            digests.check(rec)
            records.append(rec)
            # hand freed heap back, so an op's peak does not hang on the ops before it
            MALLOC_TRIM(0)
        loop_s += time.perf_counter() - t0
        r += 1
    return records, loop_s


def traced_loop(wl, seed: int, workdir: Path, digests: Digests, tracer):
    """Each op of the fixed rounds untraced and traced, alternating which goes first."""
    plain, traced = [], []
    for r in range(TRACE_ROUNDS):
        for pos, op in enumerate(wl.draw_round(seed, r, workdir, f"r{r}")):
            key = f"r{r}-{pos}"
            pair = {}
            for side in ("plain", "traced") if len(plain) % 2 == 0 else ("traced", "plain"):
                if side == "plain":
                    pair[side] = execute(op, key)
                else:
                    with tracer.installed():
                        pair[side] = execute(op, key, tracer, op_id=len(traced))
                    tracer.counts["cli.bytes_written"] += pair[side].bytes_written
            digests.check(pair["traced"])
            plain.append(pair["plain"])
            traced.append(pair["traced"])
    return plain, traced


def _common(records: list[Record], warm: Record) -> dict:
    zs = [z for r in records for z in r.z]
    return {
        "op.error_rate": sum(not r.passed for r in records) / len(records),
        "gate.stat_tests": len(zs),
        "gate.z_over_3": sum(z > 3.0 for z in zs),
        "kernel.unstable_bounds": sum(r.unstable_bounds for r in records),
        "digest.checked": sum(r.digest != "unchecked" for r in [warm] + records),
        "digest.inexact": sum(r.digest == "close" for r in [warm] + records),
    }


def _select(metrics: dict, section: str) -> dict:
    """The metrics BENCHMARK.json names for this section, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def run(workload: str, seed: int, seconds: float, trace: bool, cap: int) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    facts = machine_facts(cap)
    digests = Digests(workload, seed, facts)
    workdir = _workdir(workload, seed)
    problems = []
    try:
        wl.draw_round(seed, 0, workdir, "r0")
        warm = execute(wl.warmup(workdir), "warmup")
        digests.check(warm)
        if trace:
            tracer = Tracer()
            plain, records = traced_loop(wl, seed, workdir, digests, tracer)
            changed = [r.key for r, p in zip(records, plain) if r.sha256 != p.sha256]
            if changed:
                problems.append(f"tracing changed the outputs of {changed}")
            plain_s = sum(r.latency_s for r in plain)
            traced_s = sum(r.latency_s for r in records)
            metrics = tracer.layer_metrics()
            metrics.update(_common(records, warm))
            metrics["trace.overhead_ratio"] = traced_s / plain_s
            metrics["trace.untraced_ops_per_s"] = len(plain) / plain_s
            metrics["trace.traced_ops_per_s"] = len(records) / traced_s
            tracer.write_chrome_trace(
                OUT / f"trace-{workload}-seed{seed}.json",
                {"workload": workload, "seed": seed, "machine": facts},
            )
            section = "per_layer"
        else:
            records, loop_s = timed_loop(wl, seed, seconds, workdir, digests)
            peak_mib = _maxrss_mib()
            setup_times, probes_ok = measure_setup(workload, seed)
            if not probes_ok:
                problems.append("a set-up probe failed its warm-up op")
            passed = sum(r.passed for r in records)
            metrics = {
                "ops_per_s": passed / loop_s,
                "op_p50_s": statistics.median(r.latency_s for r in records),
                **{f"{c}.p50_s": statistics.median(r.latency_s for r in records if r.cls == c)
                   for c in sorted({r.cls for r in records})},
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_mib,
            }
            metrics.update(_common(records, warm))
            facts["setup_probe_s"] = setup_times
            facts["loop_s"] = loop_s
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = [warm] + records
    problems += [f"{r.key} ({r.kind}) failed: {r.cause}" for r in everything if not r.passed]
    problems += [f"{r.key} ({r.kind}) differs from its digest" for r in everything
                 if r.digest == "mismatch"]
    facts["largest_working_set_bytes"] = max(r.working_set for r in everything)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not r.passed for r in records),
        "metrics": _select(metrics, section),
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": facts,
        "problems": problems,
        "all_metrics": metrics,
        "ops": [vars(r) for r in everything],
        "result": result,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True)
    )
    for p in problems:
        print(f"problem: {p}")
    print(
        f"{workload}: {len(records)} ops, {result['failed']} failed; threads capped at {cap}; "
        f"largest working set {facts['largest_working_set_bytes']} B; "
        f"digests checked {metrics['digest.checked']}"
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        cap = prepare()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), cap)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
