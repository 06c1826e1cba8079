"""Repeat benchmark runs and summarise them; record the reference digests.

    python3 bench/baseline.py --runs 10 --out bench/BENCH_0.json
    python3 bench/baseline.py --runs 5 --workloads kernel        # spread check only
    python3 bench/baseline.py --record-reference

Each run is a fresh ``bench/run.py`` process, as every benchmark run is, with
seeds ``--first-seed``, ``--first-seed + 1``, ...  For every
end-to-end metric the summary gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
next to the metric's bound; one traced run per workload adds the per-layer
metrics.  ``--record-reference`` runs the reference seed once per workload
and stores every op's outputs in ``bench/reference/digests.json``; do that
only when a change to the outputs is intended, and say so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as harness  # noqa: E402


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((harness.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "detail": detail}


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def measure(workloads: list[str], runs: int, first_seed: int, seconds: int, traced: bool) -> dict:
    s = spec()
    report = {}
    for w in workloads:
        rows = []
        for i in range(runs):
            rows.append(bench_run(w, first_seed + i, seconds, 0))
            m = rows[-1]["result"]["metrics"]
            print(w, first_seed + i, {k: round(v["value"], 4) for k, v in m.items()},
                  flush=True)
        entry = {
            "seeds": [first_seed + i for i in range(runs)],
            "correct": [r["result"]["correct"] for r in rows],
            "attempted": [r["result"]["attempted"] for r in rows],
            "failed": [r["result"]["failed"] for r in rows],
            "problems": [p for r in rows for p in r["detail"]["problems"]],
            "largest_working_set_bytes": rows[0]["detail"]["machine"]["largest_working_set_bytes"],
            "end_to_end": {},
        }
        for metric in s["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in rows]
            entry["end_to_end"][metric["name"]] = {"unit": metric["unit"],
                                                   **summarise(values, metric["bound"])}
            e = entry["end_to_end"][metric["name"]]
            print(f"  {metric['name']:12s} median {e['median']:.4g} {metric['unit']}  "
                  f"spread {e['spread']:.3f} (bound {metric['bound']}, "
                  f"target < {metric['bound'] / 3:.3f})", flush=True)
        if traced:
            t = bench_run(w, first_seed, seconds, 1)
            entry["traced"] = {
                "seed": first_seed,
                "correct": t["result"]["correct"],
                "per_layer": {k: v["value"] for k, v in t["result"]["metrics"].items()},
            }
        report[w] = entry
    return report


def record_reference(seconds: int) -> None:
    facts = None
    workloads = {}
    for w in (x["name"] for x in spec()["workloads"]):
        detail = bench_run(w, harness.REFERENCE_SEED, seconds, 0)["detail"]
        facts = detail["machine"]
        workloads[w] = {
            op["key"]: {
                "kind": op["kind"],
                "sha256": op["sha256"],
                "exact_sha256": op["exact_sha256"],
                "values": op["values_b64"],
            }
            for op in detail["ops"]
            if op["passed"]
        }
        print(w, len(workloads[w]), "ops recorded", flush=True)
    harness.REFERENCE.parent.mkdir(exist_ok=True)
    harness.REFERENCE.write_text(
        json.dumps(
            {
                "seed": harness.REFERENCE_SEED,
                "tolerance_rel": harness.REL_TOL,
                "fingerprint": harness.fingerprint(facts),
                "workloads": workloads,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated names (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary (with traced runs) here")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    seconds = spec()["run_seconds"]
    if args.record_reference:
        record_reference(seconds)
        return 0
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec()["workloads"]]
    report = measure(names, args.runs, args.first_seed, seconds, traced=bool(args.out))
    if args.out:
        cap = harness.prepare()
        Path(args.out).write_text(
            json.dumps(
                {
                    "machine": harness.machine_facts(cap),
                    "settings": {"runs": args.runs, "seconds": seconds,
                                 "first_seed": args.first_seed},
                    "workloads": report,
                },
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
