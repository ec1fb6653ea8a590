"""Runs the benchmark many times and judges its steadiness against the bounds.

    python3 bench/steady.py show
        every workload once, on seed 1: each end-to-end metric, attempted
        and failed
    python3 bench/steady.py runs [--workload W] [--seeds 1-10]
        one run per seed and workload: median, quartiles and spread of every
        end-to-end metric, against the bounds in BENCHMARK.json
    python3 bench/steady.py compare FIRST SECOND
        two sets of runs: how far each median moved, against the bounds,
        and whether the share of failed operations is the same
    python3 bench/steady.py overhead [--workload W] [--seed N]
        a traced and an untraced run of one seed: the tracing overhead

Each run is ``python3 bench/run.py`` in its own process, from the root of
the checkout, for the ``run_seconds`` of BENCHMARK.json.  ``runs`` writes its
results to ``bench/results/runs-<workload>-<seeds>.json``.
The spread of a metric is the distance between its first and third
quartile, as a share of its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int = 0) -> dict:
    command = spec()["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec()["run_seconds"]),
                                   "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["wall_s"] = wall
    result["notes"] = [line for line in done.stdout.splitlines()
                       if line.startswith("#")]
    return result


def quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarize(name: str, runs: list[dict]) -> bool:
    """Print median, quartiles and spread per metric; True if within bounds."""
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    shares = {r["failed"] / r["attempted"] for r in runs}
    ok = all(r["correct"] for r in runs) and len(shares) == 1
    attempted = [r["attempted"] for r in runs]
    walls = [r["wall_s"] for r in runs]
    print(f"{name}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
          f"failed share {sorted(shares)}, attempted {min(attempted)}..{max(attempted)}, "
          f"wall {min(walls):.1f}..{max(walls):.1f} s")
    for metric, bound in bounds.items():
        values = [r["metrics"][metric]["value"] for r in runs]
        unit = runs[0]["metrics"][metric]["unit"]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median
        mark = "ok" if spread <= bound / 3 else ("near" if spread <= bound else "WIDE")
        ok &= spread <= bound
        print(f"  {metric:18s} median {median:10.4f} {unit:4s} q1 {q1:10.4f} "
              f"q3 {q3:10.4f} spread {spread:6.3f} bound {bound:.2f} {mark}")
    return ok


def compare(first: dict, second: dict) -> bool:
    ok = True
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    for workload in first:
        a, b = first[workload], second.get(workload)
        if b is None:
            continue
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        same = share_a == share_b and len(share_a) == 1
        ok &= same
        print(f"{workload}: failed share {sorted(share_a)} vs {sorted(share_b)}"
              f" {'same' if same else 'DIFFERENT'}")
        for name, m in metrics.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            fine = worse <= m["bound"]
            ok &= fine
            print(f"  {name:18s} {ma:10.4f} -> {mb:10.4f} {m['unit']:4s} "
                  f"worse by {worse:+.3f} (bound {m['bound']:.2f}) "
                  f"{'ok' if fine else 'OVER'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    names = [w["name"] for w in spec()["workloads"]]

    sub.add_parser("show")

    p = sub.add_parser("runs")
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seeds", default="1-10")

    p = sub.add_parser("compare")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path)

    p = sub.add_parser("overhead")
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)

    args = parser.parse_args(argv)
    if args.command == "show":
        for name in names:
            r = run_once(name, 1)
            print(f"{name}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}")
            for metric, v in r["metrics"].items():
                print(f"  {metric:18s} {v['value']:12.4f} {v['unit']}")
        return 0
    if args.command == "runs":
        chosen = names if args.workload == "all" else [args.workload]
        out = BENCH / "results" / f"runs-{args.workload}-{args.seeds}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        results, ok = {}, True
        for name in chosen:
            results[name] = []
            for seed in seeds(args.seeds):
                results[name].append(run_once(name, seed))
                out.write_text(json.dumps(results, indent=1), encoding="utf-8")
            ok &= summarize(name, results[name])
        print(f"written to {out}")
        return 0 if ok else 1
    if args.command == "compare":
        first = json.loads(args.first.read_text(encoding="utf-8"))
        second = json.loads(args.second.read_text(encoding="utf-8"))
        return 0 if compare(first, second) else 1
    chosen = names if args.workload == "all" else [args.workload]
    for name in chosen:
        plain = run_once(name, args.seed, 0)
        traced = run_once(name, args.seed, 1)
        traced_e2e = json.loads(next(line for line in traced["notes"] if line.startswith(
            "# end-to-end "))[len("# end-to-end "):])
        print(f"{name} seed {args.seed}: attempted {plain['attempted']} "
              f"untraced, {traced['attempted']} traced")
        for metric in ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms"):
            u = plain["metrics"][metric]["value"]
            t = traced_e2e[metric]
            print(f"  {metric:18s} untraced {u:10.4f} traced {t:10.4f} "
                  f"difference {(t - u) / u:+.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
