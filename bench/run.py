"""Closed-loop benchmark of choicelattice: one process, one thread, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single caller issues the next operation only after the previous one has
returned.  A run sets up ``SETUP_REPEATS`` times (import, inputs, models and
files built through the program, warm-up) and keeps the last set-up.  It then
runs whole rounds of the workload's operations until ``--seconds`` have passed
and at least ``MIN_OPS`` operations were attempted, checking every output.
``gc.collect()`` runs between operations, outside the timer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced
(``--trace 0``) the metrics are the end-to-end ones; traced (``--trace 1``)
they are the per-layer ones, and the spans go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from common import MissingProgram, load_program, require_program
from spans import Tracer, Untraced

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("decompose", "membership", "lattice", "cli")
SETUP_REPEATS = 5
MIN_OPS = 100
CORE_CALLS = 2000

END_TO_END = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}

# Per-layer metrics.  A metric ending in _ms or _us is the median duration of
# the span named by the rest of it; any other metric is the median of the
# counter of that name.
PER_LAYER = {
    "core.join_us": "us", "core.meet_us": "us", "core.compare_us": "us",
    "models.lattice_closure_ms": "ms", "models.is_lattice_ms": "ms",
    "models.theta_model_ms": "ms",
    "models.closure_size": "functions", "models.theta_size": "functions",
    "identify.identify_primitive_ms": "ms", "identify.betweenness_ms": "ms",
    "identify.check_axioms_ms": "ms", "identify.orders_found": "orders",
    "random_choice.decompose_progressive_ms": "ms",
    "random_choice.satisfies_rtheta_ms": "ms",
    "random_choice.decompose_theta_ms": "ms", "random_choice.compose_ms": "ms",
    "random_choice.components": "functions",
    "random_choice.in_delta_lattice_ms": "ms",
    "random_choice.in_delta_rational_ms": "ms",
    "oracle.lp_columns": "count", "oracle.lp_rows": "count",
    "cli.load_model_ms": "ms", "cli.load_rcf_ms": "ms",
    "cli.load_orderings_ms": "ms", "cli.model_json_ms": "ms",
    "cli.main_decompose_ms": "ms", "cli.main_check_ms": "ms",
    "cli.main_closure_ms": "ms", "cli.main_identify_ms": "ms",
    "cli.main_hasse_ms": "ms", "cli.main_generate_ms": "ms",
}
SCALE = {"ms": 1e-6, "us": 1e-3}


def workload(name: str):
    return importlib.import_module(f"wl_{name}")


def patch_program(lib, tracer: Tracer) -> None:
    """Spans for the layer calls the program makes inside itself."""
    for attr in ("betweenness", "check_axioms"):
        tracer.patch(lib.identify, attr, f"identify.{attr}")
    for attr in ("load_model", "load_rcf", "load_orderings", "model_json"):
        tracer.patch(lib.cli, attr, f"cli.{attr}")


def set_up(workload, seed: int, tracer, workdir: Path):
    """Repeat the set-up; return the median time and the last set-up.

    Each set-up starts, like a user's, with no earlier set-up alive and no
    garbage left to collect.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        lib = state = None
        gc.collect()
        start = perf_counter()
        lib = load_program()
        if last and isinstance(tracer, Tracer):
            patch_program(lib, tracer)
        state = workload.setup(lib, seed, tracer if last else Untraced(),
                               workdir / f"setup{rep}")
        times.append(perf_counter() - start)
    return statistics.median(times), lib, state


def timed_loop(workload, state, seconds: float, tracer):
    """Run whole rounds; return latencies by operation and by kind, busy
    time, operations attempted, failures and wrong outputs."""
    latencies: list[float] = []
    kinds: dict[str, list[float]] = {}
    busy = 0.0  # time in which an operation was in flight
    attempted = 0
    failures: list[str] = []  # operations that raised
    wrong: list[str] = []  # outputs that failed a check
    verified: dict = {}
    start = perf_counter()
    rnd = 0
    while True:
        ops = workload.ops_for_round(state, rnd)
        # Keep checked outputs only for inputs this round uses again.
        verified = {op.key: verified[op.key] for op in ops if op.key in verified}
        for i, op in enumerate(ops):
            # Each operation starts with no garbage, and automatic collections
            # inside it scan only what it allocated itself, not what earlier
            # operations left alive.
            gc.collect()
            gc.freeze()
            tracer.op = f"{rnd}.{i}"
            attempted += 1
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception:
                busy += perf_counter() - t0
                failures.append(f"{op.kind}: "
                                + traceback.format_exc(limit=2).splitlines()[-1])
                continue
            elapsed = perf_counter() - t0
            busy += elapsed
            latencies.append(elapsed)
            kinds.setdefault(op.kind, []).append(elapsed)
            tracer.op = "check"
            try:
                value = op.canon(out)
                if op.key in verified:
                    problem = (None if verified[op.key] == value else
                               "output differs from the checked output "
                               "of the same input")
                else:
                    problem = op.check(value)
                    if problem is None:
                        verified[op.key] = value
            except Exception:
                problem = traceback.format_exc(limit=3)
            if problem is not None:
                wrong.append(f"{op.kind}: {problem}")
            del out
        rnd += 1
        if perf_counter() - start >= seconds and attempted >= MIN_OPS:
            return latencies, kinds, busy, attempted, failures, wrong


def end_to_end(latencies, busy, setup_s) -> dict:
    """Throughput is the operations completed over the time in which an
    operation was in flight; the checks and collections between operations
    are not part of it."""
    cuts = statistics.quantiles(latencies, n=10)
    values = {
        "throughput_ops_s": len(latencies) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": cuts[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def time_core(lib, tracer: Tracer, triples) -> None:
    """Median cost of the public pick-vector operations, one call at a time."""
    tracer.op = "core"
    core = lib.core
    for name, fn in (("core.join", core.join), ("core.meet", core.meet),
                     ("core.compare", core.compare)):
        for i in range(CORE_CALLS):
            c1, c2, ordering = triples[i % len(triples)]
            tracer.call(name, fn, c1, c2, ordering)


def per_layer(workload_name, seed, lib, state, tracer: Tracer, workdir) -> tuple[dict, list]:
    """Per-layer medians from this workload's spans.

    Layers this workload never calls are measured on the set-up of the other
    workloads (the same seed), which builds their inputs through the program
    and runs one warm-up operation of each kind.
    """
    time_core(lib, tracer, workload(workload_name).core_triples(state))
    own = tracer.summary(lambda op: not str(op).startswith("probe"))
    for other in WORKLOADS:
        if other != workload_name:
            tracer.op = f"probe:{other}"
            workload(other).setup(lib, seed, tracer, workdir / f"probe-{other}")
    probe = tracer.summary(lambda op: str(op).startswith("probe"))
    metrics, rows = {}, []
    for metric, unit in PER_LAYER.items():
        source = metric[:-3] if unit in SCALE else metric
        where, entry = ("run", own.get(source))
        if entry is None:
            where, entry = ("probe", probe.get(source))
        if entry is None:
            raise RuntimeError(f"no calls of {source} on any workload")
        value = entry["median"] * SCALE.get(unit, 1)
        metrics[metric] = {"value": value, "unit": unit}
        self_ms = entry["self_ns"] * 1e-6 if "self_ns" in entry else None
        rows.append((metric, value, unit, entry["calls"], self_ms, where))
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = workload(args.workload)
    tracer = Tracer() if args.trace else Untraced()
    try:
        require_program()
    except MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    (BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as tmp:
        workdir = Path(tmp)
        setup_s, lib, state = set_up(chosen, args.seed, tracer, workdir)
        latencies, kinds, busy, attempted, failures, wrong = timed_loop(
            chosen, state, args.seconds, tracer)
        for line in sorted(set(failures)) + wrong[:20]:
            print(line, file=sys.stderr)
        e2e = end_to_end(latencies, busy, setup_s)
        print(f"# {args.workload} seed={args.seed}: {attempted} attempted, "
              f"{len(failures)} failed, {len(wrong)} wrong; "
              + ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in e2e.items()))
        print("# end-to-end " + json.dumps(
            {k: v["value"] for k, v in e2e.items()}))
        print("# by kind: " + "; ".join(
            f"{kind} {len(v)} ops median {statistics.median(v) * 1e3:.1f} ms"
            for kind, v in sorted(kinds.items())))
        metrics = e2e
        if isinstance(tracer, Tracer):
            metrics, rows = per_layer(args.workload, args.seed, lib, state,
                                      tracer, workdir)
            for metric, value, unit, calls, self_ms, where in rows:
                own = "" if self_ms is None else f"  self {self_ms:10.1f} ms"
                print(f"#   {metric:40s} {value:12.4f} {unit:9s} "
                      f"calls {calls:6d}{own}  ({where})")
            results = BENCH / "results"
            results.mkdir(exist_ok=True)
            tracer.write(results / f"spans-{args.workload}-{args.seed}.json")
            tracer.unpatch()
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
