"""pbmkit benchmark: one workload per process, metrics by name, outputs checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload campus_replay --seed 1 --seconds 25 --trace 0

--workload is one of campus_replay, contended_replay, remote_pep,
policy_check, or `all` to run each in a fresh process in turn.  With
--trace 0 it measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs half the time untraced and half traced and reports the
per-layer metrics, including the tracing overhead, and writes the spans
to perfbench/.out/spans-<workload>.jsonl.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The package is imported from src/ of the same checkout; the
benchmark fails if it is not there.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
# setup_s is the median of this many rounds of (import in a fresh
# interpreter + the workload's set-up).  With --trace 0 the rounds are
# spread over the run, each followed by an equal share of the timed
# loop: rounds taken back to back all fell in one speed phase of the
# shared host, and their median moved by up to 1.6x from run to run.
SETUP_ROUNDS = 7
# One untimed operation first, so the timed loop does not include the
# interpreter's first-use costs (allocator growth, cold caches).
WARMUP_SECONDS = 1e-9

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pbmkit; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Time to import pbmkit in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _load_package():
    if not (SRC / "pbmkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no pbmkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pbmkit

    if Path(pbmkit.__file__).resolve().parent != SRC / "pbmkit":
        raise SystemExit(f"error: imported pbmkit from {pbmkit.__file__}, not {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    from spans import Tracer, nearest_rank
    from workloads import WORKLOADS, Phase

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    workload = WORKLOADS[name](seed, workdir)
    try:
        workload.prepare()
        if not trace:
            phase, phases, setup_times = Phase(), [], []
            for round_ in range(SETUP_ROUNDS):
                if round_:
                    workload.teardown()
                import_s = _import_seconds()
                start = perf_counter()
                workload.setup()
                setup_times.append(import_s + perf_counter() - start)
                workload.after_setup()
                if not round_:
                    phases.append(workload.loop(WARMUP_SECONDS))
                phase.extend(workload.loop(seconds / SETUP_ROUNDS))
            if not phase.latencies:
                raise RuntimeError("no operation completed")
            metrics = {
                "throughput_per_s": phase.throughput,
                "latency_p90_ms": nearest_rank(phase.latencies, 90) * 1e3,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": _peak_rss_mb() + workload.extra_rss_mb(),
            }
            phases.append(phase)
            print(f"{name}: {phase.ops} {workload.op_unit} in {phase.busy:.3f} s busy,"
                  f" {phase.operations} operations, throughput = {workload.op_unit} / busy seconds;"
                  f" latency = {workload.latency_unit}, {len(phase.latencies)} samples;"
                  f" set-up = median of {len(setup_times)} rounds of import + set-up, spread over the run")
            print("  latency (not bounded): " + ", ".join(
                f"p{q} {nearest_rank(phase.latencies, q) * 1e3:.6g} ms" for q in (50, 99)))
        else:
            tracer = Tracer()
            workload.instrument(tracer)
            for round_ in range(SETUP_ROUNDS):
                if round_:
                    workload.teardown()
                workload.setup()
            tracer.unpatch()
            workload.after_setup()
            warmup = workload.loop(WARMUP_SECONDS)
            cpu0, wall0, server0 = os.times(), perf_counter(), workload.server_cpu()
            plain = workload.loop(seconds / 2)
            wall = perf_counter() - wall0
            cpu1, server1 = os.times(), workload.server_cpu()
            workload.instrument(tracer)
            traced = workload.loop(seconds / 2, tracer)
            tracer.unpatch()
            metrics = workload.layer_metrics(tracer)
            metrics.update({
                "proc.client_cpu_ratio": (cpu1.user + cpu1.system - cpu0.user - cpu0.system) / wall,
                "proc.server_cpu_ratio": (server1 - server0) / wall if server0 is not None else 0.0,
                "proc.server_peak_rss_mb": workload.extra_rss_mb(),
                "trace.overhead_pct": (plain.ops / plain.busy * traced.busy / traced.ops - 1) * 100,
            })
            phases = [warmup, plain, traced]
            tracer.write(OUT / f"spans-{name}.jsonl")
            print(f"{name}: untraced {plain.throughput:.6g}/s, traced {traced.throughput:.6g}/s"
                  f" ({workload.op_unit}); {len(tracer.spans)} spans written to"
                  f" {(OUT / f'spans-{name}.jsonl').relative_to(ROOT)}; self time = span minus children")
            for line in tracer.table():
                print(line)
        workload.finish()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    for line in workload.properties():
        print(f"  input: {line}")
    for reason, count in workload.failures.most_common():
        print(f"  failed {count}x: {reason}")
    for problem in workload.problems[:20]:
        print(f"  INCORRECT: {problem}")
    attempted, failed = workload.accounting(phases)
    group = "per_layer" if trace else "end_to_end"
    out_metrics = {}
    for entry in spec[group]:
        # A layer the workload never calls reads 0; an end-to-end metric must exist.
        value = metrics.get(entry["name"], 0.0) if trace else metrics[entry["name"]]
        out_metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']} = {value:.6g} {entry['unit']}")
    return {
        "correct": not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }


def _terminate(signum, frame):
    # Unwind through the finally blocks, which stop the pdp serve subprocess.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        status = 0
        for name in names:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            status = max(status, subprocess.run(command).returncode)
        return status
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    _load_package()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
