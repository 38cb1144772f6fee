"""Run one named workload of the collabdesign benchmark and print its metrics.

    python3 collabbench/run.py --workload fig4-grid --seed 0 --seconds 45 --trace 0

Run it from anywhere in a source checkout: it benchmarks the collabdesign
package under the checkout's src/. It writes the workload's inputs, starts a
fresh workload process (BLAS pinned to one thread) that runs whole rounds
of CLI verb calls for about --seconds seconds, checks every op's outputs
against computations of its own, and prints one JSON object as the last
line of stdout: correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
workload process alternates untraced and traced rounds and the metrics are
the per-layer ones, and the spans go to .bench_out/traces/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The workload process must end within this, so that the run ends within 180 s.
CHILD_TIMEOUT_S = 165.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _fail(message: str) -> int:
    print(f"collabbench: {message}", file=sys.stderr)
    return 1


def _output_bytes(out: Path) -> dict:
    """Every output of an op except the metadata sidecars, which name the output dir."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if not p.name.endswith(".metadata.json")}


def check_rounds(rounds: list, plan: dict) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every op of every round.

    An op fails if it exits non-zero or any of its outputs fails a check.
    correct is false if an op that exited 0 wrote wrong outputs, or outputs
    that differ from the same op's outputs in another round (the program
    promises byte-identical reruns).
    """
    ops = {op["name"]: op for op in plan["ops"]}
    attempted = failed = 0
    correct = True
    first_bytes: dict = {}
    for rnd in rounds:
        for op in rnd["ops"]:
            attempted += 1
            if op["rc"] != 0:
                failed += 1
                print(f"collabbench: {op['name']} exited {op['rc']}", file=sys.stderr)
                continue
            out = Path(op["out"])
            spec = ops[op["name"]]
            try:
                errors = checks.CHECKS[spec["kind"]](out, spec["ctx"])
                written = _output_bytes(out)
            except (OSError, ValueError, KeyError) as exc:
                errors = [f"unreadable output: {exc!r}"]
                written = None
            if written is not None:
                reference = first_bytes.setdefault(op["name"], written)
                if written != reference:
                    errors.append("outputs differ from the same op in an earlier round")
            if errors:
                failed += 1
                correct = False
                for err in errors:
                    print(f"collabbench: {op['name']}: {err}", file=sys.stderr)
    return attempted, failed, correct


def end_to_end(child: dict, plan: dict) -> dict:
    untraced = [r for r in child["rounds"] if r["kind"] == "untraced"]
    last = untraced[-1]
    outs = {op["name"]: Path(op["out"]) for op in last["ops"]}
    ctx_of = {op["name"]: op["ctx"] for op in plan["ops"]}
    # A round's time as the sum of each verb call's median over the rounds, so
    # that a slow spell on a shared host moves one call's samples, not a round.
    values = {
        "wall_s": sum(statistics.median(r["ops"][k]["s"] for r in untraced)
                      for k in range(len(last["ops"]))),
        "setup_s": child["setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    values.update(checks.ncdc(plan["workload"], outs, ctx_of))
    return values


def per_layer(child: dict) -> dict:
    traced = [r for r in child["rounds"] if r["kind"] == "traced"]
    untraced = [r for r in child["rounds"] if r["kind"] == "untraced"]
    keys = set().union(*(r["layers"] for r in traced))
    values = {k: statistics.median(r["layers"].get(k, 0.0) for r in traced) for k in keys}
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - (
        statistics.median(r["wall_s"] for r in untraced)
    )
    return values


def _terminate(signum, frame):
    # Unwind through the finally blocks, which stop the workload process.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    src = ROOT / "src"
    if not (src / "collabdesign" / "cli.py").is_file():
        return _fail(f"no collabdesign package under {src}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = ROOT / ".bench_out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    (out_root / "traces").mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.make_plan(args.workload, args.seed, run_dir)
        plan.update(
            workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
            src=str(src), run_dir=str(run_dir),
            spans_path=str(out_root / "traces" / f"{args.workload}.spans.jsonl.gz"),
        )
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=str(src))
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), str(plan_path), repr(t0)],
            stdout=subprocess.PIPE, env=env, cwd=str(run_dir), text=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            return _fail(f"workload process exited {proc.returncode}")
        child = json.loads(stdout.strip().splitlines()[-1])

        attempted, failed, correct = check_rounds(child["rounds"], plan)
        if args.trace:
            # A layer the round never entered reads 0.
            values = per_layer(child)
            metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                       for m in wanted}
        else:
            try:
                values = end_to_end(child, plan)
            except (OSError, ValueError, KeyError) as exc:
                return _fail(f"end-to-end metrics not computable: {exc!r}")
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in wanted}
    except subprocess.TimeoutExpired:
        return _fail(f"workload process did not end within {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("machine " + json.dumps(child["machine"], sort_keys=True))
    print("rounds " + json.dumps([[r["kind"], round(r["wall_s"], 4)] for r in child["rounds"]]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
