"""The workload process: times its own set-up, then runs whole rounds of verb calls.

Started by run.py as  python3 workload.py PLAN_JSON T0
where T0 is time.monotonic() in the parent just before the start, and the
environment pins the BLAS thread count. Set-up is the time from T0 to the
end of `import collabdesign.cli`, which imports numpy and every layer, as
every CLI call does. Each op calls collabdesign.cli.main(argv) in this
process. The last line of stdout is one JSON record for run.py.
"""
import json
import os
import sys
import time


def _call_main(main, argv) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op; report it and keep measuring
        import traceback

        traceback.print_exc()
        return -1


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    plan_path, t0 = sys.argv[1], float(sys.argv[2])
    import collabdesign.cli

    setup_s = time.monotonic() - t0
    import resource

    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(collabdesign.cli.__file__).startswith(src + os.sep):
        print(f"collabdesign imported from {collabdesign.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    kinds = ["untraced"]
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        kinds = ["untraced", "traced"]
    rounds, traced_spans = [], []
    started = time.perf_counter()
    while True:
        k = len(rounds)
        kind = kinds[k % len(kinds)]
        past = [r["wall_s"] for r in rounds if r["kind"] == kind]
        estimate = sum(past) / len(past) if past else 0.0
        if k >= len(kinds) and time.perf_counter() - started + estimate > plan["seconds"]:
            break
        if kind == "traced":
            tracer.install()
        ops, wall = [], 0.0
        try:
            for op in plan["ops"]:
                out = os.path.join(plan["run_dir"], f"r{k}", op["name"])
                argv = [a.replace("{out}", out) for a in op["argv"]]
                t = time.perf_counter()
                rc = _call_main(collabdesign.cli.main, argv)
                dt = time.perf_counter() - t
                wall += dt
                ops.append({"name": op["name"], "rc": rc, "out": out, "s": dt})
        finally:
            if kind == "traced":
                tracer.uninstall()
        record = {"kind": kind, "wall_s": wall, "ops": ops}
        if kind == "traced":
            spans = tracer.take()
            record["layers"] = tracing.aggregate(spans)
            traced_spans.append(spans)
        rounds.append(record)

    machine = machine_record()
    if tracer is not None:
        tracing.write_spans(plan["spans_path"], traced_spans, machine, tracer.missing)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0, "rounds": rounds,
                      "machine": machine}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
