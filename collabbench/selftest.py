"""Self-test of the output checks: clean outputs pass, each corrupted value is caught.

    python3 collabbench/selftest.py

Runs each verb the benchmark uses once, on small inputs, then corrupts one
value at a time in a copy of the outputs (a cdc, one row of W, a detection
probability, ...) and confirms that the matching check reports it. Exits 0
only if every clean output passes and every corruption is caught.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out" / "selftest"

# Small versions of the three workloads' verb calls.
FIG4_CTX = {"seeds": [3], "n": 30, "i": 10, "grid_points": 21}
FIG2_CTX = {"seeds": [3], "n": 30, "i": 10, "m_values": [6, 10, 11]}
WIDE_N, WIDE_SIGMA, WIDE_TRIALS = 60, 4.0, 2000


def _cli(args: list[str]) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "collabdesign.cli", *args, "--quiet"], env=env,
                   check=True, timeout=300)


def make_outputs() -> list[tuple[str, Path, dict]]:
    """Run the verbs once; returns (kind, output dir, check context) per op."""
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True)
    _cli(["fig4", "--seeds", "3", "--out", str(WORK / "fig4")]
         + ["--config", workloads.write_config(inputs / "fig4.cfg", {"grid_points": 21})])
    _cli(["fig2", "--seeds", "3", "--out", str(WORK / "fig2"), "--config",
          workloads.write_config(inputs / "fig2.cfg", {"m_values": [6, 10, 11]})])
    signals = workloads.write_signals(inputs / "signals.csv",
                                      workloads.wide_class_signals(n=WIDE_N))
    common = {"n": WIDE_N, "m": 10, "trials": WIDE_TRIALS, "sigma": WIDE_SIGMA}
    wide_ctx = {"signals": signals, "m": 10, "sigma": WIDE_SIGMA, "pfa": workloads.PFA,
                "trials": WIDE_TRIALS, "target": workloads.TARGET,
                "tol": workloads.WIDE_DEACTIVATION_TOL}
    _cli(["design", "--signals", signals, "--penalty", "l0", "--target-deactivation", "0.4",
          "--out", str(WORK / "design"), "--config",
          workloads.write_config(inputs / "design.cfg", {**common, "signal_index": 2})])
    _cli(["detect", "--signals", signals, "--penalty", "none", "--out", str(WORK / "detect"),
          "--config", workloads.write_config(inputs / "detect.cfg", common)])
    return [
        ("fig4", WORK / "fig4", FIG4_CTX),
        ("fig2", WORK / "fig2", FIG2_CTX),
        ("design", WORK / "design", {**wide_ctx, "penalty": "l0", "signal_index": 2}),
        ("detect", WORK / "detect", wide_ctx),
    ]


def _edit_csv(path: Path, pick, column: str, change) -> None:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    row = pick(rows)
    row[column] = repr(change(float(row[column]), row))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _at(penalty: str, index: int):
    return lambda rows: [r for r in rows if r["penalty"] == penalty][index]


def _scale_w_row(path: Path, row: int, factor: float) -> None:
    lines = path.read_text().splitlines()
    lines[row + 1] = ",".join(repr(float(c) * factor) for c in lines[row + 1].split(","))
    path.write_text("\n".join(lines) + "\n")


def _scale_json(path: Path, key: str, factor: float) -> None:
    data = json.loads(path.read_text())
    data[key] *= factor
    path.write_text(json.dumps(data))


# (kind, description, corruption applied to a copy of that kind's output dir)
CORRUPTIONS = [
    ("fig2", "cdc_opt at M=6 scaled by 1+1e-6",
     lambda d: _edit_csv(d / "fig2.csv", lambda r: r[0], "cdc_opt", lambda v, r: v * (1 + 1e-6))),
    ("fig2", "cdc_random_prediction at M=10 scaled by 1.001",
     lambda d: _edit_csv(d / "fig2.csv", lambda r: r[1], "cdc_random_prediction",
                         lambda v, r: v * 1.001)),
    ("fig2", "cdc_l1 at M=6 above cdc_opt",
     lambda d: _edit_csv(d / "fig2.csv", lambda r: r[0], "cdc_l1",
                         lambda v, r: float(r["cdc_opt"]) * 1.01)),
    ("fig2", "cdc_l0 at M=11 set to 0",
     lambda d: _edit_csv(d / "fig2.csv", lambda r: r[2], "cdc_l0", lambda v, r: 0.0)),
    ("fig4", "l0 deactivation_pct at grid index 0 set to 1",
     lambda d: _edit_csv(d / "fig4.csv", _at("l0", 0), "deactivation_pct", lambda v, r: 1.0)),
    ("fig4", "l1 span_normalized_cdc at the last point set to 1e-3",
     lambda d: _edit_csv(d / "fig4.csv", _at("l1", -1), "span_normalized_cdc",
                         lambda v, r: 1e-3)),
    ("fig4", "l0 normalized_cdc at grid index 5 set to 1.01",
     lambda d: _edit_csv(d / "fig4.csv", _at("l0", 5), "normalized_cdc", lambda v, r: 1.01)),
    ("fig4", "l1 gamma at grid index 10 scaled by 1.001",
     lambda d: _edit_csv(d / "fig4.csv", _at("l1", 10), "gamma", lambda v, r: v * 1.001)),
    ("design", "row 0 of W scaled by 1.1",
     lambda d: _scale_w_row(d / "design_w.csv", 0, 1.1)),
    ("design", "cdc in design_metrics.json scaled by 1.001",
     lambda d: _scale_json(d / "design_metrics.json", "cdc", 1.001)),
    ("design", "pd_closed_form raised by 1e-4",
     lambda d: _edit_csv(d / "design_detection.csv", lambda r: r[0], "pd_closed_form",
                         lambda v, r: v + 1e-4)),
    ("design", "pd_monte_carlo moved 4 half-widths from pd_closed_form",
     lambda d: _edit_csv(d / "design_detection.csv", lambda r: r[0], "pd_monte_carlo",
                         lambda v, r: float(r["pd_closed_form"])
                         - 4.0 * float(r["ci_half_width"]))),
    ("detect", "deflection_root of signal 3 scaled by 1.001",
     lambda d: _edit_csv(d / "detect.csv", lambda r: r[3], "deflection_root",
                         lambda v, r: v * 1.001)),
    ("detect", "pd_closed_form of signal 0 lowered by 1e-4",
     lambda d: _edit_csv(d / "detect.csv", lambda r: r[0], "pd_closed_form",
                         lambda v, r: v - 1e-4)),
]


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    ok = True
    try:
        outputs = {kind: (out, ctx) for kind, out, ctx in make_outputs()}
        for kind, (out, ctx) in outputs.items():
            errors = checks.CHECKS[kind](out, ctx)
            ok &= not errors
            print(f"{'pass  ' if not errors else 'FAIL  '} clean {kind} outputs {errors or ''}")
        for n, (kind, what, corrupt) in enumerate(CORRUPTIONS):
            out, ctx = outputs[kind]
            copy = WORK / f"corrupt{n}"
            shutil.copytree(out, copy)
            corrupt(copy)
            errors = checks.CHECKS[kind](copy, ctx)
            ok &= bool(errors)
            print(f"{'caught' if errors else 'MISSED'} {kind}: {what}"
                  + (f" -> {errors[0]}" if errors else ""))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
