"""Workload definitions: the CLI verb calls of one round and the inputs they read.

A round is the same list of verb calls every time. Everything a round reads
is made here from the benchmark's --seed, so the same seed gives the same
inputs. See README.md for why each workload and each class seed is there.
"""
from __future__ import annotations

import random
from pathlib import Path

import numpy as np

# The paper's size, used by every workload unless stated otherwise.
N, M, I = 30, 10, 10
TARGET = 0.4
PFA = 0.05

# Class seeds are fixed in every workload, because the work per class seed
# differs far more than the bounds allow: a fig4 seed takes 1.7 to 2.9 s, and
# a calibration that falls into the 200-point scan (a coin flip per class
# today, see the FOUND lines in CHANGES.md) costs 6 to 25 times a bisection.
# In fig4-grid and fig2-calibrate each class seed is its own verb call, and
# --seed permutes the order of the calls, which changes no work. One seed
# per call keeps the program's seed fan-out (threads) from running two
# seeds at once: on a 2-vCPU shared host the two threads' rounds varied
# far more than serial ones, and were slower.
FIG4_SEEDS = (0, 1, 2)
FIG4_GRID_POINTS = 200

FIG2_SEEDS = (0, 1)
FIG2_M_VALUES = (6, 10, 11)

# wide-class: N >> I, one fixed class made by the benchmark's own generator.
# --seed picks the Monte-Carlo streams and the design verbs' signal index.
WIDE_N = 800
WIDE_CLASS_SEED = 0
WIDE_TRIALS = 10_000
WIDE_SIGMA = 10.0
# Stated tolerance on the achieved deactivation of a calibrated design.
WIDE_DEACTIVATION_TOL = 0.01

WORKLOADS = ("fig4-grid", "fig2-calibrate", "wide-class")


def write_config(path: Path, values: dict) -> str:
    lines = []
    for key, value in values.items():
        if isinstance(value, (tuple, list)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def wide_class_signals(n: int = WIDE_N, i: int = I, seed: int = WIDE_CLASS_SEED) -> np.ndarray:
    """The wide class: i x n i.i.d. standard-normal signals from the benchmark's own seed."""
    return np.random.default_rng(seed).standard_normal((i, n))


def write_signals(path: Path, signals: np.ndarray) -> str:
    """Headerless CSV, one signal per row, floats in shortest round-trip form."""
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in signals) + "\n")
    return str(path)


def make_plan(workload: str, seed: int, run_dir: Path) -> dict:
    """The ops of one round of `workload`, with the inputs they read written to run_dir.

    Each op carries its argv for collabdesign.cli.main, with "{out}" standing
    for the op's output directory, and the context its output checks need.
    """
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    shuffle = random.Random(seed).shuffle
    if workload == "fig4-grid":
        seeds = list(FIG4_SEEDS)
        shuffle(seeds)
        cfg = write_config(
            inputs / "fig4.cfg", {"n": N, "m": M, "i": I, "grid_points": FIG4_GRID_POINTS}
        )
        ops = []
        for cls_seed in seeds:
            ctx = {"seeds": [cls_seed], "n": N, "i": I, "grid_points": FIG4_GRID_POINTS}
            argv = ["fig4", "--config", cfg, "--seeds", str(cls_seed), "--out", "{out}", "--quiet"]
            ops.append({"name": f"fig4-s{cls_seed}", "kind": "fig4", "argv": argv, "ctx": ctx})
        return {"ops": ops}
    if workload == "fig2-calibrate":
        seeds = list(FIG2_SEEDS)
        shuffle(seeds)
        cfg = write_config(
            inputs / "fig2.cfg", {"n": N, "m": M, "i": I, "m_values": FIG2_M_VALUES}
        )
        ops = []
        for cls_seed in seeds:
            ctx = {"seeds": [cls_seed], "n": N, "i": I, "m_values": list(FIG2_M_VALUES)}
            argv = ["fig2", "--config", cfg, "--seeds", str(cls_seed),
                    "--target-deactivation", repr(TARGET), "--out", "{out}", "--quiet"]
            ops.append({"name": f"fig2-s{cls_seed}", "kind": "fig2", "argv": argv, "ctx": ctx})
        return {"ops": ops}
    if workload == "wide-class":
        signals = write_signals(inputs / "signals.csv", wide_class_signals())
        signal_index = seed % I
        common = {"n": WIDE_N, "m": M, "trials": WIDE_TRIALS, "sigma": WIDE_SIGMA, "pfa": PFA}
        design_cfg = write_config(inputs / "design.cfg", {**common, "signal_index": signal_index})
        detect_cfg = write_config(inputs / "detect.cfg", common)
        ctx = {"signals": signals, "m": M, "sigma": WIDE_SIGMA, "pfa": PFA,
               "trials": WIDE_TRIALS, "target": TARGET, "tol": WIDE_DEACTIVATION_TOL}
        ops = []
        for pen in ("l0", "l1"):
            argv = ["design", "--config", design_cfg, "--signals", signals, "--penalty", pen,
                    "--target-deactivation", repr(TARGET), "--seed", str(seed),
                    "--out", "{out}", "--quiet"]
            ops.append({"name": f"design-{pen}", "kind": "design", "argv": argv,
                        "ctx": {**ctx, "penalty": pen, "signal_index": signal_index}})
        argv = ["detect", "--config", detect_cfg, "--signals", signals, "--penalty", "none",
                "--seed", str(seed), "--out", "{out}", "--quiet"]
        ops.append({"name": "detect-none", "kind": "detect", "argv": argv, "ctx": ctx})
        return {"ops": ops}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
