"""Frozen outputs: every CLI verb at the criterion-9 configs, against tests/frozen/.

tests/frozen/<verb>/ holds the files each verb writes for CONFIGS_C9, and
tests/frozen/build.json the numpy version and BLAS library they came from.
On that build the regenerated files must match byte for byte. On any other
build the stacked SVDs and BLAS kernels may round differently, so every
number is compared at 1e-12 relative instead (1e-14 absolute near zero).

The verb calls of the benchmark's three workloads (collabbench/workloads.py,
rebuilt in PLANS below) write files too large to commit, so
tests/frozen/digests.json holds only their SHA-256 digests. They are
compared on the recorded build and skipped on any other.

A change that means to alter outputs regenerates the files and the digests
and says which ones changed. The script prints each frozen file that
changed, with the largest relative change of its numbers, and each digest
that changed:

    PYTHONPATH=src python tests/test_frozen_outputs.py
"""
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from collabdesign.cli import main
from conftest import CONFIGS_C9

FROZEN = Path(__file__).resolve().parent / "frozen"
DIGESTS = FROZEN / "digests.json"


def _wide_signals() -> str:
    """The wide class, 10 x 800 draws of default_rng(0), one signal per line."""
    rows = np.random.default_rng(0).standard_normal((10, 800))
    return "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"


# The calls of each benchmark workload, for plan seeds 0 and 1 (and class
# seed 2 of fig4): {input file: its text}, then (output dir, argv) per call.
_PAPER = "n = 30\nm = 10\ni = 10\n"
_WIDE = "n = 800\nm = 10\ntrials = 10000\nsigma = 10.0\npfa = 0.05\n"
PLANS = {
    "fig4-grid": (
        {"fig4.cfg": _PAPER + "grid_points = 200\n"},
        [(f"fig4-s{s}", ["fig4", "--config", "fig4.cfg", "--seeds", str(s)]) for s in (0, 1, 2)],
    ),
    "fig2-calibrate": (
        {"fig2.cfg": _PAPER + "m_values = 6,10,11\n"},
        [
            (f"fig2-s{s}", ["fig2", "--config", "fig2.cfg", "--seeds", str(s),
                            "--target-deactivation", "0.4"])
            for s in (0, 1)
        ],
    ),
    "wide-class": (
        {
            "signals.csv": _wide_signals(),
            "detect.cfg": _WIDE,
            **{f"design-s{s}.cfg": _WIDE + f"signal_index = {s}\n" for s in (0, 1)},
        },
        [
            (f"design-{pen}-s{s}", ["design", "--config", f"design-s{s}.cfg", "--signals",
                                    "signals.csv", "--penalty", pen, "--target-deactivation",
                                    "0.4", "--seed", str(s)])
            for s in (0, 1)
            for pen in ("l0", "l1")
        ] + [
            (f"detect-s{s}", ["detect", "--config", "detect.cfg", "--signals", "signals.csv",
                              "--penalty", "none", "--seed", str(s)])
            for s in (0, 1)
        ],
    ),
}


def build_record() -> dict:
    """The numpy version and BLAS library these outputs depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        name = version = "unknown"
    return {"numpy": np.__version__, "blas": name, "blas_version": version}


def write_outputs(verb: str, root: Path) -> Path:
    """Run one verb at its criterion-9 config; outputs land in root/verb."""
    cfg = root / f"{verb}.cfg"
    cfg.write_text(CONFIGS_C9[verb])
    cwd = os.getcwd()
    os.chdir(root)  # a relative --out keeps the recorded output_dir fixed
    try:
        assert main([verb, "--config", str(cfg), "--out", verb, "--quiet"]) == 0
    finally:
        os.chdir(cwd)
    return root / verb


def plan_digests(workload: str, root: Path) -> dict:
    """Run one workload's calls in root; the SHA-256 of every file they write."""
    inputs, calls = PLANS[workload]
    cwd = os.getcwd()
    os.chdir(root)  # relative --out and --signals keep the recorded paths fixed
    try:
        for name, text in inputs.items():
            Path(name).write_text(text)
        for out, argv in calls:
            assert main([*argv, "--out", out, "--quiet"]) == 0, out
    finally:
        os.chdir(cwd)
    return {
        f"{out}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for out, _ in calls
        for path in sorted((root / out).iterdir())
    }


def _leaves(path: Path) -> list:
    """Every value of a CSV or JSON output, in file order."""
    text = path.read_text()
    if path.suffix == ".json":
        def walk(value, key):
            if isinstance(value, dict):
                return [leaf for k in sorted(value) for leaf in walk(value[k], f"{key}.{k}")]
            if isinstance(value, list):
                return [leaf for i, v in enumerate(value) for leaf in walk(v, f"{key}[{i}]")]
            return [(key, value)]

        return walk(json.loads(text), "")
    return [
        (f"line {n}", cell)
        for n, line in enumerate(text.splitlines(), start=1)
        for cell in line.split(",")
    ]


def _as_number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


@pytest.mark.parametrize("verb", sorted(CONFIGS_C9))
def test_outputs_match_the_frozen_files(verb, tmp_path):
    frozen = FROZEN / verb
    fresh = write_outputs(verb, tmp_path)
    names = sorted(p.name for p in frozen.iterdir())
    assert sorted(p.name for p in fresh.iterdir()) == names
    recorded = json.loads((FROZEN / "build.json").read_text())
    same_build = recorded == build_record()
    for name in names:
        want, got = frozen / name, fresh / name
        if same_build:
            assert got.read_bytes() == want.read_bytes(), f"{verb}/{name} changed"
            continue
        want_leaves, got_leaves = _leaves(want), _leaves(got)
        assert len(got_leaves) == len(want_leaves), f"{verb}/{name}"
        for (key, a), (_, b) in zip(want_leaves, got_leaves):
            x, y = _as_number(a), _as_number(b)
            if x is None or y is None:
                assert a == b, f"{verb}/{name} {key}: {a!r} != {b!r}"
            else:
                assert y == pytest.approx(x, rel=1e-12, abs=1e-14), f"{verb}/{name} {key}"


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_benchmark_plan_digests(workload, tmp_path):
    recorded = json.loads((FROZEN / "build.json").read_text())
    if recorded != build_record():
        pytest.skip(
            f"digests were recorded on {recorded}; this build is {build_record()}, and "
            "its stacked SVDs and BLAS kernels may round differently"
        )
    want = json.loads(DIGESTS.read_text())[workload]
    got = plan_digests(workload, tmp_path)
    assert sorted(got) == sorted(want)
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"{workload}: {changed} changed"


def _largest_change(old: Path, new: Path) -> str:
    """The largest relative change between the numbers of two versions of a file."""
    old_leaves, new_leaves = _leaves(old), _leaves(new)
    if len(old_leaves) != len(new_leaves):
        return f"{len(old_leaves)} -> {len(new_leaves)} values"
    worst = 0.0
    for (key, a), (_, b) in zip(old_leaves, new_leaves):
        x, y = _as_number(a), _as_number(b)
        if x is None or y is None:
            if a != b:
                return f"{key}: {a!r} -> {b!r}"
        elif x != y:
            worst = max(worst, abs(y - x) / max(abs(x), abs(y)))
    return f"largest relative change {worst:.2e}"


def regenerate() -> None:
    """Rewrite tests/frozen/ from this checkout and this build; print what changed."""
    with tempfile.TemporaryDirectory() as tmp:
        for verb in sorted(CONFIGS_C9):
            fresh, frozen = write_outputs(verb, Path(tmp)), FROZEN / verb
            names = {p.name for p in fresh.iterdir()}
            names |= {p.name for p in frozen.iterdir()} if frozen.exists() else set()
            for name in sorted(names):
                old, new = frozen / name, fresh / name
                if not (old.exists() and new.exists()):
                    print(f"{verb}/{name}: {'added' if new.exists() else 'removed'}")
                elif old.read_bytes() != new.read_bytes():
                    print(f"{verb}/{name}: {_largest_change(old, new)}")
            shutil.rmtree(frozen, ignore_errors=True)
            shutil.copytree(fresh, frozen)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {}
    for workload in sorted(PLANS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[workload] = plan_digests(workload, Path(tmp))
        old = recorded.get(workload, {})
        for key in sorted(set(old) | set(digests[workload])):
            if old.get(key) != digests[workload].get(key):
                print(f"digest of {workload} {key} changed")
    DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")
    (FROZEN / "build.json").write_text(json.dumps(build_record(), sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
