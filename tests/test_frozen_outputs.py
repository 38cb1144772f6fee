"""Frozen outputs: every CLI verb at the criterion-9 configs, against tests/frozen/.

tests/frozen/<verb>/ holds the files each verb writes for CONFIGS_C9, and
tests/frozen/build.json the numpy version and BLAS library they came from.
On that build the regenerated files must match byte for byte. On any other
build the stacked SVDs and BLAS kernels may round differently, so every
number is compared at 1e-12 relative instead (1e-14 absolute near zero).

A change that means to alter outputs regenerates the files and says which
ones changed:

    PYTHONPATH=src python tests/test_frozen_outputs.py
"""
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


def regenerate() -> None:
    """Rewrite tests/frozen/ from this checkout and this build."""
    with tempfile.TemporaryDirectory() as tmp:
        for verb in sorted(CONFIGS_C9):
            fresh = write_outputs(verb, Path(tmp))
            shutil.rmtree(FROZEN / verb, ignore_errors=True)
            shutil.copytree(fresh, FROZEN / verb)
    (FROZEN / "build.json").write_text(json.dumps(build_record(), sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
