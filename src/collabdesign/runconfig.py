"""Experiment configuration: a flat key=value text format plus CLI overrides.

One `key = value` pair per line, '#' starts a comment, blank lines are
ignored. Unknown keys are errors so that typos cannot silently change an
experiment. Integer lists accept either comma form ("0,1,5") or inclusive
ranges ("0..49").
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .model import Penalty

EXPERIMENTS = ("fig2", "fig3", "fig4", "design", "detect")
_EXPERIMENT_ALIASES = {"singledesign": "design", "single_design": "design"}
METHODS = ("pca", "l0", "l1", "random", "diagonal")

_FIGURE_DEFAULT_SEEDS = tuple(range(50))


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one experiment run."""

    experiment: str
    output_dir: str = "out"
    n: int = 30
    m: int = 10
    i: int = 10
    penalty: Penalty = Penalty.NONE
    method: str | None = None
    gamma: float | None = None
    target_deactivation: float | None = None
    seeds: tuple[int, ...] = ()
    trials: int = 100_000
    sigma: float = 1.0
    pfa: float = 0.05
    signal_index: int | None = None
    signals: str | None = None
    m_values: tuple[int, ...] | None = None
    i_values: tuple[int, ...] | None = None
    grid_points: int = 200
    random_draws: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if not self.seeds:
            seeds = _FIGURE_DEFAULT_SEEDS if self.experiment.startswith("fig") else (0,)
            object.__setattr__(self, "seeds", seeds)
        if not (1 <= self.m <= self.n):
            raise ConfigError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.signals is None and not (1 <= self.i <= self.n):
            raise ConfigError(f"need 1 <= i <= n, got i={self.i}, n={self.n}")
        if self.gamma is not None and self.target_deactivation is not None:
            raise ConfigError("gamma and target_deactivation are mutually exclusive")
        if self.gamma is not None and not (0.0 <= self.gamma < math.inf):
            raise ConfigError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if self.target_deactivation is not None and not (0.0 <= self.target_deactivation <= 1.0):
            raise ConfigError("target_deactivation must lie in [0, 1]")
        if self.method is not None and self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.experiment in ("design", "detect"):
            method = self.resolved_method()
            if method in ("l0", "l1") and self.signals is None and self.m > self.i:
                raise ConfigError(
                    f"sparse designs need m <= i, got m={self.m}, i={self.i}"
                )
        if self.signals is not None and self.experiment not in ("design", "detect"):
            raise ConfigError("signals files apply only to the design/detect experiments")
        if not (0.0 < self.pfa < 1.0):
            raise ConfigError("pfa must lie in (0, 1)")
        if not (0.0 < self.sigma < math.inf):
            raise ConfigError(f"sigma must be finite and positive, got {self.sigma}")
        if self.trials < 100:
            raise ConfigError("trials must be at least 100")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be at least 2")
        if self.random_draws < 1:
            raise ConfigError("random_draws must be at least 1")
        for name in ("m_values", "i_values"):
            values = getattr(self, name)
            if values is not None and (
                not values or any(v < 1 or v > self.n for v in values)
            ):
                raise ConfigError(f"{name} entries must lie in 1..n")

    def resolved_method(self) -> str:
        """Design method for the design/detect verbs, derived from penalty."""
        if self.method is not None:
            return self.method
        return {Penalty.NONE: "pca", Penalty.L0: "l0", Penalty.L1: "l1"}[self.penalty]

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Penalty):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


def _parse_int_list(text: str, key: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise ConfigError(f"{key}: bad range {text!r}") from exc
        if hi < lo:
            raise ConfigError(f"{key}: empty range {text!r}")
        return tuple(range(lo, hi + 1))
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"{key}: expected integers, got {text!r}") from exc


def _parse_value(key: str, text: str):
    text = text.strip()
    if key in ("seeds", "m_values", "i_values"):
        return _parse_int_list(text, key)
    if key in ("n", "m", "i", "trials", "signal_index", "grid_points", "random_draws"):
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from exc
    if key in ("gamma", "target_deactivation", "sigma", "pfa"):
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a number, got {text!r}") from exc
    if key == "penalty":
        try:
            return Penalty(text.lower())
        except ValueError as exc:
            raise ConfigError(f"penalty must be one of none/l0/l1, got {text!r}") from exc
    if key == "experiment":
        norm = text.lower()
        return _EXPERIMENT_ALIASES.get(norm, norm)
    if key == "method":
        return text.lower()
    return text


_KNOWN_KEYS = {f.name for f in fields(RunConfig)}


def parse_config_text(text: str) -> dict:
    """Parse key=value lines into typed values; unknown keys are rejected."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val)
    return values


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def build_config(experiment: str, file_values: dict | None = None, **overrides) -> RunConfig:
    """Merge config-file values with CLI overrides; the CLI wins."""
    values = dict(file_values or {})
    declared = values.pop("experiment", None)
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config file declares experiment {declared!r} but the {experiment!r} verb was invoked"
        )
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    unknown = set(values) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(experiment=experiment, **values)
