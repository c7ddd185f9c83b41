"""Run configuration: defaults, flat key = value config files, CLI overrides.

The config hash embedded in every output covers the semantic fields only
(tolerances, discretization sizes, seed, horizon); output location and thread
count are excluded so that runs differing only in those produce identical
bytes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

# Root solves stop once their bracket is narrower than the tolerance, so a
# coarser one reports little more than the crude bracket as the estimate.
MAX_TOL = 1e-3


@dataclass
class RunConfig:
    bisect_tol: float = 1e-10
    power_tol: float = 1e-12
    nodes: int = 20
    ulam_bins: int = 4096
    seed: int = 0
    horizon: int = 50
    out_dir: str | None = None
    svg: bool = False
    threads: int = 1

    _HASHED = ("bisect_tol", "power_tol", "nodes", "ulam_bins", "seed", "horizon")

    def __post_init__(self):
        for name in ("bisect_tol", "power_tol"):
            value = getattr(self, name)
            if not 0 < value <= MAX_TOL:
                raise ValueError(f"{name} must lie in (0, {MAX_TOL:g}], got {value!r}")
        for name in ("nodes", "ulam_bins", "horizon", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.seed < 0 or self.seed >= 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    def config_hash(self, extra=None) -> str:
        items = [f"{k}={getattr(self, k)!r}" for k in self._HASHED]
        # the retired m_eff field, always 0, keeps its place so existing hashes match
        items.insert(4, "m_eff=0")
        for k, v in sorted((extra or {}).items()):
            items.append(f"{k}={v!r}")
        digest = hashlib.sha256(";".join(items).encode()).hexdigest()
        return digest[:16]


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name, raw):
    if name in ("bisect_tol", "power_tol"):
        return float(raw)
    if name in ("nodes", "ulam_bins", "seed", "horizon", "threads"):
        return int(raw)
    if name == "svg":
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"bad boolean {raw!r}")
    if name == "out_dir":
        return raw
    raise ValueError(f"unknown config key {name!r}")


def load_config_file(path) -> dict:
    """Parse a flat 'key = value' file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = _coerce(key, raw)
    return values


def threads_from_env(default=1) -> int:
    raw = os.environ.get("CUSPLAB_THREADS")
    if raw is None:
        return default
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"CUSPLAB_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"CUSPLAB_THREADS must be a positive integer, got {raw!r}")
    return n


def resolve_config(file_path=None, overrides=None) -> RunConfig:
    """defaults < config file < explicit overrides."""
    merged = {}
    if file_path:
        merged.update(load_config_file(file_path))
    for k, v in (overrides or {}).items():
        if v is not None:
            merged[k] = v
    merged.setdefault("threads", threads_from_env())
    return RunConfig(**merged)
