"""Run configuration: defaults, flat key = value config files, CLI overrides.

The ``RunConfig`` fields are the one declaration of the run settings: a
config file accepts exactly their names, each value parsed by the field's
type, and the CLI flags that set them carry the same names.  The config hash
embedded in every output covers the semantic fields only (tolerances,
discretization sizes, seed, horizon); output location and thread count are
excluded so that runs differing only in those produce identical bytes.
"""

import hashlib
import os
from dataclasses import dataclass, fields

# Root solves stop once their bracket is narrower than the tolerance, so a
# coarser one reports little more than the crude bracket as the estimate.
MAX_TOL = 1e-3

# The hashed text, frozen: the retired power_tol and m_eff settings keep their
# slots at their last values, so that every earlier hash still matches.
_HASH_LAYOUT = ("bisect_tol={bisect_tol!r};power_tol=1e-12;nodes={nodes!r};"
                "ulam_bins={ulam_bins!r};m_eff=0;seed={seed!r};horizon={horizon!r}")


@dataclass
class RunConfig:
    bisect_tol: float = 1e-10
    nodes: int = 20
    ulam_bins: int = 4096
    seed: int = 0
    horizon: int = 50
    out_dir: str | None = None
    svg: bool = False
    threads: int = 1

    def __post_init__(self):
        if not 0 < self.bisect_tol <= MAX_TOL:
            raise ValueError(f"bisect_tol must lie in (0, {MAX_TOL:g}], got {self.bisect_tol!r}")
        for name in ("nodes", "ulam_bins", "horizon", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.seed < 0 or self.seed >= 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    def config_hash(self, extra=None) -> str:
        items = [_HASH_LAYOUT.format_map(vars(self))]
        items += [f"{k}={v!r}" for k, v in sorted((extra or {}).items())]
        return hashlib.sha256(";".join(items).encode()).hexdigest()[:16]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name, raw):
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ValueError(f"unknown config key {name!r}")
    if kind is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"bad boolean {raw!r}")
    return kind(raw) if kind in (int, float) else raw


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


def threads_from_env() -> int:
    raw = os.environ.get("CUSPLAB_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"CUSPLAB_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"CUSPLAB_THREADS must be a positive integer, got {raw!r}")
    return n


def resolve_config(file_path=None, overrides=None) -> RunConfig:
    """defaults < config file < explicit overrides (None means unset)."""
    merged = {}
    if file_path:
        merged.update(load_config_file(file_path))
    for k, v in (overrides or {}).items():
        if v is not None:
            merged[k] = v
    merged.setdefault("threads", threads_from_env())
    return RunConfig(**merged)
