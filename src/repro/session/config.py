"""The single registry of every ``REPRO_*`` configuration variable.

Historically each subsystem read its own environment variable deep
inside the module that used it (``REPRO_CACHE_BACKEND`` in
``perf/fastcache.py``, ``REPRO_WORKERS`` in the worker pool, ...),
which made typos silent: ``REPRO_PREF_MEMO=0`` simply did nothing.
Every variable is now declared here — name, environment variable, type,
default, docstring — and :func:`validate_environ` rejects unknown
``REPRO_`` names at :class:`~repro.session.Session` construction, so a
typo fails loudly instead of silently running with defaults.

Resolution order for each variable (lowest to highest precedence)::

    registry default  <  config dict / --config file  <  REPRO_* env var
                      <  explicit Session(...) keyword

Environment values are read *live* (at lookup time), so test fixtures
that monkeypatch ``os.environ`` keep working; names are validated once,
at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "ConfigError",
    "ConfigVar",
    "REGISTRY",
    "ENV_REGISTRY",
    "validate_environ",
    "coerce_value",
    "parse_env_value",
    "load_config_file",
    "describe_registry",
]


class ConfigError(ValueError):
    """Invalid configuration: unknown variable or unparseable value."""


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


@dataclass(frozen=True)
class ConfigVar:
    """One configuration knob: registry name, env spelling, type, default."""

    name: str
    env: str
    type: str  # 'str' | 'bool' | 'int'
    default: object
    doc: str
    choices: Optional[Tuple[str, ...]] = None
    minimum: Optional[int] = None

    def parse_env(self, raw: str) -> object:
        """Parse an environment-variable string into the typed value."""
        if self.type == "int":
            try:
                value = int(raw)
            except ValueError:
                raise ConfigError(
                    f"${self.env} must be a positive integer, got {raw!r}"
                ) from None
            return self._check(value, source=f"${self.env}")
        if self.type == "bool":
            lowered = raw.strip().lower()
            if lowered in _TRUE_WORDS:
                return True
            if lowered in _FALSE_WORDS:
                return False
            raise ConfigError(
                f"${self.env} must be a boolean "
                f"({'/'.join(_TRUE_WORDS)} or {'/'.join(_FALSE_WORDS)}), got {raw!r}"
            )
        return self._check(raw, source=f"${self.env}")

    def coerce(self, value: object, source: str) -> object:
        """Validate a python-level value (config dict / Session kwarg)."""
        if self.type == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(
                    f"{source}: {self.name} must be an int, got {value!r}"
                )
            return self._check(value, source=source)
        if self.type == "bool":
            if not isinstance(value, bool):
                raise ConfigError(
                    f"{source}: {self.name} must be a bool, got {value!r}"
                )
            return value
        if value is not None and not isinstance(value, str):
            raise ConfigError(
                f"{source}: {self.name} must be a string, got {value!r}"
            )
        return self._check(value, source=source) if value is not None else None

    def _check(self, value: object, source: str) -> object:
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"{source}: {self.name} must be one of {self.choices}, got {value!r}"
            )
        if self.minimum is not None and isinstance(value, int) and value < self.minimum:
            raise ConfigError(
                f"{source} must be a positive integer, got {value!r}"
            )
        return value


_VARS = (
    ConfigVar(
        name="cache_backend",
        env="REPRO_CACHE_BACKEND",
        type="str",
        default="fast",
        choices=("fast", "reference"),
        doc="Cache-simulation backend: 'fast' (vectorised stack-distance) "
        "or 'reference' (per-access LRU oracle).",
    ),
    ConfigVar(
        name="perf_memo",
        env="REPRO_PERF_MEMO",
        type="bool",
        default=True,
        doc="Memoize per-group model costs by trace fingerprint "
        "(0 disables, e.g. when debugging the models).",
    ),
    ConfigVar(
        name="workers",
        env="REPRO_WORKERS",
        type="int",
        default=1,
        minimum=1,
        doc="How many whole cases (matrix cells, search candidates, "
        "fuzz cases) to fan out at once; 1 forces serial execution "
        "everywhere.  Launches always run serially.",
    ),
    ConfigVar(
        name="update_golden",
        env="REPRO_UPDATE_GOLDEN",
        type="bool",
        default=False,
        doc="Regenerate tests/golden/*.txt instead of asserting against them.",
    ),
    ConfigVar(
        name="analyze",
        env="REPRO_ANALYZE",
        type="bool",
        default=False,
        doc="Run the static race analyzer as an independent arbiter around "
        "Session.disable_local_memory: a kernel with a decided race is "
        "refused (RaceDetected) before and after the transformation.",
    ),
    ConfigVar(
        name="trace_out",
        env="REPRO_TRACE_OUT",
        type="str",
        default=None,
        doc="Path of a JSONL event-trace file; when set, a Session attaches "
        "a JSONL sink for its lifetime (same as --trace-out).",
    ),
    ConfigVar(
        name="exec_backend",
        env="REPRO_EXEC_BACKEND",
        type="str",
        default="tape",
        choices=("tape", "reference"),
        doc="Interpreter execution backend: 'tape' (the schedule recorded "
        "and compiled while the first group batch runs, replayed by the "
        "later batches) or 'reference' (the per-group SIMT scheduler). "
        "Results are bit-identical.",
    ),
    ConfigVar(
        name="tape_batch",
        env="REPRO_TAPE_BATCH",
        type="int",
        default=256,
        minimum=1,
        doc="Work-groups stacked per batched tape replay (the leading "
        "axis size of the batched value arrays).",
    ),
    ConfigVar(
        name="search_beam",
        env="REPRO_SEARCH_BEAM",
        type="int",
        default=2,
        minimum=1,
        doc="Beam width of the rewrite-pipeline search (repro search); "
        "1 is the greedy baseline.",
    ),
    ConfigVar(
        name="search_depth",
        env="REPRO_SEARCH_DEPTH",
        type="int",
        default=3,
        minimum=1,
        doc="Maximum pipeline length the search explores (one rule "
        "appended per depth level).",
    ),
    ConfigVar(
        name="search_sample_groups",
        env="REPRO_SEARCH_SAMPLE_GROUPS",
        type="int",
        default=8,
        minimum=1,
        doc="Work-groups traced per candidate-scoring launch; outputs "
        "and verification always run the full grid.",
    ),
    ConfigVar(
        name="search_device",
        env="REPRO_SEARCH_DEVICE",
        type="str",
        default="Fermi",
        choices=("SNB", "Nehalem", "MIC", "Fermi", "Kepler", "Tahiti"),
        doc="Device model whose predicted cycles score search candidates.",
    ),
)

#: by registry name ("workers")
REGISTRY: Dict[str, ConfigVar] = {v.name: v for v in _VARS}
#: by environment spelling ("REPRO_WORKERS")
ENV_REGISTRY: Dict[str, ConfigVar] = {v.env: v for v in _VARS}


#: variables whose *values* are parsed eagerly at Session construction
#: (the REPRO_WORKERS fix made bad worker counts fail at lookup with a
#: ConfigError naming the variable; these fail even earlier, before a
#: long launch gets to the point of reading them, or a memoised result
#: skips the launch and the bad value goes unnoticed)
_EAGER_VALUE_VARS = ("REPRO_EXEC_BACKEND", "REPRO_TAPE_BATCH")


def validate_environ(environ: Mapping[str, str]) -> None:
    """Reject unknown ``REPRO_*`` variables (the config-drift guard) and
    unparseable values of the eagerly-checked integer variables."""
    unknown = sorted(
        k for k in environ if k.startswith("REPRO_") and k not in ENV_REGISTRY
    )
    if unknown:
        raise ConfigError(
            f"unknown REPRO_* environment variable(s) {unknown}; "
            f"known: {sorted(ENV_REGISTRY)}"
        )
    for env_name in _EAGER_VALUE_VARS:
        raw = environ.get(env_name)
        if raw is not None:
            ENV_REGISTRY[env_name].parse_env(raw)


def coerce_value(name: str, value: object, source: str) -> object:
    """Validate one python-level setting; raises on unknown names."""
    var = REGISTRY.get(name)
    if var is None:
        raise ConfigError(
            f"{source}: unknown config key {name!r}; known: {sorted(REGISTRY)}"
        )
    return var.coerce(value, source)


def parse_env_value(var: ConfigVar, raw: str) -> object:
    return var.parse_env(raw)


def load_config_file(path: str) -> Dict[str, object]:
    """Load a ``--config`` JSON file ({"workers": 4, ...}) and validate it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return {
        name: coerce_value(name, value, source=f"config file {path!r}")
        for name, value in data.items()
    }


def describe_registry() -> str:
    """Human-readable table of every variable (``repro passes --config-help``)."""
    lines = ["name                 env                        type  default   doc"]
    for var in _VARS:
        lines.append(
            f"{var.name:<20} {var.env:<26} {var.type:<5} "
            f"{str(var.default):<9} {var.doc}"
        )
    return "\n".join(lines)
