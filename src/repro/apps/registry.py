"""Application registry: id -> :class:`App`."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Problem:
    """One concrete dataset + launch geometry for an application."""

    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]
    #: kernel argument name -> numpy array (buffer) or python scalar
    inputs: Dict[str, object]
    #: names of output buffer arguments -> expected arrays
    expected: Dict[str, np.ndarray]
    #: absolute tolerance for float comparisons
    atol: float = 1e-4
    rtol: float = 1e-4
    #: byte sizes for __local pointer arguments, if any
    local_arg_sizes: Dict[str, int] = field(default_factory=dict)


@dataclass
class App:
    """One benchmark application (a row of the paper's Table I/III)."""

    id: str                        # e.g. "NVD-MT"
    title: str                     # e.g. "oclTranspose"
    suite: str                     # AMD SDK / NVIDIA SDK / Rodinia / Parboil
    source: str                    # OpenCL C
    kernel_name: str
    #: local data structures Grover should remove (None = all)
    arrays: Optional[List[str]]
    #: dataset descriptions per scale
    make_problem: Callable[[str], Problem]
    #: paper-reported dataset note (Table I)
    dataset_note: str = ""
    #: compile-time defines
    defines: Dict[str, object] = field(default_factory=dict)


APPS: Dict[str, App] = {}


def _fixed_problem(problem: Problem, scale: str) -> Problem:
    """``make_problem`` of a :func:`kernel_app`: one problem at every scale."""
    return problem


def kernel_app(
    source: str,
    problem: Problem,
    kernel_name: Optional[str] = None,
    defines: Optional[Dict[str, object]] = None,
) -> App:
    """Wrap any kernel and one :class:`Problem` in an :class:`App`, so
    :func:`repro.search.run_search` can tune it like a Table I app.

    The problem serves every scale.  The app is picklable (its
    ``make_problem`` is a module-level ``functools.partial``), so it
    ships to pool workers; its id is the kernel's name.  A source that
    does not compile, or names no such kernel, raises here.
    """
    from repro.frontend import compile_kernel

    name = compile_kernel(source, kernel_name, defines=defines).name
    return App(
        id=name,
        title=name,
        suite="user kernel",
        source=source,
        kernel_name=name,
        arrays=None,
        make_problem=functools.partial(_fixed_problem, problem),
        defines=dict(defines or {}),
    )


def register(app: App) -> App:
    if app.id in APPS:
        raise ValueError(f"duplicate app id {app.id}")
    APPS[app.id] = app
    return app


def get_app(app_id: str) -> App:
    if not APPS:
        _ensure_loaded()
    try:
        return APPS[app_id]
    except KeyError:
        raise KeyError(f"unknown app {app_id!r}; known: {sorted(APPS)}") from None


def _ensure_loaded() -> None:
    # importing the modules populates the registry
    from repro.apps import (  # noqa: F401
        amd_mm,
        amd_mt,
        amd_rg,
        amd_ss,
        ext_st3d,
        nvd_mm,
        nvd_mt,
        nvd_nbody,
        pab_st,
        rod_sc,
    )


def all_apps() -> List[App]:
    _ensure_loaded()
    return [APPS[k] for k in sorted(APPS)]


#: problem scales every app defines, smallest first: ``test`` and
#: ``smoke`` for correctness checks, ``bench`` for the paper's numbers
SCALES = ("test", "smoke", "small", "bench")

#: the paper's Table III row order
TABLE_ORDER = [
    "AMD-SS",
    "AMD-MT",
    "NVD-MT",
    "AMD-RG",
    "AMD-MM",
    "NVD-MM-A",
    "NVD-MM-B",
    "NVD-MM-AB",
    "NVD-NBody",
    "PAB-ST",
    "ROD-SC",
]


def table_apps() -> List[App]:
    _ensure_loaded()
    return [APPS[k] for k in TABLE_ORDER]


def validate_app_ids(apps: Sequence[str]) -> List[str]:
    """Check every id against the Table III rows; unknown names raise a
    ``ValueError`` that lists the valid ids."""
    unknown = [a for a in apps if a not in TABLE_ORDER]
    if unknown:
        raise ValueError(
            f"unknown app id(s): {', '.join(unknown)}; "
            f"valid ids: {', '.join(TABLE_ORDER)}"
        )
    return list(apps)
