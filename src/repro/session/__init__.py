"""Session + compile pipeline + event bus: the pipeline's control plane.

* :mod:`repro.session.config` — the single registry of every ``REPRO_*``
  variable, with layered resolution and loud rejection of typos;
* :mod:`repro.session.events` — the typed event bus (JSONL /
  in-memory sinks) threaded through compile, passes, launch and models;
* :mod:`repro.session.passes` — the one compile pipeline and its
  instrumented runner, :func:`run_pipeline`;
* :mod:`repro.session.core` — the :class:`Session` object tying the
  three together; every public entry point reads its settings from the
  active session (``with session.activate(): ...``).

See DESIGN.md §10 for the architecture diagram, the event taxonomy and
the configuration precedence table.
"""

from repro.session.config import ConfigError, REGISTRY as CONFIG_REGISTRY
from repro.session.core import (
    Session,
    current_session,
    reset_default_session,
    session_from_flags,
)
from repro.session.events import (
    CollectorSink,
    EventBus,
    EventSchemaError,
    JsonlSink,
    collect,
    emit,
    validate_jsonl,
)
from repro.session.passes import DEFAULT_PIPELINE, run_pipeline

__all__ = [
    "ConfigError",
    "CONFIG_REGISTRY",
    "Session",
    "current_session",
    "reset_default_session",
    "session_from_flags",
    "CollectorSink",
    "EventBus",
    "EventSchemaError",
    "JsonlSink",
    "collect",
    "emit",
    "validate_jsonl",
    "DEFAULT_PIPELINE",
    "run_pipeline",
]
