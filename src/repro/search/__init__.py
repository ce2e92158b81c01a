"""Pipeline search: which sequence of rewrite rules wins, per app?

See :mod:`repro.search.engine` — deterministic beam search (greedy at
``--beam 1``) over :mod:`repro.rules` pipelines, scored by the
trace-driven performance model and gated by the race analyzer plus the
reference-vs-tape differential runner.
"""

from repro.search.engine import (
    AppSearchResult,
    CandidateEval,
    SearchOptions,
    SearchRunResult,
    evaluate_pipeline,
    main,
    render_search,
    run_search,
    search_app,
    verify_pipeline,
)

__all__ = [
    "AppSearchResult",
    "CandidateEval",
    "SearchOptions",
    "SearchRunResult",
    "evaluate_pipeline",
    "main",
    "render_search",
    "run_search",
    "search_app",
    "verify_pipeline",
]
