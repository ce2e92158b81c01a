"""repro — reproduction of *Grover: Looking for Performance Improvement
by Disabling Local Memory Usage in OpenCL Kernels* (Fang, Sips,
Jaaskelainen, Varbanescu — ICPP 2014).

Layers (bottom-up):

* :mod:`repro.ir` — SPIR-like IR with OpenCL address spaces;
* :mod:`repro.frontend` — OpenCL C (subset) compiler built on pycparser;
* :mod:`repro.runtime` — NDRange SIMT interpreter + memory tracing;
* :mod:`repro.core` — **the Grover pass** (the paper's contribution);
* :mod:`repro.analysis` — static race & barrier-divergence analyzer, the
  second arbiter of Grover's legality;
* :mod:`repro.rules` — Grover and its sibling rewrites as rules;
* :mod:`repro.perf` — trace-driven CPU/GPU performance models for the
  paper's six platforms;
* :mod:`repro.apps` — the 11 benchmark applications of Table I, and
  :func:`~repro.apps.registry.kernel_app` for any other kernel;
* :mod:`repro.search` — the one tuner: beam search over rule pipelines,
  scored on the models and verified before a winner ships (the paper's
  "generate both versions and measure" is ``rules=("grover",)``,
  ``depth=1``);
* :mod:`repro.experiments` — drivers regenerating every table & figure;
* :mod:`repro.session` — configuration, caches, events and the pass
  manager behind every entry point.

Quick start::

    from repro.frontend import compile_kernel
    from repro.core import disable_local_memory

    kernel = compile_kernel(OPENCL_SOURCE)
    report = disable_local_memory(kernel)   # rewrites the IR in place
    print(report)
"""

__version__ = "1.0.0"

from repro.core import GroverPass, disable_local_memory
from repro.frontend import compile_kernel, compile_source

__all__ = [
    "GroverPass",
    "disable_local_memory",
    "compile_kernel",
    "compile_source",
    "__version__",
]
