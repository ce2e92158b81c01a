"""Deep-dive: how Grover reverses a halo-staged stencil (Section III/IV).

The Parboil-style 5-point stencil stages a 16x16 tile *plus halo* in
local memory, so one local array has several (GL, LS) pairs (the halo
loads) and five local loads with different constant offsets.  Grover
solves one linear system per local load; this example prints every
system's solution and the symbolic new-global-load index — the data the
paper shows in Table III — and validates the transformed kernel against
a numpy stencil.

Run:  python examples/stencil_analysis.py
"""

from repro.apps.registry import get_app
from repro.apps.harness import compile_app, validate_app
from repro.ir import print_function


def main():
    app = get_app("PAB-ST")
    print(f"application: {app.id} — {app.title} ({app.suite})")
    print(f"dataset: {app.dataset_note}\n")

    kernel, report = compile_app(app, "without")

    for rec in report.records:
        print(f"local array {rec.name!r}: {rec.status}")
        print(f"  GL index: {rec.gl_index}")
        print(f"  LS data index: ({', '.join(d.render() for d in rec.ls_dims)})")
        for i, ll in enumerate(rec.lls):
            dims = ", ".join(d.render() for d in ll.ll_dims)
            print(f"  LL#{i}: ({dims})")
            print(f"     solved writer index: {ll.solution.render()}")
            print(f"     nGL: {ll.ngl_index}")
    print(f"\ncleanup: {report.cleanup_stats}")
    print(f"local arrays left: {kernel.local_arrays or 'none'}")

    print("\nvalidating both versions against the numpy reference...")
    validate_app(app, "with", "test")
    print("  with local memory: OK")
    validate_app(app, "without", "test")
    print("  without local memory (Grover): OK")

    print("\n=== transformed kernel IR ===")
    print(print_function(kernel))


if __name__ == "__main__":
    main()
