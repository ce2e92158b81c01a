"""Unit tests for the OpenCL-C preprocessor."""

import pytest

from repro.frontend.errors import FrontendError
from repro.frontend.preprocess import (
    PRELUDE,
    find_kernels,
    preprocess,
    run_directives,
    strip_comments,
    translate_qualifiers,
)


class TestStripComments:
    def test_line_comments(self):
        assert strip_comments("int x; // hi\nint y;") == "int x; \nint y;"

    def test_block_comments_preserve_lines(self):
        src = "a /* one\ntwo */ b"
        out = strip_comments(src)
        assert out == "a \n b"

    def test_unterminated_block(self):
        with pytest.raises(FrontendError, match="unterminated"):
            strip_comments("a /* oops")

    def test_string_literals_untouched(self):
        assert strip_comments('x = "// not a comment";') == 'x = "// not a comment";'

    def test_char_literal_with_escape(self):
        assert strip_comments(r"c = '\''; // q") == r"c = '\''; "


class TestDirectives:
    def test_object_macro(self):
        out, macros = run_directives("#define N 16\nint a[N];")
        assert "int a[16];" in out
        assert macros["N"] == "16"

    def test_macro_in_macro(self):
        out, _ = run_directives("#define A 4\n#define B (A+1)\nx = B;")
        assert "x = (4+1);" in out

    def test_undef(self):
        out, macros = run_directives("#define N 16\n#undef N\nint N;")
        assert "int N;" in out
        assert "N" not in macros

    def test_token_boundaries(self):
        out, _ = run_directives("#define N 16\nint NN = N;")
        assert "int NN = 16;" in out

    def test_function_like_macro_expansion(self):
        out, _ = run_directives("#define SQ(x) ((x)*(x))\ny = SQ(a + 1);")
        assert "((a + 1))*((a + 1))" in out.replace("(  ", "(")

    def test_sdk_style_tile_macro(self):
        src = (
            "#define BS 16\n"
            "#define AS(i, j) As[(i)*BS + (j)]\n"
            "x = AS(ty, k);"
        )
        out, _ = run_directives(src)
        assert "As[((ty))*16 + ((k))]" in out

    def test_function_macro_wrong_arity(self):
        with pytest.raises(FrontendError, match="expects"):
            run_directives("#define F(a, b) a+b\nx = F(1);")

    def test_function_macro_nested_call_args(self):
        out, _ = run_directives("#define F(a) (a)\nx = F(g(1, 2));")
        assert "((g(1, 2)))" in out

    def test_function_macro_undef(self):
        out, _ = run_directives("#define F(a) (a)\n#undef F\nx = F;")
        assert "x = F;" in out

    def test_name_without_parens_not_expanded(self):
        out, _ = run_directives("#define F(a) (a)\nint Fx = 1; g = h;")
        assert "int Fx = 1;" in out

    def test_ifdef_taken_and_skipped(self):
        src = "#define HAVE\n#ifdef HAVE\nint a;\n#else\nint b;\n#endif"
        out, _ = run_directives(src)
        assert "int a;" in out and "int b;" not in out

    def test_ifndef(self):
        out, _ = run_directives("#ifndef MISSING\nint a;\n#endif")
        assert "int a;" in out

    def test_nested_conditionals(self):
        src = (
            "#define A\n#ifdef A\n#ifdef B\nint x;\n#else\nint y;\n#endif\n#endif"
        )
        out, _ = run_directives(src)
        assert "int y;" in out and "int x;" not in out

    def test_if_expression(self):
        out, _ = run_directives("#define N 8\n#if N > 4\nint big;\n#endif")
        assert "int big;" in out

    def test_if_defined(self):
        out, _ = run_directives("#define X 1\n#if defined(X)\nint a;\n#endif")
        assert "int a;" in out

    def test_unterminated_if(self):
        with pytest.raises(FrontendError, match="unterminated"):
            run_directives("#ifdef A\nint x;")

    def test_else_without_if(self):
        with pytest.raises(FrontendError, match="#else"):
            run_directives("#else")

    def test_host_defines_merged(self):
        out, _ = run_directives("int a[BLOCK];", defines={"BLOCK": 32})
        assert "int a[32];" in out

    def test_pragma_and_include_ignored(self):
        out, _ = run_directives("#pragma unroll\n#include <x.h>\nint a;")
        assert "int a;" in out

    def test_builtin_macros(self):
        out, _ = run_directives("barrier(CLK_LOCAL_MEM_FENCE);")
        assert "barrier(1);" in out

    def test_line_continuation(self):
        out, _ = run_directives("#define N \\\n 16\nint a[N];")
        assert "int a[16];" in out


class TestQualifiers:
    def test_global_to_volatile(self):
        assert "volatile float" in translate_qualifiers("__global float* p")

    def test_local_to_atomic(self):
        assert "_Atomic float" in translate_qualifiers("__local float lm[4];")

    def test_constant(self):
        out = translate_qualifiers("__constant float* w")
        assert "volatile const" in out

    def test_private_and_access_quals_dropped(self):
        out = translate_qualifiers("__private int x; __read_only int y;")
        assert "__private" not in out and "__read_only" not in out

    def test_kernel_marker_stripped(self):
        assert "__kernel" not in translate_qualifiers("__kernel void f()")


class TestKernelDetection:
    def test_finds_kernel_names(self):
        src = "__kernel void foo(__global int* p) {}\n__kernel void bar(void) {}"
        assert find_kernels(src) == ["foo", "bar"]

    def test_helper_functions_not_kernels(self):
        src = "float helper(float x) { return x; }\n__kernel void k(void) {}"
        assert find_kernels(src) == ["k"]

    def test_preprocess_requires_kernel(self):
        with pytest.raises(FrontendError, match="no __kernel"):
            preprocess("void f(void) {}")


class TestFullPreprocess:
    def test_end_to_end(self):
        from tests.conftest import MT_SOURCE

        result = preprocess(MT_SOURCE)
        assert result.kernel_names == ["transpose"]
        assert "__kernel" not in result.text
        assert "__local" not in result.text
        assert "_Atomic float lm[16][16]" in result.text
        # the transpose names no prelude type, so it gets no typedef
        assert "typedef" not in result.text
        assert result.text.startswith("#line 1\n")

    def test_prelude_holds_exactly_the_named_types(self):
        src = """
#define IDX uint
__kernel void k(__global float4* out, __global const uint4* in) {
    IDX i = get_global_id(0);
    size_t n = 4;
    out[i].x = (float)in[i].y + n;  /* float2 only in a comment */
}
"""
        text = preprocess(src).text
        typedefs = [line for line in text.splitlines() if line.startswith("typedef")]
        assert typedefs == [
            "typedef unsigned long size_t;",
            "typedef unsigned int uint;",
            "typedef float float4;",
            "typedef unsigned int uint4;",
        ]
        assert text.splitlines()[len(typedefs)] == "#line 1"

    def test_kernel_naming_every_prelude_type_compiles(self):
        from repro.frontend import compile_kernel

        names = [line.split()[-1].rstrip(";") for line in PRELUDE.strip().splitlines()]
        assert len(names) == 16
        params = ", ".join(f"__global {n}* a{i}" for i, n in enumerate(names))
        src = (
            f"__kernel void k(__global float* out, {params})\n"
            "{\n    out[get_global_id(0)] = 1.0f;\n}\n"
        )
        kernel = compile_kernel(src, cache=False)
        assert len(kernel.args) == 17

    def test_diagnostics_carry_kernel_line_numbers(self):
        from repro.frontend import compile_kernel

        src = (
            "__kernel void k(__global uint* out) {\n"
            "    int lx = get_local_id(0);\n"
            "    out[lx] = nope + 1;\n"
            "}\n"
        )
        with pytest.raises(FrontendError, match=r"^kernel_module:3:\d+: use of undeclared"):
            compile_kernel(src, cache=False)
