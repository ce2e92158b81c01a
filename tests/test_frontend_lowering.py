"""Unit tests for AST -> IR lowering: structure and diagnostics."""

import pytest

from repro.frontend import FrontendError, compile_kernel, compile_source
from repro.frontend.errors import UnsupportedFeature
from repro.ir.instructions import (
    Alloca,
    Call,
    Cast,
    GEP,
    Load,
    Store,
)
from repro.ir.types import (
    AddressSpace,
    ArrayType,
    I32,
    PointerType,
    U32,
    VectorType,
)


def k(body: str, params: str = "__global float* out", extra: str = "") -> str:
    return f"{extra}\n__kernel void t({params}) {{ {body} }}"


class TestSignatures:
    def test_pointer_address_spaces(self):
        fn = compile_kernel(
            k("out[0] = 0.0f;", "__global float* out, __local float* scratch, int n")
        )
        assert fn.arg("out").type.addrspace == AddressSpace.GLOBAL
        assert fn.arg("scratch").type.addrspace == AddressSpace.LOCAL
        assert fn.arg("n").type == I32

    def test_unqualified_kernel_pointer_defaults_to_global(self):
        fn = compile_kernel(k("out[0] = 0.0f;", "float* out"))
        assert fn.arg("out").type.addrspace == AddressSpace.GLOBAL

    def test_constant_space_maps_to_global(self):
        fn = compile_kernel(k("out[0] = w[0];", "__global float* out, __constant float* w"))
        assert fn.arg("w").type.addrspace in (
            AddressSpace.GLOBAL,
            AddressSpace.CONSTANT,
        )

    def test_scalar_types(self):
        fn = compile_kernel(
            k("out[0] = 0.0f;", "__global float* out, uint a, uchar b, ulong c, short d")
        )
        assert fn.arg("a").type == U32
        assert str(fn.arg("b").type) == "u8"
        assert str(fn.arg("c").type) == "u64"
        assert str(fn.arg("d").type) == "i16"

    def test_kernel_flag(self):
        mod = compile_source(k("out[0] = 0.0f;"))
        assert mod.kernel("t").is_kernel


class TestLocalDeclarations:
    def test_local_array_registered(self):
        fn = compile_kernel(k("__local float lm[8][4]; lm[0][0] = 1.0f; out[0]=lm[0][0];"))
        (la,) = fn.local_arrays
        assert la.name == "lm"
        assert la.array_type.dims() == (8, 4)

    def test_local_array_dim_constant_expr(self):
        fn = compile_kernel(
            k("__local float lm[N*2]; lm[0]=1.0f; out[0]=lm[0];", extra="#define N 8")
        )
        assert fn.local_arrays[0].array_type.count == 16

    def test_local_scalar_rejected(self):
        with pytest.raises(UnsupportedFeature, match="must be arrays"):
            compile_kernel(k("__local float x; out[0] = 0.0f;"))

    def test_local_initialiser_rejected(self):
        with pytest.raises(FrontendError, match="initialisers"):
            compile_kernel(k("__local float lm[4] = {0}; out[0] = 0.0f;"))

    def test_private_array_allocated(self):
        fn = compile_kernel(k("float tmp[4]; tmp[0] = 1.0f; out[0] = tmp[0];"))
        allocas = [i for i in fn.instructions() if isinstance(i, Alloca)]
        assert any(isinstance(a.allocated_type, ArrayType) for a in allocas)


class TestDiagnostics:
    def test_undeclared_identifier(self):
        with pytest.raises(FrontendError, match="undeclared"):
            compile_kernel(k("out[0] = nope;"))

    def test_unknown_function(self):
        with pytest.raises(UnsupportedFeature, match="unknown function"):
            compile_kernel(k("out[0] = frobnicate(1.0f);"))

    def test_unknown_type(self):
        with pytest.raises(FrontendError):
            compile_kernel(k("quaternion q; out[0] = 0.0f;"))

    def test_parse_error_reported(self):
        with pytest.raises(FrontendError, match="parse error"):
            compile_kernel("__kernel void t(__global float* o) { o[0] = ; }")

    def test_break_outside_loop(self):
        with pytest.raises(FrontendError, match="break"):
            compile_kernel(k("break;"))

    def test_continue_outside_loop(self):
        with pytest.raises(FrontendError, match="continue"):
            compile_kernel(k("continue;"))

    def test_subscript_non_pointer(self):
        with pytest.raises(FrontendError, match="non-pointer|subscript"):
            compile_kernel(k("int x; out[0] = x[1];"))

    def test_bad_array_dim(self):
        with pytest.raises(FrontendError, match="constant"):
            compile_kernel(k("int n = 4; float a[n]; out[0] = 0.0f;"))


class TestExpressionsStructure:
    def test_vector_member_access(self):
        fn = compile_kernel(
            k("float4 v = vload4(0, out); out[0] = v.x + v.w;")
        )
        from repro.ir.instructions import ExtractElement

        assert any(isinstance(i, ExtractElement) for i in fn.instructions())

    def test_vector_member_store(self):
        src = k("float4 v = vload4(0, out); v.y = 2.0f; vstore4(v, 0, out);")
        fn = compile_kernel(src)
        from repro.ir.instructions import InsertElement

        assert any(isinstance(i, InsertElement) for i in fn.instructions())

    def test_vload_becomes_real_load(self):
        fn = compile_kernel(k("float4 v = vload4(2, out); vstore4(v, 3, out);"))
        vec_loads = [
            i
            for i in fn.instructions()
            if isinstance(i, Load) and isinstance(i.type, VectorType)
        ]
        assert vec_loads, "vload4 must lower to a Load instruction"
        vec_stores = [
            i
            for i in fn.instructions()
            if isinstance(i, Store) and isinstance(i.value.type, VectorType)
        ]
        assert vec_stores

    def test_pointer_arithmetic_becomes_gep(self):
        fn = compile_kernel(k("__global float* p = out + 4; p[1] = 2.0f;"))
        assert any(isinstance(i, GEP) for i in fn.instructions())

    def test_pointer_cast_keeps_addrspace(self):
        src = k(
            "__global float4* v = (__global float4*)out; "
            "float4 x = v[1]; vstore4(x, 0, out);"
        )
        fn = compile_kernel(src)
        casts = [i for i in fn.instructions() if isinstance(i, Cast)]
        ptr_casts = [c for c in casts if isinstance(c.type, PointerType)]
        assert ptr_casts
        assert ptr_casts[0].type.addrspace == AddressSpace.GLOBAL

    def test_work_item_builtins_typed_i64(self):
        fn = compile_kernel(k("out[get_global_id(0)] = 1.0f;"))
        calls = [i for i in fn.instructions() if isinstance(i, Call)]
        assert any(c.callee == "get_global_id" and str(c.type) == "i64" for c in calls)

    def test_barrier_lowered(self):
        fn = compile_kernel(
            k("__local float lm[4]; lm[0]=out[0]; barrier(CLK_LOCAL_MEM_FENCE); out[0]=lm[0];")
        )
        assert any(
            isinstance(i, Call) and i.callee == "barrier" for i in fn.instructions()
        )

    def test_char_literal(self):
        fn = compile_kernel(
            k("if (t[0] == 'a') out[0] = 1.0f;", "__global float* out, __global uchar* t")
        )
        assert fn is not None

    def test_sizeof_type(self):
        fn = compile_kernel(k("out[0] = (float)sizeof(float);"))
        assert fn is not None


class TestControlFlowStructure:
    def test_for_loop_blocks(self):
        fn = compile_kernel(k("for (int i = 0; i < 4; ++i) out[i] = 0.0f;"))
        names = {bb.name.split(".")[0] for bb in fn.blocks}
        assert "for" in names

    def test_while_and_do(self):
        fn = compile_kernel(
            k("int i = 0; while (i < 4) { out[i] = 0.0f; i = i + 1; } "
              "do { i = i - 1; } while (i > 0);")
        )
        assert len(fn.blocks) > 4

    def test_nested_if_else(self):
        fn = compile_kernel(
            k("int g = get_global_id(0); if (g > 2) { if (g > 4) out[0]=1.0f; "
              "else out[0]=2.0f; } else out[0]=3.0f;")
        )
        assert fn is not None

    def test_return_in_branch(self):
        fn = compile_kernel(
            k("if (get_global_id(0) == 0) { out[0] = 1.0f; return; } out[1] = 2.0f;")
        )
        assert fn is not None
