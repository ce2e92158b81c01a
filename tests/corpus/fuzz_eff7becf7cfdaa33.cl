// fuzz corpus: seed 0xeff7becf7cfdaa33, shape ok|race+deferred|t0r2|no-evict|idx-affine|idx-arg-shift|idx-nonaffine|loop|stage
// generated by `repro fuzz --promote`; replayed by tests/test_corpus.py
__kernel void fz(__global float* out, __global const float* in, int P)
{
    __local float lm0[64];
    __local float lm1[64];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    int wi = get_group_id(0);
    float acc = 0.0f;
    acc = (acc + lm0[(li ^ 1)]);
    acc = (acc + in[(wi * 16 + li)]);
    for (int k0 = 0; k0 < 3; ++k0) {
        acc = (acc + lm1[(li % 8)]);
        lm0[(li + P)] = in[(gi + k0 * 64)];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int k1 = 0; k1 < 3; ++k1) {
        lm1[(li % 8)] = in[(wi * 16 + li)];
        acc = (acc + lm0[(li + 41)]);
    }
    acc = (acc + in[(wi * 16 + li)]);
    out[gi] = acc;
}
