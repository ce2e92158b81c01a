// fuzz corpus: seed 0xc71a6290df50ba2b, shape ok|irreversible+deferred|t0r2|no-evict|idx-affine|idx-arg-shift|idx-nonaffine|loop|stage
// generated by `repro fuzz --promote`; replayed by tests/test_corpus.py
__kernel void fz(__global float* out, __global const float* in, int P)
{
    __local float lm0[64];
    __local float lm1[128];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    int wi = get_group_id(0);
    float acc = 0.0f;
    acc = (acc + in[gi]);
    acc = (acc + in[gi]);
    lm1[(44 - li)] = (in[gi] * 5.0f + 1.0f);
    barrier(CLK_LOCAL_MEM_FENCE);
    acc = (acc + in[(wi * 8 + li)]);
    for (int k0 = 0; k0 < 3; ++k0) {
        acc = (acc + lm0[(2 * li + 22)]);
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    acc = (acc + lm1[(li + P)]);
    for (int k1 = 0; k1 < 2; ++k1) {
        lm0[(22 - li)] = in[(gi + k1 * 32)];
        acc = (acc + lm0[(li ^ 1)]);
    }
    acc = (acc + lm1[(li % 4)]);
    out[gi] = acc;
}
