// fuzz corpus: seed 0xb5d75f9e2fe98327, shape ok|race+deferred|veto|evict|guard-group-varying|idx-affine|idx-const|idx-nonaffine|idx-nonaffine-load|loop|stage
// generated by `repro fuzz --promote`; replayed by tests/test_corpus.py
__kernel void fz(__global float* out, __global const float* in, int P)
{
    __local float lm0[64];
    __local float lm1[128];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    int wi = get_group_id(0);
    float acc = 0.0f;
    if ((wi & 1) == 1) {
        lm1[(li + 98)] = in[((gi * 2 + 0) % 256)];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    lm0[(2 * li + 46)] = in[(wi * 8 + li)];
    for (int k0 = 0; k0 < 3; ++k0) {
        lm0[43] = in[(gi + k0 * 32)];
        acc = (acc + lm0[60]);
    }
    acc = (acc + lm0[(li ^ 1)]);
    out[gi] = acc;
}
