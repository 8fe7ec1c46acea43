/* The draws of engine._draw_events in one call per chunk of steps: per step
   and run, on the run's own bit generator, the pair as engine._bounded draws
   it, then the state and success uniforms and the normals as
   Generator.random(out=) and Generator.standard_normal(out=) fill them.
   engine._load_draws builds this file against numpy's libnpyrandom.a. */

#include <stdint.h>

#include "numpy/random/bitgen.h"

/* numpy/random/distributions.h declares these two, but it includes
   Python.h, which makes the compiler several MB larger; npy_intp is
   intptr_t */
void random_standard_uniform_fill(bitgen_t *bitgen_state, intptr_t cnt,
                                  double *out);
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt,
                                 double *out);

/* Generator.integers(bound), 1 <= bound <= 2**32: Lemire's multiply-shift
   on the next 32-bit draw, redrawn while the product's low 32 bits fall
   below 2**32 % bound; bound 1 draws nothing */
static intptr_t bounded(bitgen_t *bits, uint64_t bound)
{
    if (bound == 1)
        return 0;
    uint64_t threshold = (UINT64_C(1) << 32) % bound;
    uint64_t m = (uint64_t)bits->next_uint32(bits->state) * bound;
    while ((m & UINT32_MAX) < threshold)
        m = (uint64_t)bits->next_uint32(bits->state) * bound;
    return (intptr_t)(m >> 32);
}

/* one bounded draw: the tests reach the rejection loop through it, which
   draw_events' bounds, k of up to a few thousand agents, almost never
   take */
intptr_t draw_bounded(bitgen_t *bits, uint64_t bound)
{
    return bounded(bits, bound);
}

/* steps steps of runs runs of k agents: with fusion, per step and run the
   agents i and j (j shifted past i) and the two that adopt, into pairs,
   (steps, runs, 4); always 2k uniforms into u, (steps, runs, 2, k), and k
   normals into eps, (steps, runs, k) */
void draw_events(bitgen_t *const *bits, intptr_t runs, intptr_t steps,
                 intptr_t k, int fusion, int random_one, intptr_t *pairs,
                 double *u, double *eps)
{
    for (intptr_t t = 0; t < steps; t++) {
        for (intptr_t r = 0; r < runs; r++) {
            bitgen_t *b = bits[r];
            if (fusion) {
                intptr_t i = bounded(b, (uint64_t)k);
                intptr_t j = bounded(b, (uint64_t)k - 1);
                j += j >= i;
                pairs[0] = i;
                pairs[1] = j;
                if (random_one)
                    pairs[2] = pairs[3] = bounded(b, 2) ? j : i;
                else {
                    pairs[2] = i;
                    pairs[3] = j;
                }
                pairs += 4;
            }
            random_standard_uniform_fill(b, 2 * k, u);
            random_standard_normal_fill(b, k, eps);
            u += 2 * k;
            eps += k;
        }
    }
}
