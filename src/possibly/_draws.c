/* The per-chunk loops of engine._run_levels, one call each: the draws of
   engine._draw_events (draw_events), per step and run, on the run's own bit
   generator, the pair as engine._bounded draws it, then the state and
   success uniforms and the normals as Generator.random(out=) and
   Generator.standard_normal(out=) fill them; and the sparse rule's per-step
   bookkeeping, each event's dependency level (assign_levels, for
   engine._assign_levels) and the advance of the agents' metric columns by a
   chunk's writes (advance_columns, for engine._window_metrics). Both are
   sequential loops over a chunk's events, and each replays its Python loop
   write for write, so levels, passes and bits are the Python loops' own.
   At fig8's batches of 2 runs of 100 agents, a chunk of 162 steps and
   about 2,000 events, the Python loops took about 0.8 ms for the levels
   and 0.7 ms for the columns, and one call here each 0.03-0.04 and
   0.07-0.09 ms, mostly the cost of the call and of copying each step's
   columns (2-vCPU host). engine._load_draws builds this file against
   numpy's libnpyrandom.a. */

#include <stdint.h>
#include <string.h>

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

/* entry i of an array of unsigned integers of size bytes each (engine's
   level type: 1, 2, 4 or 8) */
static inline uint64_t load(const void *a, intptr_t i, int size)
{
    switch (size) {
    case 1:
        return ((const uint8_t *)a)[i];
    case 2:
        return ((const uint16_t *)a)[i];
    case 4:
        return ((const uint32_t *)a)[i];
    default:
        return ((const uint64_t *)a)[i];
    }
}

static inline void store(void *a, intptr_t i, int size, uint64_t value)
{
    switch (size) {
    case 1:
        ((uint8_t *)a)[i] = (uint8_t)value;
        break;
    case 2:
        ((uint16_t *)a)[i] = (uint16_t)value;
        break;
    case 4:
        ((uint32_t *)a)[i] = (uint32_t)value;
        break;
    default:
        ((uint64_t *)a)[i] = value;
    }
}

/* the dependency levels of a chunk of steps steps into pair_level,
   (steps, r_pairs), and e_level, from and into agent_level, the agents'
   levels; the three hold unsigned integers of size bytes. Per step, first
   each of its r_pairs pairs, agent rows i and j in pairs, (steps, r_pairs,
   4), gets a level one past the higher of their levels, which both then
   take; then each evidence event of the step, agent row e_row[e] for e
   from e_ends[t] to e_ends[t + 1], a level one past its agent's, which the
   agent takes */
void assign_levels(int size, void *agent_level, void *pair_level,
                   void *e_level, intptr_t steps, intptr_t r_pairs,
                   const intptr_t *pairs, const intptr_t *e_row,
                   const intptr_t *e_ends)
{
    for (intptr_t t = 0, p = 0; t < steps; t++) {
        for (intptr_t r = 0; r < r_pairs; r++, p++, pairs += 4) {
            uint64_t i = load(agent_level, pairs[0], size);
            uint64_t j = load(agent_level, pairs[1], size);
            uint64_t level = (i > j ? i : j) + 1;
            store(agent_level, pairs[0], size, level);
            store(agent_level, pairs[1], size, level);
            store(pair_level, p, size, level);
        }
        for (intptr_t e = e_ends[t]; e < e_ends[t + 1]; e++) {
            uint64_t level = load(agent_level, e_row[e], size) + 1;
            store(agent_level, e_row[e], size, level);
            store(e_level, e, size, level);
        }
    }
}

/* a chunk's per-step metric columns: columns, (m, rk), holds the agents'
   columns before the chunk and is advanced step by step, each step's
   columns then copied into out, (steps, m, rk). Per step, first each of
   its r_pairs pairs gives its adopters, pairs[2] and pairs[3] of pairs,
   (steps, r_pairs, 4), its columns in pair_values, (m, steps * r_pairs);
   then each evidence event, agent row e_row[e] for e in e_ends[t] to
   e_ends[t + 1], its columns in e_values, (m, events). pair_values and
   e_values are column ranges of one array, whose rows are stride doubles
   apart */
void advance_columns(intptr_t steps, intptr_t r_pairs, intptr_t m,
                     intptr_t rk, const intptr_t *pairs,
                     const double *pair_values, const intptr_t *e_row,
                     const double *e_values, const intptr_t *e_ends,
                     intptr_t stride, double *columns, double *out)
{
    for (intptr_t t = 0; t < steps; t++) {
        for (intptr_t c = 0; c < m; c++) {
            double *column = columns + c * rk;
            const double *value = pair_values + c * stride + t * r_pairs;
            const intptr_t *pair = pairs + 4 * t * r_pairs;
            for (intptr_t r = 0; r < r_pairs; r++, pair += 4)
                column[pair[2]] = column[pair[3]] = value[r];
            value = e_values + c * stride;
            for (intptr_t e = e_ends[t]; e < e_ends[t + 1]; e++)
                column[e_row[e]] = value[e];
        }
        memcpy(out + t * m * rk, columns, sizeof *out * m * rk);
    }
}
