/* The compiled replay kernel's step in C: the settle, which counts
   toggles as it writes each node, the lane gather, the lane-major
   charge accumulation, and the wide settle of four Monte Carlo units.

   [Kernel.settle], [Kernel.gather_deltas] and [Kernel.settle_wide] are
   documented at their definitions below. [Kernel.accumulate_lanes ls
   deltas caps n] folds node [k]'s capacitance [caps[k]] into every lane
   accumulator [ls[l]] whose bit is set in the delta word [deltas[k]],
   for k = 0 .. n-1 in order, and returns how many four-lane groups it
   swept. The contract that makes this a C primitive worth having (see
   kernel.ml): each lane's accumulator is a chronologically ordered
   IEEE-754 double sum, so the adds cannot be reassociated — but the 63
   lanes are independent chains that can run interleaved, with the
   accumulators held in registers for the whole sweep. OCaml (without
   flambda) spills float loop carries to memory, which makes the scatter
   walk and this loop equally memory-bound; in C the sweep is
   float-throughput-bound instead.

   Bit-identity with Bitsim.scan_lanes (the differential wall in
   test/test_kernel.ml asserts it): when bit l of the delta is set the
   term added is exactly [caps[k]] (a bitwise AND with an all-ones mask,
   or [c * 1.0] in the scalar path — exact); when clear the term is +0.0,
   and [x + +0.0] is bit-exact for every x these accumulators can hold
   (the caller proves the caps finite and non-negative at compile time,
   so no lane sum is ever -0.0, an infinity, or a NaN). No fused
   multiply-add, no reassociation: plain adds in program order per lane,
   which is the same per-lane order the scatter walk produces because the
   node order is the same for every lane.

   Touched lanes only. The sweep first ORs the n delta words into a
   touched-lane mask and sweeps only the lanes it needs: the four-lane
   groups (lanes 0..59) with a touched lane, four accumulators at a time,
   then lanes 60..62 when one of them is touched; the portable path skips
   eight-lane blocks with no touched lane. An untouched lane has a clear
   bit in every delta, so its sweep would add only +0.0 terms — the
   argument above leaves it unchanged bit for bit. The returned count is
   the touched groups, with the tail as one group, on either path. With
   every lane touched the AVX2 sweep runs 4+4+4+3 groups and the tail,
   as a sweep of all 63 lanes would.

   The AVX2 path is runtime-dispatched (__builtin_cpu_supports), so the
   library builds and runs on any x86-64 without special flags; other
   architectures and non-GNU compilers take the portable scalar path,
   which [hlp_kernel_accumulate_lanes_portable] exposes to the tests on
   every CPU. Packed vaddpd is per-lane IEEE double addition, so the SIMD
   path computes the same bits as the scalar one. */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LANES 63 /* Bitsim.lanes: one OCaml int of payload per node */

#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

/* c when bit = 1, +0.0 when bit = 0: mask the payload bits, no branch,
   no int-to-float conversion, no multiply */
static inline double mask_sel(double c, long bit)
{
  uint64_t cb;
  memcpy(&cb, &c, 8);
  cb &= (uint64_t)(-bit);
  double r;
  memcpy(&r, &cb, 8);
  return r;
}

/* bit l set when lane l is set in some delta word: the OR of the tagged
   words with the tag shifted out */
static inline uint64_t touched_lanes(const value *deltas, long n)
{
  uintnat m = 0;
  for (long k = 0; k < n; k++) m |= (uintnat)deltas[k];
  return (uint64_t)(m >> 1);
}

/* the sweep's count: four-lane groups 0..14 (lanes 0..59) holding a
   touched lane, plus one for the tail (lanes 60..62) when touched */
static long touched_groups(uint64_t touched)
{
  long g = (touched >> 60) != 0;
  for (int t = 0; t < 60; t += 4) g += ((touched >> t) & 0xf) != 0;
  return g;
}

/* The portable sweep: blocks of eight lanes (seven for the last), one
   interleaved chain per lane, and a block with no touched lane is
   skipped. */
static long scalar_accumulate(double *ls, const value *deltas,
                              const double *caps, long n)
{
  uint64_t touched = touched_lanes(deltas, n);
  for (long t = 0; t < LANES; t += 8) {
    if (((touched >> t) & 0xff) == 0) continue;
    if (t + 8 <= LANES) {
      double a0 = ls[t], a1 = ls[t + 1], a2 = ls[t + 2], a3 = ls[t + 3];
      double a4 = ls[t + 4], a5 = ls[t + 5], a6 = ls[t + 6], a7 = ls[t + 7];
      for (long k = 0; k < n; k++) {
        long d = Long_val(deltas[k]);
        double c = caps[k];
        a0 += mask_sel(c, (d >> t) & 1);
        a1 += mask_sel(c, (d >> (t + 1)) & 1);
        a2 += mask_sel(c, (d >> (t + 2)) & 1);
        a3 += mask_sel(c, (d >> (t + 3)) & 1);
        a4 += mask_sel(c, (d >> (t + 4)) & 1);
        a5 += mask_sel(c, (d >> (t + 5)) & 1);
        a6 += mask_sel(c, (d >> (t + 6)) & 1);
        a7 += mask_sel(c, (d >> (t + 7)) & 1);
      }
      ls[t] = a0;
      ls[t + 1] = a1;
      ls[t + 2] = a2;
      ls[t + 3] = a3;
      ls[t + 4] = a4;
      ls[t + 5] = a5;
      ls[t + 6] = a6;
      ls[t + 7] = a7;
    } else {
      /* the last 7 lanes, one interleaved chain each */
      double a0 = ls[t], a1 = ls[t + 1], a2 = ls[t + 2], a3 = ls[t + 3];
      double a4 = ls[t + 4], a5 = ls[t + 5], a6 = ls[t + 6];
      for (long k = 0; k < n; k++) {
        long d = Long_val(deltas[k]);
        double c = caps[k];
        a0 += mask_sel(c, (d >> t) & 1);
        a1 += mask_sel(c, (d >> (t + 1)) & 1);
        a2 += mask_sel(c, (d >> (t + 2)) & 1);
        a3 += mask_sel(c, (d >> (t + 3)) & 1);
        a4 += mask_sel(c, (d >> (t + 4)) & 1);
        a5 += mask_sel(c, (d >> (t + 5)) & 1);
        a6 += mask_sel(c, (d >> (t + 6)) & 1);
      }
      ls[t] = a0;
      ls[t + 1] = a1;
      ls[t + 2] = a2;
      ls[t + 3] = a3;
      ls[t + 4] = a4;
      ls[t + 5] = a5;
      ls[t + 6] = a6;
    }
  }
  return touched_groups(touched);
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

/* the bit of each lane of the four-lane group starting at lane t */
__attribute__((target("avx2"))) static ALWAYS_INLINE __m256i
group_bits(long t)
{
  return _mm256_set_epi64x(1L << (t + 3), 1L << (t + 2), 1L << (t + 1),
                           1L << t);
}

/* [k] four-lane groups (1 <= k <= 4, a constant at every call site, so
   each call is its own loop with no dead accumulator) starting at lanes
   t[0..k), one ymm accumulator each. Per node: broadcast the delta word,
   AND with each group's bit masks, compare-equal to build an all-ones or
   zero lane mask, AND with the broadcast capacitance, packed add. Four
   accumulators hide the 4-cycle add latency. */
__attribute__((target("avx2"))) static ALWAYS_INLINE void
avx2_groups(double *ls, const value *deltas, const double *caps, long n,
            const long *t, int k)
{
  __m256d a0 = _mm256_loadu_pd(ls + t[0]), a1 = a0, a2 = a0, a3 = a0;
  __m256i b0 = group_bits(t[0]), b1 = b0, b2 = b0, b3 = b0;
  if (k > 1) a1 = _mm256_loadu_pd(ls + t[1]), b1 = group_bits(t[1]);
  if (k > 2) a2 = _mm256_loadu_pd(ls + t[2]), b2 = group_bits(t[2]);
  if (k > 3) a3 = _mm256_loadu_pd(ls + t[3]), b3 = group_bits(t[3]);
#define ADD(a, b)                                                        \
  a = _mm256_add_pd(                                                     \
      a, _mm256_and_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(           \
                           _mm256_and_si256(d, b), b)),                  \
                       c))
  for (long j = 0; j < n; j++) {
    __m256i d = _mm256_set1_epi64x(Long_val(deltas[j]));
    __m256d c = _mm256_broadcast_sd(caps + j);
    ADD(a0, b0);
    if (k > 1) ADD(a1, b1);
    if (k > 2) ADD(a2, b2);
    if (k > 3) ADD(a3, b3);
  }
#undef ADD
  _mm256_storeu_pd(ls + t[0], a0);
  if (k > 1) _mm256_storeu_pd(ls + t[1], a1);
  if (k > 2) _mm256_storeu_pd(ls + t[2], a2);
  if (k > 3) _mm256_storeu_pd(ls + t[3], a3);
}

/* The touched four-lane groups of lanes 0..59 in batches of four, the
   last batch one to four; then lanes 60..62 as three scalar chains when
   any of them is touched. With every lane touched that is 4+4+4+3
   groups and the tail. */
__attribute__((target("avx2"))) static long
avx2_accumulate(double *ls, const value *deltas, const double *caps, long n)
{
  uint64_t touched = touched_lanes(deltas, n);
  long t[15], ng = 0, i = 0;
  for (long g = 0; g < 60; g += 4)
    if ((touched >> g) & 0xf) t[ng++] = g;
  for (; ng - i >= 4; i += 4) avx2_groups(ls, deltas, caps, n, t + i, 4);
  switch (ng - i) {
  case 3: avx2_groups(ls, deltas, caps, n, t + i, 3); break;
  case 2: avx2_groups(ls, deltas, caps, n, t + i, 2); break;
  case 1: avx2_groups(ls, deltas, caps, n, t + i, 1); break;
  }
  if (touched >> 60) {
    double a0 = ls[60], a1 = ls[61], a2 = ls[62];
    for (long k = 0; k < n; k++) {
      long d = Long_val(deltas[k]);
      double c = caps[k];
      a0 += mask_sel(c, (d >> 60) & 1);
      a1 += mask_sel(c, (d >> 61) & 1);
      a2 += mask_sel(c, (d >> 62) & 1);
    }
    ls[60] = a0;
    ls[61] = a1;
    ls[62] = a2;
    ng++;
  }
  return ng;
}

CAMLprim value hlp_kernel_accumulate_lanes(value vls, value vdeltas,
                                           value vcaps, value vn)
{
  static int have_avx2 = -1;
  if (have_avx2 < 0) have_avx2 = __builtin_cpu_supports("avx2");
  if (have_avx2)
    return Val_long(avx2_accumulate((double *)vls, Op_val(vdeltas),
                                    (double *)vcaps, Long_val(vn)));
  return Val_long(scalar_accumulate((double *)vls, Op_val(vdeltas),
                                    (double *)vcaps, Long_val(vn)));
}
#else
CAMLprim value hlp_kernel_accumulate_lanes(value vls, value vdeltas,
                                           value vcaps, value vn)
{
  return Val_long(scalar_accumulate((double *)vls, Op_val(vdeltas),
                                    (double *)vcaps, Long_val(vn)));
}
#endif

/* the portable sweep on every CPU, for the tests: no CI host takes it
   through [hlp_kernel_accumulate_lanes] */
CAMLprim value hlp_kernel_accumulate_lanes_portable(value vls, value vdeltas,
                                                    value vcaps, value vn)
{
  return Val_long(scalar_accumulate((double *)vls, Op_val(vdeltas),
                                    (double *)vcaps, Long_val(vn)));
}

/* Settling the compiled schedule, counting toggles as it goes.

   [Kernel.settle v old segs dst fa fb fc foff fidx latched toggles count]
   evaluates the schedule into [v]. [segs] holds one (op, lo, hi) triple
   per segment, level-major; segment g writes slots lo..hi, and slot s
   computes node dst[s] from the pins fa[s], fb[s], fc[s] (arity <= 3; a
   mux selects on fa) or folds fidx[foff[s] .. foff[s+1]) (the n-ary
   opcodes). Kernel.verify proves at compile time that every index read
   here is in range, that every pin settles on an earlier level than its
   slot, and that the segments tile the slots, so nothing is checked here.

   With [count] set, the same pass adds popcount(old[i] xor v[i]) to
   toggles[i]: first for each latched node (registers, then primary
   inputs, which the caller has already written), then for each slot's
   node as the slot writes it. Constants are never written and hold the
   same word in both buffers, so they never toggle. Integer sums are
   order-free, so the counts equal Bitsim's although the schedule visits
   the nodes in a different order.

   Words stay tagged OCaml ints, so nothing is unboxed: [and], [or] and
   [mux] keep the tag bit and [buf] copies it; [not], [xor] and the
   negated opcodes clear or may clear it, and restore it with [| 1]. The
   tag bits of old and new cancel in the xor, and adding 2p to a tagged
   count adds p to the count (wrapping like OCaml arithmetic).

   The opcode switch runs once per segment, outside the segment's slot
   loop, so a slot costs its loads, one word operation and a store.

   On GCC and clang the popcount is __builtin_popcountll: the popcnt
   instruction in a copy of the counted loop compiled for it and picked
   at runtime when the CPU has it (like the AVX2 sweep), the compiler's
   own count elsewhere (native on aarch64). Other compilers get a SWAR
   count. The primitive allocates nothing and never calls back into the
   runtime, which makes the [@@noalloc] mark sound. */

static ALWAYS_INLINE uintnat pop(uint64_t x)
{
#if defined(__GNUC__)
  return (uintnat)__builtin_popcountll(x);
#else
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (uintnat)((x * 0x0101010101010101ULL) >> 56);
#endif
}

/* the slot opcodes of kernel.ml, in the same order */
enum {
  OP_BUF, OP_NOT, OP_AND2, OP_OR2, OP_NAND2, OP_NOR2, OP_XOR, OP_XNOR,
  OP_MUX, OP_ANDN, OP_ORN, OP_NANDN, OP_NORN
};

struct sched {
  value *segs, *dst, *fa, *fb, *fc, *foff, *fidx, *latched;
  long nsegs, nlatched;
};

/* add the toggles of node i, whose new word is x */
#define TOGGLE(i, x)                                                     \
  (toggles[i] = (value)((uintnat)toggles[i] +                           \
                        (pop((uintnat)old[i] ^ (uintnat)(x)) << 1)))

/* [count] is a constant at every call site, so each caller gets its own
   loop with no counting branch */
static ALWAYS_INLINE void settle_loop(const struct sched *p, value *v,
                                      const value *old, value *toggles,
                                      int count)
{
  const value *dst = p->dst, *fa = p->fa, *fb = p->fb, *fc = p->fc;
  const value *foff = p->foff, *fidx = p->fidx;
  if (count)
    for (long k = 0; k < p->nlatched; k++) {
      long i = Long_val(p->latched[k]);
      TOGGLE(i, v[i]);
    }
#define PIN(pins) v[Long_val(pins[s])]
  /* write expr, a word of slot s, to its node */
#define SLOTS(expr)                                                      \
  for (long s = lo; s <= hi; s++) {                                      \
    long i = Long_val(dst[s]);                                           \
    value x = (expr);                                                    \
    if (count) TOGGLE(i, x);                                             \
    v[i] = x;                                                            \
  }
  /* fold the pins of slot s with op into acc, then write tail */
#define FOLD(op, tail)                                                   \
  for (long s = lo; s <= hi; s++) {                                      \
    long k = Long_val(foff[s]), e = Long_val(foff[s + 1]);               \
    long i = Long_val(dst[s]);                                           \
    value acc = v[Long_val(fidx[k])];                                    \
    for (k++; k < e; k++) acc op v[Long_val(fidx[k])];                   \
    value x = (tail);                                                    \
    if (count) TOGGLE(i, x);                                             \
    v[i] = x;                                                            \
  }
  for (long g = 0; g < p->nsegs; g++) {
    long lo = Long_val(p->segs[3 * g + 1]), hi = Long_val(p->segs[3 * g + 2]);
    switch (Long_val(p->segs[3 * g])) {
    case OP_BUF: SLOTS(PIN(fa)); break;
    case OP_NOT: SLOTS(~PIN(fa) | 1); break;
    case OP_AND2: SLOTS(PIN(fa) & PIN(fb)); break;
    case OP_OR2: SLOTS(PIN(fa) | PIN(fb)); break;
    case OP_NAND2: SLOTS(~(PIN(fa) & PIN(fb)) | 1); break;
    case OP_NOR2: SLOTS(~(PIN(fa) | PIN(fb)) | 1); break;
    case OP_XOR: SLOTS((PIN(fa) ^ PIN(fb)) | 1); break;
    case OP_XNOR: SLOTS(~(PIN(fa) ^ PIN(fb)) | 1); break;
    case OP_MUX: SLOTS((~PIN(fa) & PIN(fb)) | (PIN(fa) & PIN(fc))); break;
    case OP_ANDN: FOLD(&=, acc); break;
    case OP_ORN: FOLD(|=, acc); break;
    case OP_NANDN: FOLD(&=, ~acc | 1); break;
    case OP_NORN: FOLD(|=, ~acc | 1); break;
    }
  }
#undef PIN
#undef SLOTS
#undef FOLD
}

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("popcnt"))) static void
settle_counted_popcnt(const struct sched *p, value *v, const value *old,
                      value *toggles)
{
  settle_loop(p, v, old, toggles, 1);
}
#endif

CAMLprim value hlp_kernel_settle(value vv, value vold, value vsegs,
                                 value vdst, value vfa, value vfb, value vfc,
                                 value vfoff, value vfidx, value vlatched,
                                 value vtoggles, value vcount)
{
  struct sched p = {
      Op_val(vsegs), Op_val(vdst), Op_val(vfa), Op_val(vfb), Op_val(vfc),
      Op_val(vfoff), Op_val(vfidx), Op_val(vlatched),
      (long)Wosize_val(vsegs) / 3, (long)Wosize_val(vlatched)};
  value *v = Op_val(vv), *old = Op_val(vold), *toggles = Op_val(vtoggles);
  if (!Bool_val(vcount)) {
    settle_loop(&p, v, NULL, NULL, 0);
    return Val_unit;
  }
#if defined(__x86_64__) && defined(__GNUC__)
  static int have_popcnt = -1;
  if (have_popcnt < 0) have_popcnt = __builtin_cpu_supports("popcnt");
  if (have_popcnt) {
    settle_counted_popcnt(&p, v, old, toggles);
    return Val_unit;
  }
#endif
  settle_loop(&p, v, old, toggles, 1);
  return Val_unit;
}

/* bytecode entry: more than five arguments arrive as an array */
CAMLprim value hlp_kernel_settle_byte(value *argv, int argn)
{
  (void)argn;
  return hlp_kernel_settle(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5], argv[6], argv[7], argv[8], argv[9],
                           argv[10], argv[11]);
}

/* The wide settle: four Monte Carlo units in one pass.

   [Kernel.settle_wide v old segs dst fa fb fc foff fidx latched toggles]
   is the counted [settle] above over four independent states at once.
   Node i's four words, one per unit, sit at v[4i .. 4i+3] (likewise in
   [old] and [toggles]), so one unaligned 256-bit load fetches a pin for
   every unit and each opcode is one vector instruction. The schedule
   arrays, the proof that makes them safe to read unchecked, the order
   (latched nodes, then slots as they are written) and the tag handling
   are the one-unit settle's: the words stay tagged OCaml ints, [not],
   [xor] and the negated opcodes restore the tag with [| 1], and each
   unit's toggle count gains twice its popcount. The popcount of each
   64-bit lane of old xor new is a [vpshufb] nibble table lookup summed
   per lane by [vpsadbw]. Integer sums are exact, so each unit's counts
   equal a one-unit settle's on that unit's words.

   Only x86-64 with AVX2 has this path, compiled under target("avx2")
   and taken only when [Kernel.Wide.available] (__builtin_cpu_supports)
   says the CPU runs it; elsewhere [Kernel.Wide.create] refuses, and Monte
   Carlo runs one unit at a time. Allocates nothing and never calls back
   into the runtime. */

#if defined(__x86_64__) && defined(__GNUC__)

/* per 64-bit lane: twice popcount(x), the tagged increment */
__attribute__((target("avx2"))) static ALWAYS_INLINE __m256i
pop2_lanes(__m256i x, __m256i nibbles, __m256i low)
{
  __m256i lo = _mm256_shuffle_epi8(nibbles, _mm256_and_si256(x, low));
  __m256i hi = _mm256_shuffle_epi8(
      nibbles, _mm256_and_si256(_mm256_srli_epi16(x, 4), low));
  __m256i bytes = _mm256_add_epi8(lo, hi);
  return _mm256_slli_epi64(_mm256_sad_epu8(bytes, _mm256_setzero_si256()), 1);
}

__attribute__((target("avx2"))) static void
settle_wide_avx2(const struct sched *p, value *v, const value *old,
                 value *toggles)
{
  const value *dst = p->dst, *fa = p->fa, *fb = p->fb, *fc = p->fc;
  const value *foff = p->foff, *fidx = p->fidx;
  const __m256i one = _mm256_set1_epi64x(1), ones = _mm256_set1_epi64x(-1);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i nibbles =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
#define LD(a, i) _mm256_loadu_si256((const __m256i *)((a) + 4 * (i)))
#define ST(a, i, x) _mm256_storeu_si256((__m256i *)((a) + 4 * (i)), (x))
#define NOT(x) _mm256_or_si256(_mm256_xor_si256((x), ones), one)
#define TOGGLE4(i, x)                                                    \
  ST(toggles, i,                                                         \
     _mm256_add_epi64(LD(toggles, i),                                    \
                      pop2_lanes(_mm256_xor_si256(LD(old, i), (x)),      \
                                 nibbles, low)))
  for (long k = 0; k < p->nlatched; k++) {
    long i = Long_val(p->latched[k]);
    TOGGLE4(i, LD(v, i));
  }
#define PIN(pins) LD(v, Long_val(pins[s]))
#define SLOTS(expr)                                                      \
  for (long s = lo; s <= hi; s++) {                                      \
    long i = Long_val(dst[s]);                                           \
    __m256i x = (expr);                                                  \
    TOGGLE4(i, x);                                                       \
    ST(v, i, x);                                                         \
  }
#define FOLD(op, tail)                                                   \
  for (long s = lo; s <= hi; s++) {                                      \
    long k = Long_val(foff[s]), e = Long_val(foff[s + 1]);               \
    long i = Long_val(dst[s]);                                           \
    __m256i acc = LD(v, Long_val(fidx[k]));                              \
    for (k++; k < e; k++) acc = op(acc, LD(v, Long_val(fidx[k])));       \
    __m256i x = (tail);                                                  \
    TOGGLE4(i, x);                                                       \
    ST(v, i, x);                                                         \
  }
  for (long g = 0; g < p->nsegs; g++) {
    long lo = Long_val(p->segs[3 * g + 1]), hi = Long_val(p->segs[3 * g + 2]);
    switch (Long_val(p->segs[3 * g])) {
    case OP_BUF: SLOTS(PIN(fa)); break;
    case OP_NOT: SLOTS(NOT(PIN(fa))); break;
    case OP_AND2: SLOTS(_mm256_and_si256(PIN(fa), PIN(fb))); break;
    case OP_OR2: SLOTS(_mm256_or_si256(PIN(fa), PIN(fb))); break;
    case OP_NAND2: SLOTS(NOT(_mm256_and_si256(PIN(fa), PIN(fb)))); break;
    case OP_NOR2: SLOTS(NOT(_mm256_or_si256(PIN(fa), PIN(fb)))); break;
    case OP_XOR:
      SLOTS(_mm256_or_si256(_mm256_xor_si256(PIN(fa), PIN(fb)), one));
      break;
    case OP_XNOR: SLOTS(NOT(_mm256_xor_si256(PIN(fa), PIN(fb)))); break;
    case OP_MUX:
      SLOTS(_mm256_or_si256(_mm256_andnot_si256(PIN(fa), PIN(fb)),
                            _mm256_and_si256(PIN(fa), PIN(fc))));
      break;
    case OP_ANDN: FOLD(_mm256_and_si256, acc); break;
    case OP_ORN: FOLD(_mm256_or_si256, acc); break;
    case OP_NANDN: FOLD(_mm256_and_si256, NOT(acc)); break;
    case OP_NORN: FOLD(_mm256_or_si256, NOT(acc)); break;
    }
  }
#undef LD
#undef ST
#undef NOT
#undef TOGGLE4
#undef PIN
#undef SLOTS
#undef FOLD
}

CAMLprim value hlp_kernel_wide_available(value unit)
{
  (void)unit;
  return Val_bool(__builtin_cpu_supports("avx2"));
}

CAMLprim value hlp_kernel_settle_wide(value vv, value vold, value vsegs,
                                      value vdst, value vfa, value vfb,
                                      value vfc, value vfoff, value vfidx,
                                      value vlatched, value vtoggles)
{
  struct sched p = {
      Op_val(vsegs), Op_val(vdst), Op_val(vfa), Op_val(vfb), Op_val(vfc),
      Op_val(vfoff), Op_val(vfidx), Op_val(vlatched),
      (long)Wosize_val(vsegs) / 3, (long)Wosize_val(vlatched)};
  settle_wide_avx2(&p, Op_val(vv), Op_val(vold), Op_val(vtoggles));
  return Val_unit;
}
#else
CAMLprim value hlp_kernel_wide_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* unreachable: Kernel.Wide.create refuses to build a state here */
CAMLprim value hlp_kernel_settle_wide(value vv, value vold, value vsegs,
                                      value vdst, value vfa, value vfb,
                                      value vfc, value vfoff, value vfidx,
                                      value vlatched, value vtoggles)
{
  (void)vv, (void)vold, (void)vsegs, (void)vdst, (void)vfa, (void)vfb;
  (void)vfc, (void)vfoff, (void)vfidx, (void)vlatched, (void)vtoggles;
  abort();
}
#endif

/* bytecode entry: more than five arguments arrive as an array */
CAMLprim value hlp_kernel_settle_wide_byte(value *argv, int argn)
{
  (void)argn;
  return hlp_kernel_settle_wide(argv[0], argv[1], argv[2], argv[3],
                                argv[4], argv[5], argv[6], argv[7],
                                argv[8], argv[9], argv[10]);
}

/* The lane gather of a counted step with lanes tracked.

   [Kernel.gather_deltas old nw order caps deltas dcaps] walks the nodes
   in accounting order [order] (a permutation of the node ids, proven at
   compile time) and writes each non-zero delta word old[i] xor nw[i],
   with its capacitance caps[k] (already in accounting order), densely to
   deltas[0..m) and dcaps[0..m); it returns m, ready for
   [accumulate_lanes] over m entries. Dropping the zero deltas drops only
   +0.0 terms from lane sums that start at +0.0 and add only finite
   non-negative caps, so the sums keep their exact bits. The tag bits
   cancel in the xor and the stored word is re-tagged. Allocates nothing,
   never calls back into the runtime. */
CAMLprim value hlp_kernel_gather_deltas(value vold, value vnw, value vorder,
                                        value vcaps, value vdeltas,
                                        value vdcaps)
{
  const value *old = Op_val(vold), *nw = Op_val(vnw), *order = Op_val(vorder);
  const double *caps = (const double *)vcaps;
  value *deltas = Op_val(vdeltas);
  double *dcaps = (double *)vdcaps;
  long n = (long)Wosize_val(vorder), m = 0;
  for (long k = 0; k < n; k++) {
    long i = Long_val(order[k]);
    uintnat d = (uintnat)old[i] ^ (uintnat)nw[i];
    deltas[m] = (value)(d | 1);
    dcaps[m] = caps[k];
    m += d != 0;
  }
  return Val_long(m);
}

/* bytecode entry: more than five arguments arrive as an array */
CAMLprim value hlp_kernel_gather_deltas_byte(value *argv, int argn)
{
  (void)argn;
  return hlp_kernel_gather_deltas(argv[0], argv[1], argv[2], argv[3],
                                  argv[4], argv[5]);
}
