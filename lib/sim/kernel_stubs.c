/* The compiled replay kernel's step in C: the settle, which counts
   toggles as it writes each node, the lane gather, and the lane-major
   charge accumulation.

   [Kernel.settle] and [Kernel.gather_deltas] are documented at their
   definitions below. [Kernel.accumulate_lanes ls deltas caps n] folds
   node [k]'s capacitance [caps[k]] into every lane accumulator [ls[l]]
   whose bit is set in the delta word [deltas[k]], for k = 0 .. n-1 in
   order. The contract that
   makes this a C primitive worth having (see kernel.ml): each lane's
   accumulator is a chronologically ordered IEEE-754 double sum, so the
   adds cannot be reassociated — but the 63 lanes are independent chains
   that can run interleaved, with the accumulators held in registers for
   the whole sweep. OCaml (without flambda) spills float loop carries to
   memory, which makes the scatter walk and this loop equally
   memory-bound; in C the sweep is float-throughput-bound instead.

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

   The AVX2 path is runtime-dispatched (__builtin_cpu_supports), so the
   library builds and runs on any x86-64 without special flags; other
   architectures and non-GNU compilers take the portable scalar path.
   Packed vaddpd is per-lane IEEE double addition, so the SIMD path
   computes the same bits as the scalar one. */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#define LANES 63 /* Bitsim.lanes: one OCaml int of payload per node */

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

static void scalar_accumulate(double *ls, value *deltas, double *caps, long n)
{
  long t = 0;
  while (t < LANES) {
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
      t += 8;
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
      t += 7;
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

/* 63 lanes = three 16-lane sweeps + one 12-lane sweep + 3 scalar lanes.
   Per node and ymm group: broadcast the delta word, AND with the group's
   bit masks, compare-equal to build an all-ones/zero lane mask, AND with
   the broadcast capacitance, packed add. Four accumulator registers per
   sweep hide the 4-cycle add latency. */
__attribute__((target("avx2"))) static void
avx2_accumulate(double *ls, value *deltas, double *caps, long n)
{
  for (long t = 0; t + 16 <= LANES; t += 16) {
    __m256d a0 = _mm256_loadu_pd(ls + t);
    __m256d a1 = _mm256_loadu_pd(ls + t + 4);
    __m256d a2 = _mm256_loadu_pd(ls + t + 8);
    __m256d a3 = _mm256_loadu_pd(ls + t + 12);
    __m256i b0 = _mm256_set_epi64x(1L << (t + 3), 1L << (t + 2),
                                   1L << (t + 1), 1L << t);
    __m256i b1 = _mm256_slli_epi64(b0, 4);
    __m256i b2 = _mm256_slli_epi64(b0, 8);
    __m256i b3 = _mm256_slli_epi64(b0, 12);
    for (long k = 0; k < n; k++) {
      __m256i d = _mm256_set1_epi64x(Long_val(deltas[k]));
      __m256d c = _mm256_broadcast_sd(caps + k);
      __m256d m0 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b0), b0));
      __m256d m1 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b1), b1));
      __m256d m2 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b2), b2));
      __m256d m3 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b3), b3));
      a0 = _mm256_add_pd(a0, _mm256_and_pd(m0, c));
      a1 = _mm256_add_pd(a1, _mm256_and_pd(m1, c));
      a2 = _mm256_add_pd(a2, _mm256_and_pd(m2, c));
      a3 = _mm256_add_pd(a3, _mm256_and_pd(m3, c));
    }
    _mm256_storeu_pd(ls + t, a0);
    _mm256_storeu_pd(ls + t + 4, a1);
    _mm256_storeu_pd(ls + t + 8, a2);
    _mm256_storeu_pd(ls + t + 12, a3);
  }
  {
    const long t = 48;
    __m256d a0 = _mm256_loadu_pd(ls + t);
    __m256d a1 = _mm256_loadu_pd(ls + t + 4);
    __m256d a2 = _mm256_loadu_pd(ls + t + 8);
    __m256i b0 = _mm256_set_epi64x(1L << (t + 3), 1L << (t + 2),
                                   1L << (t + 1), 1L << t);
    __m256i b1 = _mm256_slli_epi64(b0, 4);
    __m256i b2 = _mm256_slli_epi64(b0, 8);
    for (long k = 0; k < n; k++) {
      __m256i d = _mm256_set1_epi64x(Long_val(deltas[k]));
      __m256d c = _mm256_broadcast_sd(caps + k);
      __m256d m0 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b0), b0));
      __m256d m1 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b1), b1));
      __m256d m2 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b2), b2));
      a0 = _mm256_add_pd(a0, _mm256_and_pd(m0, c));
      a1 = _mm256_add_pd(a1, _mm256_and_pd(m1, c));
      a2 = _mm256_add_pd(a2, _mm256_and_pd(m2, c));
    }
    _mm256_storeu_pd(ls + t, a0);
    _mm256_storeu_pd(ls + t + 4, a1);
    _mm256_storeu_pd(ls + t + 8, a2);
  }
  {
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
  }
}

CAMLprim value hlp_kernel_accumulate_lanes(value vls, value vdeltas,
                                           value vcaps, value vn)
{
  static int have_avx2 = -1;
  if (have_avx2 < 0) have_avx2 = __builtin_cpu_supports("avx2");
  if (have_avx2)
    avx2_accumulate((double *)vls, Op_val(vdeltas), (double *)vcaps,
                    Long_val(vn));
  else
    scalar_accumulate((double *)vls, Op_val(vdeltas), (double *)vcaps,
                      Long_val(vn));
  return Val_unit;
}
#else
CAMLprim value hlp_kernel_accumulate_lanes(value vls, value vdeltas,
                                           value vcaps, value vn)
{
  scalar_accumulate((double *)vls, Op_val(vdeltas), (double *)vcaps,
                    Long_val(vn));
  return Val_unit;
}
#endif

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

#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

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
