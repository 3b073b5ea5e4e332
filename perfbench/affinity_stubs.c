/* Thread CPU placement for the benchmark's rounds (see util.ml). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Pin thread [tid] to CPU [cpu]; false if the kernel refuses. */
value perfbench_pin_thread(value tid, value cpu)
{
  cpu_set_t set;
  if (Long_val(cpu) < 0 || Long_val(cpu) >= CPU_SETSIZE) return Val_false;
  CPU_ZERO(&set);
  CPU_SET(Long_val(cpu), &set);
  return Val_bool(sched_setaffinity(Long_val(tid), sizeof set, &set) == 0);
}
