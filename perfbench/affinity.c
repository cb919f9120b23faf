/* CPU placement of the calling thread. Threads and domains spawned
   afterwards inherit it. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

static cpu_set_t allowed;
static int have_allowed = 0;

static void remember_allowed(void)
{
  if (!have_allowed) {
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
      caml_failwith("sched_getaffinity");
    have_allowed = 1;
  }
}

/* The highest-numbered CPU the process was allowed at start. */
value perfbench_last_cpu(value unit)
{
  (void)unit;
  remember_allowed();
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--)
    if (CPU_ISSET(cpu, &allowed)) return Val_int(cpu);
  caml_failwith("no CPU allowed");
}

/* Pin the calling thread to [cpu]; a negative [cpu] restores every CPU
   the process was allowed at start. */
value perfbench_pin(value cpu)
{
  cpu_set_t set;
  remember_allowed();
  if (Int_val(cpu) < 0) set = allowed;
  else {
    CPU_ZERO(&set);
    CPU_SET(Int_val(cpu), &set);
  }
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_setaffinity");
  return Val_unit;
}
