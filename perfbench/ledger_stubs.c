/* Clocks for the ledger.

   Durations use CLOCK_MONOTONIC directly. The telemetry clock calibrates
   the TSC against it over a 2 ms window at start-up; a preemption inside
   that window skews its scale, which on a busy virtual machine inflated
   every duration of a run many times over.

   CPU time is the process's, all threads, from CLOCK_PROCESS_CPUTIME_ID
   (nanosecond resolution; times(2) counts 10 ms ticks). */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static double seconds_of(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

double ledger_monotonic_s(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_MONOTONIC);
}

value ledger_monotonic_s_byte(value unit)
{
  return caml_copy_double(ledger_monotonic_s(unit));
}

double ledger_process_cpu_s(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_PROCESS_CPUTIME_ID);
}

value ledger_process_cpu_s_byte(value unit)
{
  return caml_copy_double(ledger_process_cpu_s(unit));
}
