/* Program-counter sampler for host-time profiles, loaded with LD_PRELOAD:
 *   cc -shared -fPIC -O2 -o pcprof.so scripts/pcprof.c -ldl
 *   PCPROF_OUT=samples.txt LD_PRELOAD=./pcprof.so prog args...
 * A CPU-time timer (ITIMER_PROF, 1 kHz) raises SIGPROF; the handler stores
 * the interrupted instruction pointer.  At exit each sample is written as
 * one line: a 16-digit hex offset into the main executable (for `nm -n`),
 * or "= symbol(library)" for code in a shared library.  Unlike a sampler
 * inside the OCaml runtime, the interrupted PC is exact, not the next
 * safepoint.  x86-64 and AArch64 Linux. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static uintptr_t samples[MAX_SAMPLES];
static volatile size_t nsamples;

static void on_prof(int sig, siginfo_t *si, void *uc_) {
  ucontext_t *uc = uc_;
  (void)sig; (void)si;
#if defined(__x86_64__)
  uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
#else
  uintptr_t pc = uc->uc_mcontext.pc;
#endif
  if (nsamples < MAX_SAMPLES) samples[nsamples++] = pc;
}

/* Load bias and loaded address range of the program, the first object. */
static uintptr_t bias, lo = UINTPTR_MAX, hi;

static int find_program(struct dl_phdr_info *info, size_t sz, void *unused) {
  (void)sz; (void)unused;
  bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; i++)
    if (info->dlpi_phdr[i].p_type == PT_LOAD) {
      uintptr_t a = bias + info->dlpi_phdr[i].p_vaddr;
      if (a < lo) lo = a;
      if (a + info->dlpi_phdr[i].p_memsz > hi) hi = a + info->dlpi_phdr[i].p_memsz;
    }
  return 1;
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *path = getenv("PCPROF_OUT");
  FILE *f = path ? fopen(path, "w") : NULL;
  if (!f) {
    fprintf(stderr, "pcprof: set PCPROF_OUT to a writable file\n");
    return;
  }
  dl_iterate_phdr(find_program, NULL);
  for (size_t i = 0; i < nsamples; i++) {
    uintptr_t pc = samples[i];
    Dl_info d;
    if (pc >= lo && pc < hi)
      fprintf(f, "%016lx\n", (unsigned long)(pc - bias));
    else if (dladdr((void *)pc, &d) && d.dli_fname) {
      const char *lib = strrchr(d.dli_fname, '/');
      fprintf(f, "= %s(%s)\n", d.dli_sname ? d.dli_sname : "?",
              lib ? lib + 1 : d.dli_fname);
    } else
      fprintf(f, "= ?(?)\n");
  }
  fclose(f);
}
