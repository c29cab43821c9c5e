/* Program-counter sampler for host-time profiles, loaded with LD_PRELOAD:
 *   cc -shared -fPIC -O2 -o pcprof.so scripts/pcprof.c -ldl
 *   PCPROF_OUT=samples.txt LD_PRELOAD=./pcprof.so prog args...
 * A user-CPU-time timer (ITIMER_VIRTUAL, 1 kHz) raises SIGVTALRM; the
 * handler stores the interrupted instruction pointer.  User time is the
 * clock the benchmark's host_ns_per_op reads (tms_utime), so kernel time
 * spent on the process's behalf is not sampled.  At exit each sample is
 * written as one line: a 16-digit hex offset into the main executable
 * (for `nm -n`), or "= symbol(library)" for code in a shared library.
 * Samples in a library's unexported code (glibc's IFUNC-selected string
 * routines, malloc internals) get no name from dladdr; they are labelled
 * "~entry" after the nearest entry point, before or after them, among
 * memcpy, memmove, memset, malloc and free (addresses from dlsym, which
 * resolves an IFUNC to the implementation it selected), within 64 KiB,
 * and otherwise by their raw offset into the library.  Unlike a sampler inside the OCaml
 * runtime, the interrupted PC is exact, not the next safepoint.  x86-64
 * and AArch64 Linux. */
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

/* Entry points that label unnamed library samples. */
static const char *const entry_names[] = {"memcpy", "memmove", "memset",
                                          "malloc", "free"};
#define NENTRIES (sizeof entry_names / sizeof entry_names[0])
#define ENTRY_REACH 0x10000
static uintptr_t entry_addr[NENTRIES];

static const char *nearest_entry(uintptr_t pc) {
  const char *best = NULL;
  uintptr_t best_dist = ENTRY_REACH;
  for (size_t i = 0; i < NENTRIES; i++) {
    uintptr_t a = entry_addr[i], dist = a <= pc ? pc - a : a - pc;
    if (a && dist < best_dist) {
      best = entry_names[i];
      best_dist = dist;
    }
  }
  return best;
}

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
  sigaction(SIGVTALRM, &sa, NULL);
  struct itimerval it = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_VIRTUAL, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_VIRTUAL, &off, NULL);
  const char *path = getenv("PCPROF_OUT");
  FILE *f = path ? fopen(path, "w") : NULL;
  if (!f) {
    fprintf(stderr, "pcprof: set PCPROF_OUT to a writable file\n");
    return;
  }
  dl_iterate_phdr(find_program, NULL);
  for (size_t i = 0; i < NENTRIES; i++)
    entry_addr[i] = (uintptr_t)dlsym(RTLD_DEFAULT, entry_names[i]);
  for (size_t i = 0; i < nsamples; i++) {
    uintptr_t pc = samples[i];
    Dl_info d;
    if (pc >= lo && pc < hi)
      fprintf(f, "%016lx\n", (unsigned long)(pc - bias));
    else if (dladdr((void *)pc, &d) && d.dli_fname) {
      const char *lib = strrchr(d.dli_fname, '/');
      const char *entry = d.dli_sname ? NULL : nearest_entry(pc);
      lib = lib ? lib + 1 : d.dli_fname;
      if (d.dli_sname)
        fprintf(f, "= %s(%s)\n", d.dli_sname, lib);
      else if (entry)
        fprintf(f, "= ~%s(%s)\n", entry, lib);
      else
        fprintf(f, "= +0x%lx(%s)\n",
                (unsigned long)(pc - (uintptr_t)d.dli_fbase), lib);
    } else
      fprintf(f, "= ?(?)\n");
  }
  fclose(f);
}
