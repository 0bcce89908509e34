// Sampling profiler that tools/layer_profile.py preloads into perfbench_sim.
//
//   LD_PRELOAD=layer_sampler.so LAYER_SAMPLER_OUT=PREFIX perfbench_sim ...
//
// Samples the process's own CPU time with setitimer(ITIMER_PROF) every
// millisecond, which the kernel rounds up to its tick (4 ms at 250 Hz).
// Each SIGPROF records the interrupted PC and the return addresses above
// it. At exit the samples go to PREFIX.stacks as native 64-bit words, one
// record per sample: [n, pc, ret_1, ..., ret_{n-1}], and a copy of
// /proc/self/maps goes to PREFIX.maps for symbolization. The simulator
// itself gains no code: everything here lives in the preloaded library.
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxDepth = 64, kWords = 1 << 22 };  // 32 MiB of samples

static uint64_t* g_words;
static size_t g_used;
static uint64_t g_dropped;
static const char* g_out;

static void OnProf(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  if (g_used + kMaxDepth + 4 > kWords) {
    ++g_dropped;
    return;
  }
  const uint64_t pc = (uint64_t)((ucontext_t*)uctx)->uc_mcontext.gregs[REG_RIP];
  void* frames[kMaxDepth + 3];
  const int n = backtrace(frames, kMaxDepth + 3);
  // frames[] starts in this handler and the signal trampoline; the
  // interrupted PC follows, then its callers' return addresses.
  int first = 0;
  while (first < n && (uint64_t)frames[first] != pc) ++first;
  uint64_t* rec = g_words + g_used;
  size_t len = 1;
  rec[len++] = pc;
  for (int i = first + 1; i < n && len <= kMaxDepth; ++i) {
    rec[len++] = (uint64_t)frames[i];
  }
  rec[0] = len - 1;
  g_used += len;
}

static void WriteFile(const char* suffix, const void* data, size_t bytes) {
  char path[4096];
  snprintf(path, sizeof path, "%s%s", g_out, suffix);
  FILE* f = fopen(path, "wb");
  if (f == NULL) return;
  fwrite(data, 1, bytes, f);
  fclose(f);
}

__attribute__((constructor)) static void Start(void) {
  g_out = getenv("LAYER_SAMPLER_OUT");
  if (g_out == NULL) return;
  g_words = mmap(NULL, kWords * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (g_words == MAP_FAILED) {
    g_out = NULL;
    return;
  }
  // The first backtrace() loads the unwinder; do it here, not in a handler.
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void Stop(void) {
  if (g_out == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  WriteFile(".stacks", g_words, g_used * sizeof(uint64_t));

  char maps[1 << 16];
  size_t bytes = 0;
  const int fd = open("/proc/self/maps", O_RDONLY);
  if (fd >= 0) {
    ssize_t r;
    while (bytes < sizeof maps &&
           (r = read(fd, maps + bytes, sizeof maps - bytes)) > 0) {
      bytes += (size_t)r;
    }
    close(fd);
  }
  WriteFile(".maps", maps, bytes);
  if (g_dropped > 0) {
    fprintf(stderr, "layer_sampler: buffer full, %llu samples dropped\n",
            (unsigned long long)g_dropped);
  }
}
