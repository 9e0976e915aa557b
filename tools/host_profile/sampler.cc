/**
 * @file
 * A CPU-time sampling profiler, loaded with LD_PRELOAD.
 *
 * A POSIX timer on CLOCK_PROCESS_CPUTIME_ID raises SIGPROF every
 * 250 microseconds of process CPU time (the kernel rounds that up to
 * its tick). The handler records the interrupted program counter and walks the frame
 * pointer chain of the main thread's stack, so the profiled binary
 * must be built with -fno-omit-frame-pointer (add -g for line-level
 * symbols). Frames that leave the stack's bounds end the walk, so a
 * library without frame pointers truncates a stack instead of
 * crashing it. The handler only writes into a buffer reserved at
 * start-up; at exit the samples and a copy of /proc/self/maps go to
 * HOST_PROFILE_OUT (default host_profile.<pid>.txt):
 *
 *     maps <line of /proc/self/maps>
 *     s <pc> <return address> <return address> ...   (hex, leaf first)
 *
 * tools/host_profile/resolve.py turns that file into per-function and
 * per-namespace tables. Usage:
 *
 *     HOST_PROFILE_OUT=prof.txt \
 *         LD_PRELOAD=build/tools/host_profile/libhost_profile.so \
 *         ./e2e_core --workload fig8-dram-3x3-ro --seed 1 ...
 *     python3 tools/host_profile/resolve.py prof.txt --under measureWindow
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

namespace {

constexpr std::size_t kMaxFrames = 64;
/** Sampling period, in nanoseconds of process CPU time. */
constexpr long kPeriodNs = 250'000;
/** Samples reserved (address space only; pages are touched as samples
 *  arrive): over 17 minutes of CPU time at a 4 ms kernel tick. */
constexpr std::size_t kMaxSamples = std::size_t{1} << 18;

struct Sample
{
    std::uintptr_t depth;
    std::uintptr_t frames[kMaxFrames];
};

Sample *samples = nullptr;
/** Handlers may run on several threads at once: each claims a slot. */
std::atomic<std::size_t> claimed{0};
std::atomic<std::size_t> dropped{0};
std::uintptr_t stackLo = 0;
std::uintptr_t stackHi = 0;
pid_t mainThread = 0;
timer_t timer;
bool running = false;

void
onSigprof(int, siginfo_t *, void *context)
{
    const std::size_t slot = claimed.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kMaxSamples) {
        dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const int savedErrno = errno;
    Sample &s = samples[slot];
    const auto *uc = static_cast<const ucontext_t *>(context);
#if defined(__x86_64__)
    s.frames[0] =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
    s.frames[0] = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
    auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
#error "host_profile supports x86-64 and AArch64"
#endif
    std::size_t depth = 1;
    // Other threads' stacks are not bounded here: record their leaf.
    const bool walk =
        static_cast<pid_t>(syscall(SYS_gettid)) == mainThread;
    while (walk && depth < kMaxFrames && fp >= stackLo &&
           fp + 2 * sizeof(std::uintptr_t) <= stackHi &&
           fp % sizeof(std::uintptr_t) == 0) {
        const auto *frame = reinterpret_cast<const std::uintptr_t *>(fp);
        const std::uintptr_t ret = frame[1];
        if (ret == 0)
            break;
        s.frames[depth++] = ret;
        if (frame[0] <= fp) // the chain must climb the stack
            break;
        fp = frame[0];
    }
    s.depth = depth;
    errno = savedErrno;
}

void
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = write(fd, data, len);
        if (n <= 0)
            return;
        data += n;
        len -= static_cast<std::size_t>(n);
    }
}

__attribute__((destructor)) void
stopAndDump()
{
    if (!running)
        return;
    running = false;
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);

    const char *out = std::getenv("HOST_PROFILE_OUT");
    char path[256];
    if (out == nullptr) {
        std::snprintf(path, sizeof(path), "host_profile.%d.txt",
                      static_cast<int>(getpid()));
        out = path;
    }
    FILE *f = std::fopen(out, "w");
    if (f == nullptr) {
        std::perror("host_profile: cannot write profile");
        return;
    }
    if (FILE *maps = std::fopen("/proc/self/maps", "r")) {
        char line[4096];
        while (std::fgets(line, sizeof(line), maps) != nullptr)
            std::fprintf(f, "maps %s", line);
        std::fclose(maps);
    }
    const std::size_t count = std::min(claimed.load(), kMaxSamples);
    for (std::size_t i = 0; i < count; ++i) {
        std::fputc('s', f);
        for (std::size_t d = 0; d < samples[i].depth; ++d)
            std::fprintf(f, " %zx",
                         static_cast<std::size_t>(samples[i].frames[d]));
        std::fputc('\n', f);
    }
    std::fclose(f);
    char note[160];
    const int len = std::snprintf(
        note, sizeof(note),
        "host_profile: %zu samples (%zu dropped) -> %s\n",
        count, dropped.load(), out);
    writeAll(STDERR_FILENO, note, static_cast<std::size_t>(len));
}

__attribute__((constructor)) void
start()
{
    void *mem = mmap(nullptr, kMaxSamples * sizeof(Sample),
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED)
        return;
    samples = static_cast<Sample *>(mem);

    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    void *base = nullptr;
    std::size_t size = 0;
    pthread_attr_getstack(&attr, &base, &size);
    pthread_attr_destroy(&attr);
    stackLo = reinterpret_cast<std::uintptr_t>(base);
    stackHi = stackLo + size;
    mainThread = static_cast<pid_t>(syscall(SYS_gettid));

    struct sigaction sa = {};
    sa.sa_sigaction = onSigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        return;

    struct sigevent sev = {};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &timer) != 0)
        return;
    struct itimerspec spec = {};
    spec.it_interval.tv_nsec = kPeriodNs;
    spec.it_value = spec.it_interval;
    if (timer_settime(timer, 0, &spec, nullptr) != 0) {
        timer_delete(timer);
        return;
    }
    running = true;
}

} // namespace
