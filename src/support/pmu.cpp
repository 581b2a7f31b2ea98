#include "support/pmu.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace slambench::support::pmu {

const char *
counterName(CounterId id)
{
    switch (id) {
      case CounterId::Cycles: return "cycles";
      case CounterId::Instructions: return "instructions";
      case CounterId::LlcLoads: return "llc_loads";
      case CounterId::LlcMisses: return "llc_misses";
      case CounterId::Branches: return "branches";
      case CounterId::BranchMisses: return "branch_misses";
      case CounterId::TaskClockNs: return "task_clock_ns";
      case CounterId::Count: break;
    }
    return "unknown";
}

Sample
sampleDelta(const Sample &end, const Sample &begin)
{
    Sample out;
    out.validMask = end.validMask & begin.validMask;
    for (size_t i = 0; i < kNumCounters; ++i)
        if (out.validMask & (1u << i))
            out.value[i] = end.value[i] - begin.value[i];
    return out;
}

void
sampleAccumulate(Sample &into, const Sample &other)
{
    for (size_t i = 0; i < kNumCounters; ++i)
        if (other.validMask & (1u << i))
            into.value[i] += other.value[i];
    into.validMask |= other.validMask;
}

Sample
sampleExclusive(const Sample &total, const Sample &children)
{
    Sample out = total;
    for (size_t i = 0; i < kNumCounters; ++i)
        if ((total.validMask & children.validMask) & (1u << i))
            out.value[i] =
                std::max(0.0, total.value[i] - children.value[i]);
    return out;
}

double
scaledCounterValue(uint64_t raw, uint64_t time_enabled,
                   uint64_t time_running)
{
    if (time_running == 0)
        return 0.0;
    if (time_running >= time_enabled)
        return static_cast<double>(raw);
    return static_cast<double>(raw) *
           (static_cast<double>(time_enabled) /
            static_cast<double>(time_running));
}

DerivedMetrics
deriveMetrics(const Sample &totals, double bytes)
{
    DerivedMetrics out;
    const double cycles = totals.get(CounterId::Cycles);
    const double instructions = totals.get(CounterId::Instructions);
    if (totals.valid(CounterId::Cycles) &&
        totals.valid(CounterId::Instructions) && cycles > 0.0) {
        out.ipc = instructions / cycles;
        out.hasIpc = true;
    }
    const double llc_loads = totals.get(CounterId::LlcLoads);
    if (totals.valid(CounterId::LlcLoads) &&
        totals.valid(CounterId::LlcMisses) && llc_loads > 0.0) {
        out.llcMissRate =
            totals.get(CounterId::LlcMisses) / llc_loads;
        out.hasLlcMissRate = true;
    }
    const double branches = totals.get(CounterId::Branches);
    if (totals.valid(CounterId::Branches) &&
        totals.valid(CounterId::BranchMisses) && branches > 0.0) {
        out.branchMissRate =
            totals.get(CounterId::BranchMisses) / branches;
        out.hasBranchMissRate = true;
    }
    if (totals.valid(CounterId::TaskClockNs)) {
        out.taskClockSeconds =
            totals.get(CounterId::TaskClockNs) * 1e-9;
        out.hasTaskClock = true;
        if (bytes > 0.0 && out.taskClockSeconds > 0.0) {
            out.bytesPerSecond = bytes / out.taskClockSeconds;
            out.hasBytesPerSecond = true;
        }
    }
    return out;
}

// --- backends --------------------------------------------------------

namespace {

/** The no-counter backend: reports stay schema-stable, reads fail. */
class NullBackend final : public CounterBackend
{
  public:
    const char *name() const override { return "null"; }
    uint32_t availableMask() const override { return 0; }

    std::unique_ptr<ThreadCounters>
    openThreadCounters() override
    {
        return nullptr;
    }
};

#ifdef __linux__

/** (type, config) pair for one CounterId's perf event attr. */
struct PerfEventSpec
{
    uint32_t type;
    uint64_t config;
};

PerfEventSpec
perfEventSpec(CounterId id)
{
    switch (id) {
      case CounterId::Cycles:
        return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES};
      case CounterId::Instructions:
        return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS};
      case CounterId::LlcLoads:
        return {PERF_TYPE_HW_CACHE,
                PERF_COUNT_HW_CACHE_LL |
                    (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                    (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16)};
      case CounterId::LlcMisses:
        return {PERF_TYPE_HW_CACHE,
                PERF_COUNT_HW_CACHE_LL |
                    (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                    (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)};
      case CounterId::Branches:
        return {PERF_TYPE_HARDWARE,
                PERF_COUNT_HW_BRANCH_INSTRUCTIONS};
      case CounterId::BranchMisses:
        return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES};
      case CounterId::TaskClockNs:
      case CounterId::Count: break;
    }
    return {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK};
}

int
perfEventOpen(perf_event_attr *attr, pid_t pid, int cpu,
              int group_fd, unsigned long flags)
{
    return static_cast<int>(
        ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd,
                  flags));
}

/**
 * Open one calling-thread, any-CPU counter for @p id, joined to
 * @p group_fd (-1 = become leader). @return the fd or -1.
 */
int
openCounterFd(CounterId id, int group_fd)
{
    const PerfEventSpec spec = perfEventSpec(id);
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = spec.type;
    attr.config = spec.config;
    attr.disabled = group_fd == -1 ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.inherit = 0;
    attr.read_format = PERF_FORMAT_GROUP |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    return perfEventOpen(&attr, 0, -1, group_fd, 0);
}

/**
 * One thread's perf counter group: a single group read() returns
 * every member atomically, and the enabled/running times expose
 * kernel multiplexing so values can be rescaled.
 */
class PerfThreadCounters final : public ThreadCounters
{
  public:
    /** @param mask counters the startup probe found openable. */
    explicit PerfThreadCounters(uint32_t mask)
    {
        fds_.fill(-1);
        int leader = -1;
        for (size_t i = 0; i < kNumCounters; ++i) {
            if (!(mask & (1u << i)))
                continue;
            const int fd =
                openCounterFd(static_cast<CounterId>(i), leader);
            if (fd < 0)
                continue;
            fds_[i] = fd;
            if (leader == -1)
                leader = fd;
            // Slot order in the group read buffer is open order.
            slots_.push_back(i);
        }
        leaderFd_ = leader;
        if (leader != -1) {
            ::ioctl(leader, PERF_EVENT_IOC_RESET,
                    PERF_IOC_FLAG_GROUP);
            ::ioctl(leader, PERF_EVENT_IOC_ENABLE,
                    PERF_IOC_FLAG_GROUP);
        }
    }

    ~PerfThreadCounters() override
    {
        for (const int fd : fds_)
            if (fd >= 0)
                ::close(fd);
    }

    bool
    read(Sample &out) override
    {
        out = Sample{};
        if (leaderFd_ < 0)
            return false;
        // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
        // then one value per member in open order.
        uint64_t buf[3 + kNumCounters];
        const ssize_t want = static_cast<ssize_t>(
            (3 + slots_.size()) * sizeof(uint64_t));
        const ssize_t got = ::read(leaderFd_, buf, sizeof(buf));
        if (got < want)
            return false;
        const uint64_t nr = buf[0];
        const uint64_t enabled = buf[1];
        const uint64_t running = buf[2];
        for (size_t s = 0; s < slots_.size() && s < nr; ++s)
            out.set(static_cast<CounterId>(slots_[s]),
                    scaledCounterValue(buf[3 + s], enabled,
                                       running));
        return out.validMask != 0;
    }

    /** @return counters actually opened on this thread. */
    uint32_t
    openedMask() const
    {
        uint32_t mask = 0;
        for (const size_t i : slots_)
            mask |= 1u << i;
        return mask;
    }

  private:
    std::array<int, kNumCounters> fds_;
    std::vector<size_t> slots_;
    int leaderFd_ = -1;
};

/** perf_event_open backend with the probe-time availability mask. */
class PerfBackend final : public CounterBackend
{
  public:
    explicit PerfBackend(uint32_t mask) : mask_(mask) {}

    const char *name() const override { return "perf"; }
    uint32_t availableMask() const override { return mask_; }

    std::unique_ptr<ThreadCounters>
    openThreadCounters() override
    {
        auto counters = std::make_unique<PerfThreadCounters>(mask_);
        if (counters->openedMask() == 0)
            return nullptr;
        return counters;
    }

  private:
    uint32_t mask_;
};

/**
 * Probe which counters this host will open for the calling thread.
 * Runs once per detectBackend(); fds are closed immediately.
 */
uint32_t
probeAvailableCounters()
{
    uint32_t mask = 0;
    for (size_t i = 0; i < kNumCounters; ++i) {
        const int fd =
            openCounterFd(static_cast<CounterId>(i), -1);
        if (fd >= 0) {
            mask |= 1u << i;
            ::close(fd);
        }
    }
    return mask;
}

#endif // __linux__

/** Names of the counters present in @p mask, comma-joined. */
std::string
maskNames(uint32_t mask)
{
    std::string out;
    for (size_t i = 0; i < kNumCounters; ++i) {
        if (!(mask & (1u << i)))
            continue;
        if (!out.empty())
            out += ",";
        out += counterName(static_cast<CounterId>(i));
    }
    return out.empty() ? "none" : out;
}

} // namespace

CounterBackend &
nullBackend()
{
    static NullBackend backend;
    return backend;
}

CounterBackend &
detectBackend()
{
    // Probe once; the WARN contract is "one line per process", so
    // the result (and the log line) is latched.
    static CounterBackend *detected = [] () -> CounterBackend * {
        if (std::getenv("SLAMBENCH_PMU_DISABLE")) {
            logWarn() << "pmu: disabled by SLAMBENCH_PMU_DISABLE; "
                         "running with the null backend "
                         "(reports stay schema-stable, no counters)";
            return &nullBackend();
        }
#ifdef __linux__
        const uint32_t mask = probeAvailableCounters();
        if (mask == 0) {
            logWarn() << "pmu: perf_event_open unavailable "
                         "(container restriction or "
                         "kernel.perf_event_paranoid too high); "
                         "running with the null backend "
                         "(reports stay schema-stable, no counters)";
            return &nullBackend();
        }
        static PerfBackend backend(mask);
        constexpr uint32_t hw_mask =
            counterBit(CounterId::Cycles) |
            counterBit(CounterId::Instructions) |
            counterBit(CounterId::LlcLoads) |
            counterBit(CounterId::LlcMisses) |
            counterBit(CounterId::Branches) |
            counterBit(CounterId::BranchMisses);
        if ((mask & hw_mask) != hw_mask)
            logWarn() << "pmu: some hardware counters are "
                         "unavailable on this host (no PMU in the "
                         "VM, or a restricted event set); "
                         "profiling with: " << maskNames(mask);
        return &backend;
#else
        logWarn() << "pmu: perf_event_open requires Linux; running "
                     "with the null backend (reports stay "
                     "schema-stable, no counters)";
        return &nullBackend();
#endif
    }();
    return *detected;
}

// --- profiler --------------------------------------------------------

namespace {

/** Accumulated per-name totals (the shared table's value type). */
struct Totals
{
    uint64_t spans = 0;
    Sample sum;
    double bytes = 0.0;
};

/**
 * Per-thread counter group. It reopens when the profiler generation
 * moves past the one it was opened under (start() after stop(),
 * possibly with a different backend).
 */
struct ThreadState
{
    uint64_t generation = 0;
    std::unique_ptr<ThreadCounters> counters;
};

thread_local ThreadState t_state;

/** The profiler's shared state. */
struct ProfilerState
{
    mutable std::mutex mutex;
    std::map<std::string, Totals> totals;
    CounterBackend *backend = nullptr;
    /** Bumped by start(); stale ThreadStates reopen lazily. */
    std::atomic<uint64_t> generation{0};

    /** This thread's state, (re)opening its counter group. */
    ThreadState &
    localState()
    {
        ThreadState &state = t_state;
        const uint64_t current =
            generation.load(std::memory_order_acquire);
        if (state.generation != current) {
            state.generation = current;
            state.counters.reset();
            CounterBackend *be;
            {
                std::lock_guard<std::mutex> lock(mutex);
                be = backend;
            }
            if (be)
                state.counters = be->openThreadCounters();
        }
        return state;
    }

    void
    readNow(ThreadState &state, Sample &out)
    {
        if (!state.counters || !state.counters->read(out))
            out = Sample{};
    }
};

ProfilerState &
profilerState()
{
    static ProfilerState state;
    return state;
}

} // namespace

bool
enabled()
{
    return (trace::armedSinks() & trace::kPmuSink) != 0;
}

namespace detail {

void
openSpan(SpanCounters &span)
{
    ProfilerState &state = profilerState();
    ThreadState &local = state.localState();
    span.generation = local.generation;
    span.childSum = Sample{};
    state.readNow(local, span.begin);
}

void
closeSpan(const char *name, const SpanCounters &span,
          SpanCounters *parent)
{
    ProfilerState &state = profilerState();
    ThreadState &local = state.localState();
    if (span.generation != local.generation)
        return;
    Sample now;
    state.readNow(local, now);
    const Sample delta = sampleDelta(now, span.begin);
    const Sample self = sampleExclusive(delta, span.childSum);
    if (parent)
        sampleAccumulate(parent->childSum, delta);
    std::lock_guard<std::mutex> lock(state.mutex);
    Totals &slot = state.totals[name];
    slot.spans += 1;
    sampleAccumulate(slot.sum, self);
}

} // namespace detail

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

void
Profiler::start(CounterBackend &backend)
{
    ProfilerState &state = profilerState();
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.totals.clear();
        state.backend = &backend;
    }
    state.generation.fetch_add(1, std::memory_order_acq_rel);
    trace::detail::armSink(trace::kPmuSink, true);
}

void
Profiler::stop()
{
    trace::detail::armSink(trace::kPmuSink, false);
}

CounterBackend *
Profiler::backend() const
{
    ProfilerState &state = profilerState();
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.backend;
}

bool
Profiler::readThreadSample(Sample &out)
{
    out = Sample{};
    if (!enabled())
        return false;
    ProfilerState &state = profilerState();
    ThreadState &local = state.localState();
    state.readNow(local, out);
    return out.validMask != 0;
}

void
Profiler::addSpanBytes(const std::string &name, double bytes)
{
    if (bytes <= 0.0)
        return;
    ProfilerState &state = profilerState();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.totals[name].bytes += bytes;
}

std::vector<SpanStats>
Profiler::spanStats() const
{
    ProfilerState &state = profilerState();
    std::lock_guard<std::mutex> lock(state.mutex);
    std::vector<SpanStats> out;
    out.reserve(state.totals.size());
    for (const auto &[name, totals] : state.totals) {
        SpanStats stats;
        stats.name = name;
        stats.spans = totals.spans;
        stats.totals = totals.sum;
        stats.bytes = totals.bytes;
        out.push_back(std::move(stats));
    }
    return out;
}

void
Profiler::clear()
{
    ProfilerState &state = profilerState();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.totals.clear();
}

// --- session + registry publication ---------------------------------

namespace {

/** Whether a session armed profiling this process (report gate). */
std::atomic<bool> g_profiling_active{false};

} // namespace

bool
profilingActive()
{
    return g_profiling_active.load(std::memory_order_relaxed);
}

void
publishGauges()
{
    if (!profilingActive())
        return;
    auto &registry = metrics::Registry::instance();
    for (const SpanStats &stats : Profiler::instance().spanStats()) {
        const std::string prefix = "pmu." + stats.name + ".";
        registry.gauge(prefix + "spans")
            .set(static_cast<double>(stats.spans));
        const DerivedMetrics derived =
            deriveMetrics(stats.totals, stats.bytes);
        if (stats.totals.valid(CounterId::Cycles))
            registry.gauge(prefix + "cycles")
                .set(stats.totals.get(CounterId::Cycles));
        if (stats.totals.valid(CounterId::Instructions))
            registry.gauge(prefix + "instructions")
                .set(stats.totals.get(CounterId::Instructions));
        if (derived.hasIpc)
            registry.gauge(prefix + "ipc").set(derived.ipc);
        if (derived.hasLlcMissRate)
            registry.gauge(prefix + "llc_miss_rate")
                .set(derived.llcMissRate);
        if (derived.hasBranchMissRate)
            registry.gauge(prefix + "branch_miss_rate")
                .set(derived.branchMissRate);
        if (derived.hasTaskClock)
            registry.gauge(prefix + "task_clock_seconds")
                .set(derived.taskClockSeconds);
        if (derived.hasBytesPerSecond)
            registry.gauge(prefix + "bytes_per_second")
                .set(derived.bytesPerSecond);
    }
}

void
startSession()
{
    CounterBackend &backend = detectBackend();
    Profiler::instance().start(backend);
    g_profiling_active.store(true, std::memory_order_relaxed);
    logInfo() << "pmu: profiling armed (backend " << backend.name()
              << ", counters: "
              << maskNames(backend.availableMask()) << ")";
}

void
finishSession()
{
    Profiler &profiler = Profiler::instance();
    profiler.stop();
    publishGauges();
    for (const SpanStats &stats : profiler.spanStats()) {
        const DerivedMetrics derived =
            deriveMetrics(stats.totals, stats.bytes);
        std::string line = format("pmu: %-16s %6llu spans",
                                  stats.name.c_str(),
                                  static_cast<unsigned long long>(
                                      stats.spans));
        if (derived.hasIpc)
            line += format(", IPC %.2f", derived.ipc);
        if (derived.hasLlcMissRate)
            line += format(", LLC miss %.1f%%",
                           derived.llcMissRate * 100.0);
        if (derived.hasBranchMissRate)
            line += format(", branch miss %.2f%%",
                           derived.branchMissRate * 100.0);
        if (derived.hasTaskClock)
            line += format(", task-clock %.3f s",
                           derived.taskClockSeconds);
        if (derived.hasBytesPerSecond)
            line += format(", %.2f GB/s",
                           derived.bytesPerSecond * 1e-9);
        logInfo() << line;
    }
    // Keep profilingActive() true: the run report is usually written
    // after the session ends and must still see the pmu block.
}

} // namespace slambench::support::pmu
