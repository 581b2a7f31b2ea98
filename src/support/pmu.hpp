#ifndef SLAMBENCH_SUPPORT_PMU_HPP
#define SLAMBENCH_SUPPORT_PMU_HPP

/**
 * @file
 * Hardware performance-counter profiling: per-span cycles, IPC, and
 * cache/branch miss attribution on top of `perf_event_open`.
 *
 * Wall-clock tracing (`support/trace.hpp`) answers *where* a frame's
 * time went; this layer answers *why* a kernel is slow — low IPC
 * (port pressure, dependency chains), LLC misses (bandwidth bound),
 * or branch mispredicts — by sampling a grouped counter set at every
 * Category::Kernel / Category::Worker span boundary and aggregating
 * exclusive (self-time) totals per span name across all threads,
 * thread-pool worker chunks included. The profiler is one of the
 * three sinks of `trace::ScopedSpan`: it keeps no span stack of its
 * own, only the counter samples each open span carries on the shared
 * per-thread stack (SpanCounters). The derived per-kernel metrics
 * (IPC, LLC miss rate, branch miss rate, measured bytes/s) land in
 * the run report's `pmu` block, in `pmu.*` registry gauges, and in
 * per-backend `pmu` blocks of `BENCH_kernels.json` (see
 * docs/OBSERVABILITY.md "Hardware counters").
 *
 * Graceful degradation is part of the contract: the backend is
 * probed once per arm (per-counter — a VM that vetoes hardware PMU
 * events can still deliver software task-clock), a single WARN is
 * logged when anything is missing, and a null backend keeps every
 * report schema-stable. When `--pmu` is absent the layer costs
 * nothing beyond the span gate's one relaxed load.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace slambench::support::pmu {

/** The grouped counter set sampled at span boundaries. */
enum class CounterId : size_t {
    Cycles = 0,   ///< PERF_COUNT_HW_CPU_CYCLES.
    Instructions, ///< PERF_COUNT_HW_INSTRUCTIONS.
    LlcLoads,     ///< LLC read accesses (cache event).
    LlcMisses,    ///< LLC read misses (cache event).
    Branches,     ///< PERF_COUNT_HW_BRANCH_INSTRUCTIONS.
    BranchMisses, ///< PERF_COUNT_HW_BRANCH_MISSES.
    TaskClockNs,  ///< PERF_COUNT_SW_TASK_CLOCK (software; ns).
    Count,
};

/** Number of counters in the set. */
constexpr size_t kNumCounters = static_cast<size_t>(CounterId::Count);

/** @return the stable snake_case name of @p id ("cycles", ...). */
const char *counterName(CounterId id);

/** @return the bit marking @p id valid in Sample::validMask. */
constexpr uint32_t
counterBit(CounterId id)
{
    return 1u << static_cast<uint32_t>(id);
}

/**
 * One multi-counter reading. Values accumulate monotonically per
 * thread (deltas between two samples measure an interval); a counter
 * whose bit is clear in validMask could not be opened or read and
 * its value slot is meaningless.
 */
struct Sample
{
    std::array<double, kNumCounters> value{};
    uint32_t validMask = 0;

    /** @return whether counter @p id carries a meaningful value. */
    bool
    valid(CounterId id) const
    {
        return (validMask & counterBit(id)) != 0;
    }

    /** @return the value of counter @p id (0 when invalid). */
    double
    get(CounterId id) const
    {
        return valid(id) ? value[static_cast<size_t>(id)] : 0.0;
    }

    /** Set counter @p id and mark it valid. */
    void
    set(CounterId id, double v)
    {
        value[static_cast<size_t>(id)] = v;
        validMask |= counterBit(id);
    }
};

/**
 * @return @p end - @p begin per counter; the result is valid only
 * where both inputs are (the mask intersection), so a counter that
 * appeared or vanished mid-interval drops out instead of producing
 * a garbage delta.
 */
Sample sampleDelta(const Sample &end, const Sample &begin);

/** Accumulate @p other into @p into (union of valid masks). */
void sampleAccumulate(Sample &into, const Sample &other);

/**
 * @return @p total minus @p children where both are valid, clamped
 * at 0 (child spans measured on the same thread can slightly exceed
 * the parent's delta through read jitter).
 */
Sample sampleExclusive(const Sample &total, const Sample &children);

/**
 * Scale one group-read value for counter multiplexing: when the
 * kernel time-shares hardware counters, each event reports the time
 * it was enabled vs. actually running, and the unbiased estimate is
 * raw * enabled / running. @return 0 when @p running is 0 (the
 * counter never got the hardware).
 */
double scaledCounterValue(uint64_t raw, uint64_t time_enabled,
                          uint64_t time_running);

/** Derived per-span metrics computed from aggregated totals. */
struct DerivedMetrics
{
    double ipc = 0.0;            ///< instructions / cycles.
    bool hasIpc = false;
    double llcMissRate = 0.0;    ///< llc_misses / llc_loads.
    bool hasLlcMissRate = false;
    double branchMissRate = 0.0; ///< branch_misses / branches.
    bool hasBranchMissRate = false;
    double taskClockSeconds = 0.0;
    bool hasTaskClock = false;
    double bytesPerSecond = 0.0; ///< bytes / task-clock seconds.
    bool hasBytesPerSecond = false;
};

/**
 * @return the derived metrics for @p totals with @p bytes of known
 * memory traffic (0 = unknown; suppresses bytes/s). Pure function,
 * unit-tested against hand-computed values.
 */
DerivedMetrics deriveMetrics(const Sample &totals, double bytes);

/**
 * Per-thread opened counter group. read() fills a monotonically
 * accumulating Sample; implementations must be cheap enough to call
 * twice per span.
 */
class ThreadCounters
{
  public:
    virtual ~ThreadCounters() = default;

    /**
     * Read the group now. @return false when nothing could be read
     * (@p out is reset to an all-invalid sample).
     */
    virtual bool read(Sample &out) = 0;
};

/**
 * A source of per-thread counter groups. The perf backend wraps
 * `perf_event_open`; tests inject fakes; the null backend opens
 * nothing and keeps reports schema-stable.
 */
class CounterBackend
{
  public:
    virtual ~CounterBackend() = default;

    /** @return stable backend name ("perf", "null", ...). */
    virtual const char *name() const = 0;

    /** @return bitmask of counters this backend can deliver. */
    virtual uint32_t availableMask() const = 0;

    /**
     * Open this thread's counter group. May return nullptr when the
     * thread-level open fails; callers treat that as all-invalid.
     */
    virtual std::unique_ptr<ThreadCounters> openThreadCounters() = 0;
};

/** @return the schema-stable no-counter backend. */
CounterBackend &nullBackend();

/**
 * Probe `perf_event_open` per counter and return the best backend
 * for this host: the perf backend when at least one counter opens,
 * else the null backend. Logs at most ONE WARN describing what is
 * missing (perf entirely, or the hardware subset). The
 * SLAMBENCH_PMU_DISABLE environment variable forces the null
 * backend (containers, deterministic tests).
 */
CounterBackend &detectBackend();

/** Aggregated exclusive totals for one span name. */
struct SpanStats
{
    std::string name;     ///< Span (kernel) name.
    uint64_t spans = 0;   ///< Completed spans aggregated.
    Sample totals;        ///< Exclusive (self-time) counter sums.
    double bytes = 0.0;   ///< Known memory traffic (0 = unknown).
};

/** @return whether the PMU span sink is armed (relaxed load). */
bool enabled();

/**
 * The counter samples one open Kernel/Worker span carries on the
 * shared per-thread span stack (support/trace.hpp).
 */
struct SpanCounters
{
    Sample begin;
    /** Summed deltas of completed child spans, subtracted from the
     *  span's own delta for exclusive attribution. */
    Sample childSum;
    /** Profiler::start() generation the span opened under. */
    uint64_t generation = 0;
};

namespace detail {
/** PMU sink of ScopedSpan: sample this thread's counters at open. */
void openSpan(SpanCounters &span);
/**
 * Fold the closing span's exclusive delta into @p name's totals and
 * its full delta into @p parent (the innermost enclosing PMU span on
 * this thread; nullptr = none). A span opened before the latest
 * start() is dropped: its begin sample came from a closed group.
 */
void closeSpan(const char *name, const SpanCounters &span,
               SpanCounters *parent);
} // namespace detail

/**
 * Process-wide span profiler. Threads keep private counter groups
 * (opened lazily from the armed backend); completed spans fold their
 * exclusive deltas into a shared per-name table under a mutex —
 * spans are per kernel dispatch, not per work item, so the lock is
 * cold.
 *
 * Attribution is exclusive: a span's children (nested spans on the
 * same thread, including cooperative worker chunks run inside a
 * kernel span) are subtracted from its own total and counted under
 * their own names. Worker chunks carry the dispatching kernel's
 * span name, so summing a name across threads yields that kernel's
 * true multi-thread total.
 */
class Profiler
{
  public:
    /** @return the process-wide profiler. */
    static Profiler &instance();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /**
     * Arm profiling with @p backend: clears prior totals, bumps the
     * thread-state generation (stale per-thread groups reopen on
     * next use), and sets the PMU bit of the span gate.
     */
    void start(CounterBackend &backend);

    /** Clear the PMU bit of the span gate; totals remain readable. */
    void stop();

    /** @return the armed backend (nullptr before any start()). */
    CounterBackend *backend() const;

    /**
     * Read this thread's accumulating sample directly (opens the
     * thread's group on first use). @return false when disabled or
     * the group cannot be read. Used by bench_kernels to wrap whole
     * benchmark loops without span machinery.
     */
    bool readThreadSample(Sample &out);

    /**
     * Add @p bytes of known memory traffic to span @p name (shows
     * up as measured bytes/s). Accumulates across calls, mirroring
     * the counter totals.
     */
    void addSpanBytes(const std::string &name, double bytes);

    /** @return per-name aggregated stats, name-sorted. */
    std::vector<SpanStats> spanStats() const;

    /** Drop all totals (start() does this too). */
    void clear();

  private:
    Profiler() = default;
};

/**
 * Publish the profiler's aggregated per-span metrics as
 * `pmu.<span>.<metric>` gauges in the metrics registry (IPC, miss
 * rates, task-clock seconds, raw cycle/instruction totals). No-op
 * while no session has armed profiling. Called at scrape/report
 * time, not per span.
 */
void publishGauges();

/** @return whether a session has armed profiling this run (report
 *  writers use this to decide whether to emit a `pmu` block even
 *  after the session disarmed the hot path). */
bool profilingActive();

/**
 * Arm profiling for a run (the `--pmu` flag; called by
 * trace::Session): probe the host backend once, start the profiler,
 * latch profilingActive() and log the armed backend at INFO.
 */
void startSession();

/**
 * End the run's profiling: stop the profiler, publish the registry
 * gauges and log a one-line per-kernel summary at INFO.
 */
void finishSession();

} // namespace slambench::support::pmu

#endif // SLAMBENCH_SUPPORT_PMU_HPP
