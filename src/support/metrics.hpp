#ifndef SLAMBENCH_SUPPORT_METRICS_HPP
#define SLAMBENCH_SUPPORT_METRICS_HPP

/**
 * @file
 * Run-level telemetry: a thread-safe metrics registry (counters,
 * gauges, fixed-bucket latency histograms) plus the versioned
 * machine-readable run report every bench emits via
 * `--metrics-json` / `--frames-csv`.
 *
 * This is the run-level companion of the span tracer
 * (`support/trace.hpp`): the tracer answers "where did this frame's
 * time go", the registry and run report answer "how did this run do"
 * in a form `scripts/bench_compare.py` can diff against a previous
 * run and gate regressions on. The report schema is documented in
 * docs/OBSERVABILITY.md and validated by
 * `scripts/check_metrics_schema.py` (the `metrics_smoke` CTest
 * entry).
 *
 * Cost model: counters and gauges are single relaxed atomics;
 * histogram recording is one atomic increment plus a handful of CAS
 * updates. Registry handles returned by counter()/gauge()/histogram()
 * are stable for the process lifetime (resetValues() zeroes values
 * but never invalidates references), so hot paths can cache them in
 * function-local statics.
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace slambench::support {
class CsvWriter;
} // namespace slambench::support

namespace slambench::support::metrics {

/** Monotonically increasing event counter. */
class Counter
{
  public:
    /** Add @p n to the counter (relaxed; thread-safe). */
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /** @return the current count. */
    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the counter. */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-value-wins scalar sample (peak RSS, model error, ...). */
class Gauge
{
  public:
    /** Set the gauge (relaxed; thread-safe). */
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** Raise the gauge to @p v if larger (high-water mark). */
    void setMax(double v);

    /** @return the last value set (0 before any set()). */
    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the gauge. */
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket latency histogram: geometric buckets covering 100 ns
 * to 1000 s (8 per decade, ratio 10^(1/8) ~ 1.33), plus an underflow
 * and an overflow bucket. Quantiles (p50/p90/p99) are interpolated
 * from the bucket counts without storing samples, so recording is
 * O(1) and the memory footprint is constant; the coarse bucket width
 * bounds the quantile error at ~15% (half a bucket), which is
 * plenty for regression gating.
 *
 * Thread-safe: buckets and count are relaxed atomics, sum/min/max
 * use CAS loops. All values are seconds.
 */
class LatencyHistogram
{
  public:
    /** Geometric buckets per decade of the covered range. */
    static constexpr size_t kBucketsPerDecade = 8;
    /** log10 of the first bounded bucket's lower edge (100 ns). */
    static constexpr int kLogLo = -7;
    /** log10 of the last bounded bucket's upper edge (1000 s). */
    static constexpr int kLogHi = 3;
    /** Bounded buckets plus underflow (index 0) and overflow. */
    static constexpr size_t kNumBuckets =
        static_cast<size_t>(kLogHi - kLogLo) * kBucketsPerDecade + 2;

    /** Record one latency sample, seconds (thread-safe). */
    void record(double seconds);

    /** @return number of samples recorded. */
    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** @return exact sum of all samples, seconds. */
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    /** @return exact mean, seconds (0 when empty). */
    double mean() const;
    /** @return smallest sample (0 when empty). */
    double min() const;
    /** @return largest sample (0 when empty). */
    double max() const;

    /**
     * Estimate the @p q quantile (0..1) by linear interpolation
     * within the bucket containing the target rank, clamped to the
     * exact [min, max] envelope.
     */
    double quantile(double q) const;

    /** @return number of buckets (including underflow/overflow). */
    size_t numBuckets() const { return kNumBuckets; }
    /** @return inclusive lower edge of bucket @p i, seconds. */
    double bucketLo(size_t i) const;
    /** @return exclusive upper edge of bucket @p i, seconds. */
    double bucketHi(size_t i) const;
    /** @return samples recorded into bucket @p i. */
    uint64_t
    bucketCount(size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /** @return index of the bucket a @p seconds sample lands in. */
    size_t
    bucketIndexFor(double seconds) const
    {
        return bucketIndex(seconds);
    }

    /**
     * @return index of the highest populated bucket, or numBuckets()
     * when empty. With bucketIndexFor(), this is the request
     * tracer's "top histogram bucket" tail-retention signal: a
     * sample is in the tail iff its bucket index is >= this.
     */
    size_t highestPopulatedBucket() const;

    /** Zero all buckets and statistics. */
    void reset();

  private:
    size_t bucketIndex(double seconds) const;

    std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{
        std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{
        -std::numeric_limits<double>::infinity()};
};

/**
 * One entry of the async-signal-safe registry index: an immutable
 * singly-linked node naming a registered metric and pointing at its
 * (process-lifetime) storage. The Registry pushes one node per
 * metric at registration via a lock-free CAS, so a fatal-signal
 * handler can walk the list and read every metric's atomics without
 * taking the Registry mutex or allocating (see
 * support/flight_recorder.hpp). Nodes are newest-first and never
 * freed.
 */
struct CrashIndexNode
{
    /** Which metric family @ref metric points into. */
    enum class Kind
    {
        Counter,  ///< metric is a `const Counter *`.
        Gauge,    ///< metric is a `const Gauge *`.
        Histogram ///< metric is a `const LatencyHistogram *`.
    };

    /** Metric name (heap copy owned by the node, never freed). */
    const char *name;
    Kind kind;           ///< Type tag for @ref metric.
    const void *metric;  ///< The metric's stable storage.
    const CrashIndexNode *next; ///< Next (older) node or nullptr.
};

/**
 * @return the newest node of the crash index (nullptr when no metric
 * has been registered). Async-signal-safe: a single acquire load.
 */
const CrashIndexNode *crashIndexHead();

/**
 * Process-wide metrics registry.
 *
 * Metrics are created on first access by name and live for the
 * process lifetime; the returned references are stable, so callers
 * may cache them (function-local statics on hot paths). Counters,
 * gauges, and histograms occupy independent namespaces.
 */
class Registry
{
  public:
    /** @return the process-wide registry. */
    static Registry &instance();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** @return the counter named @p name, creating it if needed. */
    Counter &counter(const std::string &name);
    /** @return the gauge named @p name, creating it if needed. */
    Gauge &gauge(const std::string &name);
    /** @return the histogram named @p name, creating it if needed. */
    LatencyHistogram &histogram(const std::string &name);

    /** @return (name, value) snapshot of all counters, name-sorted. */
    std::vector<std::pair<std::string, uint64_t>> counters() const;
    /** @return (name, value) snapshot of all gauges, name-sorted. */
    std::vector<std::pair<std::string, double>> gauges() const;
    /** @return (name, histogram) pairs, name-sorted; pointers stay
     *  valid for the process lifetime. */
    std::vector<std::pair<std::string, const LatencyHistogram *>>
    histograms() const;

    /**
     * Zero every registered metric's value. Registrations (and the
     * references handed out) survive, so cached handles in hot paths
     * remain valid; benches call this before a measured run.
     */
    void resetValues();

  private:
    Registry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>>
        histograms_;
};

/**
 * Per-frame telemetry record: one row of the `--frames-csv` export.
 * The phase times partition WorkCounts host time by pipeline stage
 * (preprocess = depth conversion/filter/pyramid maps, track =
 * ICP+reduce+solve, integrate = TSDF fusion, raycast = surface
 * extraction + rendering), and the kernel vectors carry the same
 * WorkCounts per kernel, in the order of the session's kernel names;
 * `core::completeFrame()` fills one as each bench or serve frame
 * finishes.
 */
struct FrameTelemetry
{
    /** Run label within the bench ("default", "tuned", ...). */
    std::string label = "run";
    uint64_t frame = 0;        ///< Frame index within the run.
    double wallSeconds = 0.0;  ///< Host wall time of the frame.
    double preprocessSeconds = 0.0;
    double trackSeconds = 0.0;
    double integrateSeconds = 0.0;
    double raycastSeconds = 0.0;
    double ateMeters = 0.0;    ///< Trajectory error at this frame.
    bool tracked = false;      ///< Pose accepted by the gates.
    bool integrated = false;   ///< Volume updated this frame.
    double simJoules = 0.0;    ///< Modeled device energy.
    double rssPeakBytes = 0.0; ///< Process RSS high-water mark.
    double simSeconds = 0.0;   ///< Modeled device frame time.
    /** Host seconds per kernel (empty: all 0). */
    std::vector<double> kernelSeconds;
    /** Work items per kernel (empty: all 0). */
    std::vector<double> kernelItems;
};

/**
 * @return the process's peak resident set size in bytes (VmHWM),
 * or 0 when unavailable on this platform.
 */
double peakRssBytes();

/** @return process CPU time (user + system), seconds. */
double processCpuSeconds();

/** @return the build's `git describe` string ("unknown" if none). */
const char *gitDescribe();

/** @return the CMake build type this binary was compiled with. */
const char *buildType();

/**
 * RAII run-report capture for a CLI run, the metrics analogue of
 * trace::Session: construct from the `--metrics-json` /
 * `--frames-csv` flags, feed it config parameters, per-frame
 * telemetry, and summary scalars while the bench runs, and the
 * report files are written (and announced at INFO) on destruction.
 * With both paths empty the session is inert and records nothing.
 *
 * The per-frame CSV streams: rows are written as frames arrive and
 * the file is flushed every kCsvFlushInterval frames, so a crashed
 * run loses at most one window (the `metrics.frames.flushed` counter
 * tracks rows durably flushed). Recording is thread-safe, and the
 * process's most recent active session is readable while the run is
 * still in flight via writeCurrentJson() (the telemetry server's
 * /runz endpoint).
 */
class RunSession
{
  public:
    /** Version stamped into every report as `schema_version`. */
    static constexpr int kSchemaVersion = 1;

    /** Frames per streaming-CSV flush window. */
    static constexpr size_t kCsvFlushInterval = 32;

    /** Inactive session. */
    RunSession();

    /**
     * @param json_path Run-report JSON output path ("" = skip).
     * @param csv_path Per-frame telemetry CSV path ("" = skip).
     * @param generator Name of the producing binary, stamped into
     *        the report.
     * @param kernel_names Kernel names of the per-frame CSV's
     *        `kernel_<name>_ms` and `kernel_<name>_items` columns,
     *        in the order of FrameTelemetry's kernel vectors.
     */
    RunSession(std::string json_path, std::string csv_path,
               std::string generator,
               std::vector<std::string> kernel_names = {});

    RunSession(RunSession &&other) noexcept;
    RunSession &operator=(RunSession &&other) noexcept;
    RunSession(const RunSession &) = delete;
    RunSession &operator=(const RunSession &) = delete;

    /** Writes the requested files when the session is active. */
    ~RunSession();

    /** @return whether any output was requested. */
    bool active() const { return active_; }

    /** Record one configuration parameter (insertion-ordered). */
    void setParam(const std::string &key, const std::string &value);

    /** Record an extra summary scalar (insertion-ordered). */
    void setSummary(const std::string &key, double value);

    /** Append one frame's telemetry. */
    void addFrame(const FrameTelemetry &telemetry);

    /** @return frames recorded so far. */
    size_t frameCount() const { return frames_.size(); }

    /**
     * Write the versioned run report (schema in
     * docs/OBSERVABILITY.md) to @p os. Callable any time; the
     * destructor uses it for the `--metrics-json` file.
     */
    void writeJson(std::ostream &os) const;

    /** Write the per-frame telemetry CSV to @p os. */
    void writeFramesCsv(std::ostream &os) const;

    /**
     * Export the requested files now (idempotent; the destructor
     * calls it). Logs output paths and a one-line run summary at
     * INFO, so `--quiet` suppresses them.
     */
    void finish();

    /**
     * Write the run report of the process's current active session
     * (the most recently constructed one still alive) to @p os.
     * Thread-safe against the owning thread recording frames.
     *
     * @return false when no session is active (@p os untouched).
     */
    static bool writeCurrentJson(std::ostream &os);

  private:
    /** Publish this session as the process-current one. */
    void registerCurrent();
    /** Retract this session if it is the process-current one. */
    void unregisterCurrent();
    /** Stream queued CSV rows; flush when a window completed or
     *  @p final_flush. Caller holds *mutex_. */
    void flushCsvLocked(bool final_flush);

    std::string jsonPath_;
    std::string csvPath_;
    std::string generator_;
    std::vector<std::string> kernelNames_;
    bool active_ = false;
    uint64_t startNs_ = 0;
    double startCpuSeconds_ = 0.0;
    std::vector<std::pair<std::string, std::string>> params_;
    std::vector<std::pair<std::string, double>> extraSummary_;
    std::vector<FrameTelemetry> frames_;

    /** Guards the vectors and CSV stream; always allocated (and
     *  re-allocated for a moved-from shell) so sessions stay
     *  movable while lockable from other threads. */
    std::unique_ptr<std::mutex> mutex_ =
        std::make_unique<std::mutex>();
    /** Streaming CSV sink (open for the whole run); unique_ptrs so
     *  the CsvWriter's stream reference survives moves. */
    std::unique_ptr<std::ofstream> csvStream_;
    std::unique_ptr<CsvWriter> csvWriter_;
    /** Frames whose CSV rows reached the OS (flush window base). */
    size_t csvRowsFlushed_ = 0;
};

} // namespace slambench::support::metrics

#endif // SLAMBENCH_SUPPORT_METRICS_HPP
