#ifndef SLAMBENCH_SUPPORT_TRACE_HPP
#define SLAMBENCH_SUPPORT_TRACE_HPP

/**
 * @file
 * Lightweight per-kernel tracing: scoped spans, counter events, and
 * frame markers, exported as Chrome `chrome://tracing` JSON.
 *
 * SLAMBench's whole methodology is timing every pipeline stage; this
 * is the host-side instrumentation that makes those timings visible.
 * Span names for compute kernels are exactly the
 * `kfusion::kernelName()` strings, so a timeline opened in
 * chrome://tracing (or Perfetto) lines up 1:1 with the
 * `kernel_<name>_ms` columns of the `--frames-csv` table. See
 * docs/OBSERVABILITY.md for the span semantics and the export
 * schema.
 *
 * One span model: `ScopedSpan` is the only span producer, and two
 * sinks consume it — the Chrome timeline (`Tracer`) and the request
 * tracer (`RequestTracer`, spans opened under an installed request
 * context). One atomic bitmask gates both (`Sink`), one per-thread
 * stack holds every open span, and one `Session` arms the sinks a run
 * asked for.
 *
 * Cost model: with every sink disarmed (the default) a span costs
 * one relaxed atomic load — no allocation, no event, no lock. An
 * armed span appends to per-thread state without locking; the
 * timeline registry lock is only taken once per thread (first
 * event) and at export time.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace slambench::support::trace {

/** What a trace event describes; exported as the Chrome `cat` field. */
enum class Category : uint8_t {
    Kernel,  ///< A pipeline compute kernel (names match kernelName()).
    Phase,   ///< A coarser grouping span (frame, preprocess, ...).
    Worker,  ///< A thread-pool chunk executing on behalf of a span.
    Counter, ///< A named scalar sample (counter event).
    Marker,  ///< An instant event (frame boundaries).
};

/** @return the stable lowercase name of @p cat for exports. */
const char *categoryName(Category cat);

/** The consumers of ScopedSpan: one bit each in the span gate. */
enum Sink : uint32_t {
    kTimelineSink = 1u << 0, ///< Tracer: Chrome timeline.
    kRequestSink = 1u << 1,  ///< RequestTracer: in-context spans.
};

namespace detail {
/** The span gate: the armed Sink bits (read via armedSinks()). */
extern std::atomic<uint32_t> g_sinks;
/** Set (@p on) or clear @p sink in the gate. */
void armSink(uint32_t sink, bool on);
/**
 * Push a span onto this thread's open-span stack, opening it in each
 * sink of @p armed that accepts it. @return whether any did (the
 * span then must be closed with closeSpan()).
 */
bool openSpan(const char *name, Category cat, uint32_t armed);
/** Pop this thread's innermost span, closing it in exactly the
 *  sinks it opened in. */
void closeSpan();
} // namespace detail

/** @return the armed Sink bits (one relaxed load). */
inline uint32_t
armedSinks()
{
    return detail::g_sinks.load(std::memory_order_relaxed);
}

/** One recorded trace event (span begin/end, counter, or marker). */
struct Event
{
    /** Static string; spans use it to pair begins with ends. */
    const char *name = nullptr;
    /** Nanoseconds since the tracer epoch (start / last clear()). */
    uint64_t tsNs = 0;
    /** The recording thread's frame stamp (see Tracer::setFrame). */
    uint64_t frame = 0;
    /** Counter value; unused for spans and markers. */
    double value = 0.0;
    /** Event category. */
    Category cat = Category::Phase;
    /** Chrome phase: 'B' begin, 'E' end, 'C' counter, 'i' instant. */
    char phase = 'B';
};

/** Aggregate of all spans with one name within one frame. */
struct FrameKernelTotal
{
    uint64_t frame = 0;     ///< Frame index the spans began in.
    std::string name;       ///< Span (kernel) name.
    size_t spans = 0;       ///< Number of completed spans.
    double seconds = 0.0;   ///< Summed span wall time.
};

/** Aggregate of all spans with one name across the whole trace. */
struct KernelTotal
{
    std::string name;       ///< Span (kernel) name.
    size_t spans = 0;       ///< Number of completed spans.
    double seconds = 0.0;   ///< Summed span wall time.
};

/**
 * Process-wide trace recorder.
 *
 * Threads record into private buffers (no contention on the hot
 * path); buffers are owned by the tracer and outlive their threads,
 * so worker events survive pool destruction until export.
 */
class Tracer
{
  public:
    /** @return the process-wide tracer. */
    static Tracer &instance();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Arm or disarm the timeline sink. A span open at disarm still
     * records its end.
     */
    void setEnabled(bool on);

    /** @return whether events are being recorded (relaxed load). */
    bool
    enabled() const
    {
        return (armedSinks() & kTimelineSink) != 0;
    }

    /** Drop all recorded events, restart the time epoch and reset
     *  the calling thread's frame stamp to 0. */
    void clear();

    /**
     * Record a frame-boundary marker and stamp this thread's
     * subsequent events with @p frame. The stamp is per thread, so
     * pipelines running concurrently each stamp their own frames;
     * pool tasks inherit the submitting thread's stamp through
     * TaskContext.
     */
    void setFrame(uint64_t frame);

    /** @return the frame index stamped onto this thread's events. */
    uint64_t frame() const;

    /**
     * Record a span boundary (@p phase 'B' or 'E') taken at
     * @p now_ns (metrics::now_ns()); the timeline sink of ScopedSpan.
     */
    void spanEvent(const char *name, Category cat, char phase,
                   uint64_t now_ns);
    /** Record a counter sample; callers must check enabled() first. */
    void counter(const char *name, double value);

    /** @return total events recorded since the last clear(). */
    size_t eventCount() const;
    /** @return number of threads that have recorded any event. */
    size_t threadCount() const;
    /** @return per-thread event sequences (registration order). */
    std::vector<std::vector<Event>> eventsByThread() const;

    /**
     * Sum completed Category::Kernel spans per (frame, name).
     * Begin/end pairing is per thread (spans are RAII and nest).
     *
     * @return totals sorted by frame then name.
     */
    std::vector<FrameKernelTotal> frameKernelTotals() const;

    /** @return Category::Kernel span totals per name, name-sorted. */
    std::vector<KernelTotal> kernelTotals() const;

    /** Write the Chrome trace-event JSON document to @p os. */
    void writeChromeJson(std::ostream &os) const;
    /**
     * Write the Chrome trace-event JSON to @p path.
     * @return false when the file cannot be opened.
     */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct ThreadBuffer
    {
        uint32_t tid = 0;
        std::vector<Event> events;
    };

    Tracer();

    /** @return this thread's buffer, registering it on first use. */
    ThreadBuffer &localBuffer();
    void record(const char *name, Category cat, char phase,
                double value, uint64_t now_ns);

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    /** metrics::now_ns() at construction / the last clear(). */
    uint64_t epochNs_ = 0;
};

/**
 * @return the name of the innermost span on this thread that is open
 * in the timeline sink, or nullptr outside any. Read from the shared
 * open-span stack.
 */
const char *currentSpanName();

// --- Request tracing ---------------------------------------------
//
// Per-request (tenant frame) span trees with tail-based retention,
// layered on the same ScopedSpan instrumentation as the Chrome
// timeline above. A TraceContext is created per (tenant, frame) by
// the serve scheduler (or the bench frame loop), carried across
// ThreadPool task boundaries by the pool itself, and installed on the
// executing thread — so every ScopedSpan that opens while the context
// is active records a child span into the trace automatically.
// Completed traces are retained with probability
// RequestTraceOptions::sampleRate, but frames that breach an SLO,
// lose tracking, or land in the top bucket of their latency histogram
// are always retained (the pathological tail is captured by
// construction). See docs/OBSERVABILITY.md "Request tracing".

/**
 * Identity of one in-flight request on one thread: the trace it
 * belongs to plus the innermost open request span (the parent of any
 * span opened next). Copied by value across task boundaries.
 */
struct TraceContext
{
    /** Nonzero id of the trace, 0 = no active trace. */
    uint64_t traceId = 0;
    /** Innermost open request-span id (parent for new spans). */
    uint64_t spanId = 0;

    /** @return whether this context names a live trace. */
    bool active() const { return traceId != 0; }
};

/** One completed span within a retained request trace. */
struct RequestSpan
{
    uint64_t spanId = 0;       ///< Unique within the process.
    uint64_t parentSpanId = 0; ///< 0 = child of the trace root.
    /** Static span name (same strings as the Chrome timeline). */
    const char *name = nullptr;
    Category cat = Category::Phase;
    uint64_t startNs = 0; ///< metrics::now_ns() at open.
    uint64_t endNs = 0;   ///< metrics::now_ns() at close.
};

/** Why a completed trace was (or would be) retained. */
struct RetentionFlags
{
    bool sloBreach = false;    ///< Frame breached an SLO threshold.
    bool trackingLost = false; ///< Pose was rejected this frame.
    bool topBucket = false;    ///< Landed in the top populated
                               ///< latency-histogram bucket.
    bool sampled = false;      ///< Kept by the probabilistic sampler.

    /** @return whether any always-retain flag is set. */
    bool
    flagged() const
    {
        return sloBreach || trackingLost || topBucket;
    }
};

/** One retained (completed) request trace. */
struct RetainedTrace
{
    uint64_t traceId = 0;
    uint64_t rootSpanId = 0; ///< Synthesized root covering the trace.
    std::string tenant;      ///< Tenant id ("" outside serve).
    uint64_t frame = 0;      ///< Tenant-local frame index.
    uint64_t startNs = 0;    ///< Trace begin (metrics::now_ns()).
    uint64_t endNs = 0;      ///< Trace finish.
    double durationSeconds = 0.0; ///< Frame wall time (reported).
    RetentionFlags retention;
    /** Completed spans, in completion order (children close before
     *  parents; the root span is last). */
    std::vector<RequestSpan> spans;
    /** Spans discarded once maxSpansPerTrace was reached. */
    uint64_t spansDropped = 0;
};

/** Tuning of the request tracer. */
struct RequestTraceOptions
{
    /** Probability an unflagged completed trace is retained. */
    double sampleRate = 0.01;
    /** Retained traces kept (FIFO eviction beyond this). */
    size_t maxRetained = 256;
    /** Spans recorded per trace (further spans are counted only). */
    size_t maxSpansPerTrace = 512;
    /** In-flight traces tracked (oldest evicted beyond this). */
    size_t maxInflight = 1024;
};

/** Completion report for one request trace. */
struct RequestTraceFinish
{
    /** Frame wall time, seconds (reported; the span tree's root
     *  duration is measured independently). */
    double durationSeconds = 0.0;
    /** Always-retain flags (sampled is decided by the tracer). */
    bool sloBreach = false;
    bool trackingLost = false;
    bool topBucket = false;
    /** Registry histogram name this frame was recorded into; a
     *  retained trace becomes that histogram's exemplar ("" = no
     *  exemplar). */
    std::string exemplarMetric;
};

/** Exemplar: the retained trace behind one histogram's samples. */
struct TraceExemplar
{
    uint64_t traceId = 0;
    double value = 0.0; ///< The recorded sample (seconds).
    uint64_t ns = 0;    ///< When the exemplar was updated.
};

/** @return whether request tracing is armed (single relaxed load). */
inline bool
requestTracingArmed()
{
    return (armedSinks() & kRequestSink) != 0;
}

/** @return the thread's active request context (inactive outside
 *  any installed context). */
TraceContext currentTraceContext();

/**
 * Process-wide request-trace store: in-flight traces accumulate
 * spans; finish() applies the tail-based retention policy and moves
 * keepers into a bounded FIFO of retained traces, queryable by the
 * /tracez endpoint. All methods are thread-safe; when disarmed,
 * begin() returns an inactive context and span recording is gated
 * off by requestTracingArmed().
 */
class RequestTracer
{
  public:
    /** @return the process-wide request tracer. */
    static RequestTracer &instance();

    RequestTracer(const RequestTracer &) = delete;
    RequestTracer &operator=(const RequestTracer &) = delete;

    /** Arm with @p options, dropping all previous state. */
    void configure(const RequestTraceOptions &options);

    /** Disarm; retained traces stay queryable until clear(). */
    void disarm();

    /** Drop every in-flight and retained trace and all exemplars. */
    void clear();

    /** @return whether begin()/span recording are armed. */
    bool enabled() const { return requestTracingArmed(); }

    /** @return the active options (last configure()). */
    RequestTraceOptions options() const;

    /**
     * Start a trace for one (tenant, frame) request.
     *
     * @return the context to install around the request's work, or
     * an inactive context when disarmed (all downstream recording
     * then gates off).
     */
    TraceContext begin(const std::string &tenant, uint64_t frame);

    /**
     * Complete the trace named by @p ctx: decide retention (always
     * when an always-retain flag is set in @p finish, else with
     * probability sampleRate), synthesize the root span, and — when
     * retained and finish.exemplarMetric is set — publish the trace
     * as that histogram's exemplar.
     */
    void finish(const TraceContext &ctx,
                const RequestTraceFinish &finish);

    /** Append one completed span to an in-flight trace (no-op when
     *  the trace already finished or was evicted). */
    void addSpan(uint64_t trace_id, const RequestSpan &span);

    /** @return a fresh process-unique span id. */
    uint64_t
    nextSpanId()
    {
        return nextSpanId_.fetch_add(1, std::memory_order_relaxed) +
               1;
    }

    /** @return traces started / retained since the last clear(). */
    uint64_t tracesStarted() const;
    uint64_t tracesRetained() const;

    /** @return retained traces, newest first. */
    std::vector<RetainedTrace> retainedSnapshot() const;

    /** Copy the retained trace @p trace_id into @p out.
     *  @return whether it was found. */
    bool findTrace(uint64_t trace_id, RetainedTrace *out) const;

    /** Copy the exemplar of histogram @p metric into @p out.
     *  @return whether one exists. */
    bool exemplarFor(const std::string &metric,
                     TraceExemplar *out) const;

  private:
    RequestTracer() = default;

    mutable std::mutex mutex_;
    RequestTraceOptions options_;
    /** In-flight traces by id, with FIFO eviction order. */
    std::unordered_map<uint64_t, RetainedTrace> inflight_;
    std::deque<uint64_t> inflightOrder_;
    /** Retained traces, oldest first (FIFO eviction). */
    std::deque<RetainedTrace> retained_;
    /** Exemplars by registry histogram name. */
    std::unordered_map<std::string, TraceExemplar> exemplars_;
    uint64_t tracesStarted_ = 0;
    uint64_t tracesRetained_ = 0;
    uint64_t idSeed_ = 0;
    std::atomic<uint64_t> nextTraceSeq_{0};
    std::atomic<uint64_t> nextSpanId_{0};
};

/**
 * RAII installation of a request context on the current thread:
 * ScopedSpans opened in scope record into the context's trace, and
 * log records carry `trace_id=...` correlation. Restores the
 * previous context (and log correlation id) on destruction. An
 * inactive context installs nothing.
 */
class ScopedTraceContext
{
  public:
    explicit ScopedTraceContext(const TraceContext &ctx);
    ~ScopedTraceContext();

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) =
        delete;

  private:
    TraceContext prev_;
    bool installed_ = false;
};

/** @return @p trace_id as the 16-hex-digit form used by /tracez,
 *  exemplars, and log correlation. */
std::string formatTraceId(uint64_t trace_id);

/** Parse the formatTraceId() form (with or without leading 0x).
 *  @return 0 on malformed input. */
uint64_t parseTraceId(const std::string &text);

/**
 * What a thread-pool task carries from the thread that submitted it:
 * the span its worker-side chunks are labelled with, the frame stamp
 * their timeline events carry, and the request context its spans
 * attach to.
 */
struct TaskContext
{
    /** currentSpanName() when the timeline sink is armed, else
     *  nullptr (no Worker chunk spans). */
    const char *spanName = nullptr;
    /** The submitter's Tracer::frame() when the timeline sink is
     *  armed, else 0. */
    uint64_t frame = 0;
    /** The installed request context when request tracing is armed
     *  (inactive otherwise). */
    TraceContext request;
};

/**
 * RAII frame stamp: this thread's timeline events carry @p frame
 * while in scope (a pool task runs under its submitter's stamp); the
 * previous stamp is restored on destruction.
 */
class ScopedFrame
{
  public:
    explicit ScopedFrame(uint64_t frame);
    ~ScopedFrame();

    ScopedFrame(const ScopedFrame &) = delete;
    ScopedFrame &operator=(const ScopedFrame &) = delete;

  private:
    uint64_t prev_;
};

/** @return this thread's TaskContext (one relaxed load when every
 *  sink is disarmed). */
TaskContext captureTaskContext();

/**
 * Record the time a pool task of @p request sat queued, from
 * @p enqueued_ns to @p started_ns (metrics::now_ns()), as a Worker
 * `queue_wait` span under the submitter's innermost span. No-op for
 * an inactive context or a disarmed request sink.
 */
void recordQueueWait(const TraceContext &request, uint64_t enqueued_ns,
                     uint64_t started_ns);

/**
 * RAII span, the only span producer: opens on construction in every
 * armed sink that accepts it and closes on destruction in exactly
 * those sinks, even if one was disarmed meanwhile. The timeline takes
 * every span, the request tracer spans opened under an installed
 * request context. One relaxed load when every sink is disarmed.
 */
class ScopedSpan
{
  public:
    /**
     * @param name Static string naming the span (must outlive the
     *     tracer; string literals and kernelName() qualify).
     * @param cat Category exported as the Chrome `cat` field.
     */
    explicit ScopedSpan(const char *name,
                        Category cat = Category::Phase)
    {
        const uint32_t armed = armedSinks();
        if (armed != 0)
            open_ = detail::openSpan(name, cat, armed);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (open_)
            detail::closeSpan();
    }

  private:
    bool open_ = false;
};

/** Record a counter sample if tracing is enabled. */
inline void
counterEvent(const char *name, double value)
{
    Tracer &tracer = Tracer::instance();
    if (tracer.enabled())
        tracer.counter(name, value);
}

/** Record a frame boundary on this thread if tracing is enabled. */
inline void
frameMarker(uint64_t frame)
{
    Tracer &tracer = Tracer::instance();
    if (tracer.enabled())
        tracer.setFrame(frame);
}

/** What a run arms: the `--trace` and `--trace-*` values. */
struct SessionOptions
{
    std::string timelinePath; ///< Chrome trace JSON ("" = skip).
    bool requests = false;    ///< Request tracing.
    RequestTraceOptions requestOptions; ///< Used when @c requests.
};

/**
 * RAII capture for one run: arms the timeline sink when an output
 * path is set (clearing earlier events) and the request sink. On
 * destruction disarms them and writes the timeline file. Inert when
 * @p options asks for nothing.
 */
class Session
{
  public:
    explicit Session(SessionOptions options);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** @return whether this session armed any sink. */
    bool active() const { return sinks_ != 0; }

  private:
    SessionOptions options_;
    uint32_t sinks_ = 0;
};

} // namespace slambench::support::trace

#define SB_TRACE_CONCAT_IMPL(a, b) a##b
#define SB_TRACE_CONCAT(a, b) SB_TRACE_CONCAT_IMPL(a, b)

/** Open a Category::Phase span covering the rest of this scope. */
#define TRACE_SCOPE(name)                                            \
    ::slambench::support::trace::ScopedSpan SB_TRACE_CONCAT(         \
        sb_trace_span_, __LINE__)(name)

/** Record a named scalar sample (Chrome counter track). */
#define TRACE_COUNTER(name, value)                                   \
    ::slambench::support::trace::counterEvent(                       \
        name, static_cast<double>(value))

/** Mark a frame boundary; this thread's later events belong to
 *  frame @p index. */
#define TRACE_FRAME(index)                                           \
    ::slambench::support::trace::frameMarker(                        \
        static_cast<uint64_t>(index))

#endif // SLAMBENCH_SUPPORT_TRACE_HPP
