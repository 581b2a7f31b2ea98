#include "support/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>

#include "metrics/timing.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"

namespace slambench::support::trace {

namespace {

/** One open span on a thread's stack: what each sink needs at close. */
struct OpenSpan
{
    const char *name = nullptr;
    Category cat = Category::Phase;
    /** The Sink bits this span opened in (and will close in). */
    uint32_t sinks = 0;
    /** metrics::now_ns() at open, shared by timeline and request. */
    uint64_t beginNs = 0;
    /** Request span id and its parent (request sink only). */
    uint64_t requestSpanId = 0;
    uint64_t requestParentId = 0;
};

/** A thread's span state: the open-span stack every sink shares,
 *  the timeline frame stamp and the installed request context. */
struct ThreadSpans
{
    std::vector<OpenSpan> stack;
    /** Frame index stamped onto this thread's timeline events. */
    uint64_t frame = 0;
    /** Installed context; spanId is the innermost open request span
     *  (the parent of the next one). */
    TraceContext request;
};

thread_local ThreadSpans t_spans;

/** Append @p s to @p out with JSON string escaping. */
void
appendEscaped(std::string &out, const char *s)
{
    for (; *s; ++s) {
        const char c = *s;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

} // namespace

const char *
categoryName(Category cat)
{
    switch (cat) {
      case Category::Kernel: return "kernel";
      case Category::Phase: return "phase";
      case Category::Worker: return "worker";
      case Category::Counter: return "counter";
      case Category::Marker: return "marker";
    }
    return "unknown";
}

namespace detail {

std::atomic<uint32_t> g_sinks{0};

void
armSink(uint32_t sink, bool on)
{
    if (on)
        g_sinks.fetch_or(sink, std::memory_order_relaxed);
    else
        g_sinks.fetch_and(~sink, std::memory_order_relaxed);
}

bool
openSpan(const char *name, Category cat, uint32_t armed)
{
    ThreadSpans &local = t_spans;
    uint32_t sinks = armed & kTimelineSink;
    if ((armed & kRequestSink) && local.request.active())
        sinks |= kRequestSink;
    if (sinks == 0)
        return false;

    OpenSpan &span = local.stack.emplace_back();
    span.name = name;
    span.cat = cat;
    span.sinks = sinks;
    span.beginNs = slambench::metrics::now_ns();
    if (sinks & kTimelineSink)
        Tracer::instance().spanEvent(name, cat, 'B', span.beginNs);
    if (sinks & kRequestSink) {
        span.requestParentId = local.request.spanId;
        span.requestSpanId = RequestTracer::instance().nextSpanId();
        local.request.spanId = span.requestSpanId;
    }
    return true;
}

void
closeSpan()
{
    ThreadSpans &local = t_spans;
    OpenSpan &span = local.stack.back();
    const uint64_t end_ns = slambench::metrics::now_ns();
    if (span.sinks & kTimelineSink)
        Tracer::instance().spanEvent(span.name, span.cat, 'E', end_ns);
    if (span.sinks & kRequestSink) {
        // The span is strictly nested inside the ScopedTraceContext
        // that installed its trace, so the context is still current.
        local.request.spanId = span.requestParentId;
        RequestSpan done;
        done.spanId = span.requestSpanId;
        done.parentSpanId = span.requestParentId;
        done.name = span.name;
        done.cat = span.cat;
        done.startNs = span.beginNs;
        done.endNs = end_ns;
        RequestTracer::instance().addSpan(local.request.traceId, done);
    }
    local.stack.pop_back();
}

} // namespace detail

Tracer::Tracer() : epochNs_(slambench::metrics::now_ns()) {}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setEnabled(bool on)
{
    detail::armSink(kTimelineSink, on);
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &buffer : buffers_)
        buffer->events.clear();
    t_spans.frame = 0;
    epochNs_ = slambench::metrics::now_ns();
}

void
Tracer::setFrame(uint64_t frame)
{
    t_spans.frame = frame;
    record("frame", Category::Marker, 'i', static_cast<double>(frame),
           slambench::metrics::now_ns());
}

uint64_t
Tracer::frame() const
{
    return t_spans.frame;
}

void
Tracer::spanEvent(const char *name, Category cat, char phase,
                  uint64_t now_ns)
{
    record(name, cat, phase, 0.0, now_ns);
}

void
Tracer::counter(const char *name, double value)
{
    record(name, Category::Counter, 'C', value,
           slambench::metrics::now_ns());
}

Tracer::ThreadBuffer &
Tracer::localBuffer()
{
    // The registry owns the buffer so recorded events outlive the
    // recording thread (worker pools are destroyed before export).
    static thread_local ThreadBuffer *buffer = nullptr;
    if (!buffer) {
        auto owned = std::make_unique<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(mutex_);
        owned->tid = static_cast<uint32_t>(buffers_.size());
        buffer = owned.get();
        buffers_.push_back(std::move(owned));
    }
    return *buffer;
}

void
Tracer::record(const char *name, Category cat, char phase,
               double value, uint64_t now_ns)
{
    Event event;
    event.name = name;
    event.tsNs = now_ns - epochNs_;
    event.frame = t_spans.frame;
    event.value = value;
    event.cat = cat;
    event.phase = phase;
    localBuffer().events.push_back(event);
}

size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t count = 0;
    for (const auto &buffer : buffers_)
        count += buffer->events.size();
    return count;
}

size_t
Tracer::threadCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t count = 0;
    for (const auto &buffer : buffers_)
        count += !buffer->events.empty();
    return count;
}

std::vector<std::vector<Event>>
Tracer::eventsByThread() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<Event>> out;
    out.reserve(buffers_.size());
    for (const auto &buffer : buffers_)
        out.push_back(buffer->events);
    return out;
}

std::vector<FrameKernelTotal>
Tracer::frameKernelTotals() const
{
    // Spans are RAII, so begins and ends nest per thread: pair them
    // with a per-thread stack and attribute the duration to the
    // frame the span *began* in.
    std::map<std::pair<uint64_t, std::string>,
             std::pair<size_t, double>>
        totals;
    for (const auto &events : eventsByThread()) {
        std::vector<const Event *> stack;
        for (const Event &event : events) {
            if (event.phase == 'B') {
                stack.push_back(&event);
            } else if (event.phase == 'E' && !stack.empty()) {
                const Event *begin = stack.back();
                stack.pop_back();
                if (begin->cat != Category::Kernel)
                    continue;
                auto &slot =
                    totals[{begin->frame, begin->name}];
                slot.first += 1;
                slot.second +=
                    static_cast<double>(event.tsNs - begin->tsNs) *
                    1e-9;
            }
        }
    }
    std::vector<FrameKernelTotal> out;
    out.reserve(totals.size());
    for (const auto &[key, value] : totals)
        out.push_back({key.first, key.second, value.first,
                       value.second});
    return out;
}

std::vector<KernelTotal>
Tracer::kernelTotals() const
{
    std::map<std::string, std::pair<size_t, double>> totals;
    for (const FrameKernelTotal &t : frameKernelTotals()) {
        auto &slot = totals[t.name];
        slot.first += t.spans;
        slot.second += t.seconds;
    }
    std::vector<KernelTotal> out;
    out.reserve(totals.size());
    for (const auto &[name, value] : totals)
        out.push_back({name, value.first, value.second});
    return out;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buf[64];
    const auto by_thread = eventsByThread();
    for (size_t tid = 0; tid < by_thread.size(); ++tid) {
        for (const Event &event : by_thread[tid]) {
            if (!first)
                os << ",";
            first = false;
            std::string line = "\n{\"name\":\"";
            appendEscaped(line, event.name);
            line += "\",\"cat\":\"";
            line += categoryName(event.cat);
            line += "\",\"ph\":\"";
            line += event.phase;
            line += "\",\"ts\":";
            std::snprintf(buf, sizeof(buf), "%.3f",
                          static_cast<double>(event.tsNs) * 1e-3);
            line += buf;
            line += ",\"pid\":1,\"tid\":";
            std::snprintf(buf, sizeof(buf), "%zu", tid);
            line += buf;
            if (event.phase == 'i')
                line += ",\"s\":\"g\"";
            if (event.phase == 'C') {
                std::snprintf(buf, sizeof(buf),
                              ",\"args\":{\"value\":%.17g}",
                              event.value);
                line += buf;
            } else {
                std::snprintf(buf, sizeof(buf),
                              ",\"args\":{\"frame\":%llu}",
                              static_cast<unsigned long long>(
                                  event.frame));
                line += buf;
            }
            line += "}";
            os << line;
        }
    }
    os << "\n]}\n";
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeChromeJson(os);
    return static_cast<bool>(os);
}

const char *
currentSpanName()
{
    const std::vector<OpenSpan> &stack = t_spans.stack;
    for (size_t i = stack.size(); i-- > 0;)
        if (stack[i].sinks & kTimelineSink)
            return stack[i].name;
    return nullptr;
}

// --- Request tracing ---------------------------------------------

namespace {

/**
 * SplitMix64 finalizer: a bijective 64-bit mix. Used both to derive
 * well-spread trace ids from a sequence counter and to turn a trace
 * id into the uniform variate behind the sampling decision — keeping
 * retention deterministic per id (no global RNG state, no rand()).
 */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** @return a uniform [0,1) variate derived from @p trace_id. */
double
sampleFraction(uint64_t trace_id)
{
    // Top 53 bits -> exactly representable double in [0, 1).
    return static_cast<double>(mix64(trace_id) >> 11) * 0x1.0p-53;
}

} // namespace

TraceContext
currentTraceContext()
{
    return t_spans.request;
}

TaskContext
captureTaskContext()
{
    const uint32_t armed = armedSinks();
    TaskContext ctx;
    if (armed & kTimelineSink) {
        ctx.spanName = currentSpanName();
        ctx.frame = t_spans.frame;
    }
    if (armed & kRequestSink)
        ctx.request = t_spans.request;
    return ctx;
}

void
recordQueueWait(const TraceContext &request, uint64_t enqueued_ns,
                uint64_t started_ns)
{
    if (!request.active() || !requestTracingArmed())
        return;
    RequestTracer &tracer = RequestTracer::instance();
    RequestSpan wait;
    wait.spanId = tracer.nextSpanId();
    wait.parentSpanId = request.spanId;
    wait.name = "queue_wait";
    wait.cat = Category::Worker;
    wait.startNs = enqueued_ns;
    wait.endNs = started_ns;
    tracer.addSpan(request.traceId, wait);
}

ScopedFrame::ScopedFrame(uint64_t frame) : prev_(t_spans.frame)
{
    t_spans.frame = frame;
}

ScopedFrame::~ScopedFrame() { t_spans.frame = prev_; }

ScopedTraceContext::ScopedTraceContext(const TraceContext &ctx)
{
    if (!ctx.active())
        return;
    prev_ = t_spans.request;
    t_spans.request = ctx;
    installed_ = true;
    setLogTraceId(ctx.traceId);
}

ScopedTraceContext::~ScopedTraceContext()
{
    if (!installed_)
        return;
    t_spans.request = prev_;
    setLogTraceId(prev_.traceId);
}

std::string
formatTraceId(uint64_t trace_id)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(trace_id));
    return buf;
}

uint64_t
parseTraceId(const std::string &text)
{
    size_t i = 0;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X'))
        i = 2;
    if (i >= text.size() || text.size() - i > 16)
        return 0;
    uint64_t value = 0;
    for (; i < text.size(); ++i) {
        const char c = text[i];
        uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<uint64_t>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<uint64_t>(c - 'A') + 10;
        else
            return 0;
        value = (value << 4) | digit;
    }
    return value;
}

RequestTracer &
RequestTracer::instance()
{
    static RequestTracer tracer;
    return tracer;
}

void
RequestTracer::configure(const RequestTraceOptions &options)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        options_ = options;
        if (options_.sampleRate < 0.0)
            options_.sampleRate = 0.0;
        if (options_.maxRetained == 0)
            options_.maxRetained = 1;
        if (options_.maxInflight == 0)
            options_.maxInflight = 1;
        inflight_.clear();
        inflightOrder_.clear();
        retained_.clear();
        exemplars_.clear();
        tracesStarted_ = 0;
        tracesRetained_ = 0;
        // Seed the id stream from the monotonic clock so ids differ
        // across runs; ids within a run are a mixed counter.
        idSeed_ = slambench::metrics::now_ns();
    }
    detail::armSink(kRequestSink, true);
}

void
RequestTracer::disarm()
{
    detail::armSink(kRequestSink, false);
}

void
RequestTracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.clear();
    inflightOrder_.clear();
    retained_.clear();
    exemplars_.clear();
    tracesStarted_ = 0;
    tracesRetained_ = 0;
}

RequestTraceOptions
RequestTracer::options() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return options_;
}

TraceContext
RequestTracer::begin(const std::string &tenant, uint64_t frame)
{
    if (!enabled())
        return {};
    static metrics::Counter &started_counter =
        metrics::Registry::instance().counter(
            "trace.requests.started");

    TraceContext ctx;
    const uint64_t seq =
        nextTraceSeq_.fetch_add(1, std::memory_order_relaxed) + 1;
    ctx.spanId = nextSpanId();

    RetainedTrace trace;
    trace.rootSpanId = ctx.spanId;
    trace.tenant = tenant;
    trace.frame = frame;
    trace.startNs = slambench::metrics::now_ns();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        uint64_t id = mix64(seq ^ idSeed_);
        if (id == 0)
            id = 1;
        ctx.traceId = id;
        trace.traceId = id;
        ++tracesStarted_;
        // Bound the in-flight set: a trace whose finish() never runs
        // (evicted here) simply drops its spans on addSpan().
        while (inflightOrder_.size() >= options_.maxInflight) {
            inflight_.erase(inflightOrder_.front());
            inflightOrder_.pop_front();
        }
        inflightOrder_.push_back(id);
        inflight_.emplace(id, std::move(trace));
    }
    started_counter.add();
    return ctx;
}

void
RequestTracer::addSpan(uint64_t trace_id, const RequestSpan &span)
{
    if (trace_id == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = inflight_.find(trace_id);
    if (it == inflight_.end())
        return;
    if (it->second.spans.size() >= options_.maxSpansPerTrace) {
        ++it->second.spansDropped;
        return;
    }
    it->second.spans.push_back(span);
}

void
RequestTracer::finish(const TraceContext &ctx,
                      const RequestTraceFinish &finish)
{
    if (!ctx.active())
        return;
    static metrics::Counter &retained_counter =
        metrics::Registry::instance().counter(
            "trace.requests.retained");
    static metrics::Counter &dropped_counter =
        metrics::Registry::instance().counter(
            "trace.requests.dropped");
    const uint64_t end_ns = slambench::metrics::now_ns();

    bool kept = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = inflight_.find(ctx.traceId);
        if (it == inflight_.end())
            return; // evicted while in flight
        RetainedTrace trace = std::move(it->second);
        inflight_.erase(it);
        inflightOrder_.erase(
            std::remove(inflightOrder_.begin(),
                        inflightOrder_.end(), ctx.traceId),
            inflightOrder_.end());

        trace.endNs = end_ns;
        trace.durationSeconds = finish.durationSeconds;
        trace.retention.sloBreach = finish.sloBreach;
        trace.retention.trackingLost = finish.trackingLost;
        trace.retention.topBucket = finish.topBucket;
        kept = trace.retention.flagged();
        if (!kept && options_.sampleRate > 0.0 &&
            sampleFraction(trace.traceId) < options_.sampleRate) {
            trace.retention.sampled = true;
            kept = true;
        }
        if (kept) {
            // Synthesized root: every recorded span is a (transitive)
            // child; appended last so completion order holds.
            RequestSpan root;
            root.spanId = trace.rootSpanId;
            root.parentSpanId = 0;
            root.name = "frame";
            root.cat = Category::Phase;
            root.startNs = trace.startNs;
            root.endNs = end_ns;
            trace.spans.push_back(root);

            if (!finish.exemplarMetric.empty()) {
                TraceExemplar exemplar;
                exemplar.traceId = trace.traceId;
                exemplar.value = finish.durationSeconds;
                exemplar.ns = end_ns;
                exemplars_[finish.exemplarMetric] = exemplar;
            }
            ++tracesRetained_;
            retained_.push_back(std::move(trace));
            while (retained_.size() > options_.maxRetained)
                retained_.pop_front();
        }
    }
    (kept ? retained_counter : dropped_counter).add();
}

uint64_t
RequestTracer::tracesStarted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tracesStarted_;
}

uint64_t
RequestTracer::tracesRetained() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tracesRetained_;
}

std::vector<RetainedTrace>
RequestTracer::retainedSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {retained_.rbegin(), retained_.rend()};
}

bool
RequestTracer::findTrace(uint64_t trace_id,
                         RetainedTrace *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const RetainedTrace &trace : retained_) {
        if (trace.traceId == trace_id) {
            *out = trace;
            return true;
        }
    }
    return false;
}

bool
RequestTracer::exemplarFor(const std::string &metric,
                           TraceExemplar *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = exemplars_.find(metric);
    if (it == exemplars_.end())
        return false;
    *out = it->second;
    return true;
}

Session::Session(SessionOptions options)
    : options_(std::move(options))
{
    if (!options_.timelinePath.empty()) {
        Tracer &tracer = Tracer::instance();
        tracer.clear();
        tracer.setEnabled(true);
        sinks_ |= kTimelineSink;
    }
    if (options_.requests) {
        const RequestTraceOptions &requests = options_.requestOptions;
        RequestTracer::instance().configure(requests);
        sinks_ |= kRequestSink;
        logInfo() << "trace: request tracing armed (sample rate "
                  << requests.sampleRate << ", store "
                  << requests.maxRetained << " traces)";
    }
}

Session::~Session()
{
    if (sinks_ & kRequestSink)
        RequestTracer::instance().disarm();
    if (!(sinks_ & kTimelineSink))
        return;
    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(false);
    if (tracer.writeChromeJson(options_.timelinePath))
        logInfo() << "trace: wrote " << options_.timelinePath;
    else
        logError() << "trace: cannot write " << options_.timelinePath;
}

} // namespace slambench::support::trace
