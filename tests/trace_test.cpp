/**
 * @file
 * Tests of the tracing subsystem: span nesting, zero-cost disabled
 * path, Chrome JSON well-formedness (every B paired with an E),
 * worker-chunk attribution, per-thread frame stamps, agreement
 * between the per-frame span aggregate and the WorkCounts host-time
 * accounting, request traces, and the span model (one ScopedSpan
 * feeding the timeline and request sinks).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dataset/generator.hpp"
#include "kfusion/pipeline.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace {

using namespace slambench;
using namespace slambench::support::trace;

/** Every test starts and ends with a disabled, empty tracer. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer::instance().setEnabled(false);
        Tracer::instance().clear();
    }

    void
    TearDown() override
    {
        Tracer::instance().setEnabled(false);
        Tracer::instance().clear();
    }
};

/** @return number of occurrences of @p needle in @p haystack. */
size_t
countOccurrences(const std::string &haystack,
                 const std::string &needle)
{
    size_t count = 0;
    for (size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST_F(TraceTest, SpansNestAndPair)
{
    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(true);
    {
        ScopedSpan outer("outer");
        EXPECT_STREQ(currentSpanName(), "outer");
        {
            ScopedSpan inner("inner", Category::Kernel);
            EXPECT_STREQ(currentSpanName(), "inner");
        }
        EXPECT_STREQ(currentSpanName(), "outer");
    }
    EXPECT_EQ(currentSpanName(), nullptr);
    tracer.setEnabled(false);

    // This thread's buffer holds B(outer) B(inner) E(inner) E(outer).
    bool found = false;
    for (const auto &events : tracer.eventsByThread()) {
        if (events.empty())
            continue;
        ASSERT_EQ(events.size(), 4u);
        EXPECT_STREQ(events[0].name, "outer");
        EXPECT_EQ(events[0].phase, 'B');
        EXPECT_STREQ(events[1].name, "inner");
        EXPECT_EQ(events[1].phase, 'B');
        EXPECT_STREQ(events[2].name, "inner");
        EXPECT_EQ(events[2].phase, 'E');
        EXPECT_STREQ(events[3].name, "outer");
        EXPECT_EQ(events[3].phase, 'E');
        EXPECT_LE(events[0].tsNs, events[1].tsNs);
        EXPECT_LE(events[1].tsNs, events[2].tsNs);
        EXPECT_LE(events[2].tsNs, events[3].tsNs);
        found = true;
    }
    EXPECT_TRUE(found);
}

TEST_F(TraceTest, DisabledEmitsNothing)
{
    Tracer &tracer = Tracer::instance();
    ASSERT_FALSE(tracer.enabled());
    {
        ScopedSpan span("should_not_record", Category::Kernel);
        TRACE_SCOPE("macro_should_not_record");
        TRACE_COUNTER("counter", 42.0);
        TRACE_FRAME(7);
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.threadCount(), 0u);
    // The frame stamp is untouched by the disabled TRACE_FRAME.
    EXPECT_EQ(tracer.frame(), 0u);
}

TEST_F(TraceTest, FrameStampsAndCounters)
{
    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(true);
    TRACE_FRAME(3);
    {
        ScopedSpan span("work", Category::Kernel);
        TRACE_COUNTER("items", 11.0);
    }
    tracer.setEnabled(false);

    const auto totals = tracer.frameKernelTotals();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].frame, 3u);
    EXPECT_EQ(totals[0].name, "work");
    EXPECT_EQ(totals[0].spans, 1u);
    EXPECT_GT(totals[0].seconds, 0.0);

    bool counter_seen = false;
    for (const auto &events : tracer.eventsByThread())
        for (const Event &event : events)
            if (event.phase == 'C') {
                EXPECT_STREQ(event.name, "items");
                EXPECT_DOUBLE_EQ(event.value, 11.0);
                EXPECT_EQ(event.frame, 3u);
                counter_seen = true;
            }
    EXPECT_TRUE(counter_seen);
}

TEST_F(TraceTest, WorkerChunksAttributeToDispatchingSpan)
{
    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(true);
    support::ThreadPool pool(2);
    {
        ScopedSpan span("dispatch_target", Category::Kernel);
        pool.parallelFor(0, 64, [](size_t) {});
    }
    tracer.setEnabled(false);

    size_t worker_chunks = 0;
    for (const auto &events : tracer.eventsByThread())
        for (const Event &event : events)
            if (event.cat == Category::Worker && event.phase == 'B') {
                EXPECT_STREQ(event.name, "dispatch_target");
                ++worker_chunks;
            }
    EXPECT_GE(worker_chunks, 1u);

    // Worker spans are excluded from the kernel aggregate, so the
    // dispatching span is counted exactly once.
    const auto totals = tracer.kernelTotals();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].name, "dispatch_target");
    EXPECT_EQ(totals[0].spans, 1u);
}

TEST_F(TraceTest, FrameStampIsPerThreadAndFollowsPoolTasks)
{
    // Two pipelines on two threads: B's frame marker must not
    // restamp A's events, and a chunk a pool worker runs under A's
    // span carries A's frame.
    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(true);
    support::ThreadPool pool(1);
    TRACE_FRAME(1);
    std::thread other([] { TRACE_FRAME(2); });
    other.join();
    EXPECT_EQ(tracer.frame(), 1u);
    {
        ScopedSpan span("stamped", Category::Kernel);
        // A chunk on this thread waits until one has run elsewhere,
        // so the worker is certain to run one (no timed waits).
        const std::thread::id self = std::this_thread::get_id();
        std::mutex mutex;
        std::condition_variable ran;
        bool worker_ran = false;
        pool.parallelFor(0, 2, [&](size_t) {
            std::unique_lock<std::mutex> lock(mutex);
            if (std::this_thread::get_id() == self) {
                ran.wait(lock, [&] { return worker_ran; });
            } else {
                worker_ran = true;
                ran.notify_all();
            }
        });
    }
    tracer.setEnabled(false);

    const auto by_thread = tracer.eventsByThread();
    size_t kernel_thread = by_thread.size();
    size_t stamped = 0;
    for (size_t tid = 0; tid < by_thread.size(); ++tid)
        for (const Event &event : by_thread[tid]) {
            if (std::string(event.name) != "stamped")
                continue;
            EXPECT_EQ(event.frame, 1u)
                << categoryName(event.cat) << " " << event.phase;
            if (event.cat == Category::Kernel)
                kernel_thread = tid;
            ++stamped;
        }
    ASSERT_LT(kernel_thread, by_thread.size());
    size_t off_thread_chunks = 0;
    for (size_t tid = 0; tid < by_thread.size(); ++tid)
        for (const Event &event : by_thread[tid])
            off_thread_chunks += tid != kernel_thread &&
                                 event.cat == Category::Worker &&
                                 event.phase == 'B';
    EXPECT_GE(off_thread_chunks, 1u);
    EXPECT_GE(stamped, 4u); // Kernel B/E plus >= 1 chunk B/E.
}

TEST_F(TraceTest, ChromeJsonPairsEveryBeginWithAnEnd)
{
    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(true);
    support::ThreadPool pool(2);
    TRACE_FRAME(0);
    for (int i = 0; i < 3; ++i) {
        ScopedSpan outer("outer", Category::Phase);
        ScopedSpan inner("inner", Category::Kernel);
        pool.parallelFor(0, 32, [](size_t) {});
        TRACE_COUNTER("samples", static_cast<double>(i));
    }
    tracer.setEnabled(false);

    std::ostringstream os;
    tracer.writeChromeJson(os);
    const std::string json = os.str();

    // Loadable object shape with one event array.
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(countOccurrences(json, "\"traceEvents\""), 1u);
    EXPECT_EQ(countOccurrences(json, "{"),
              countOccurrences(json, "}"));
    EXPECT_EQ(countOccurrences(json, "["),
              countOccurrences(json, "]"));

    // Every begin has an end; counters and markers are present.
    EXPECT_GT(countOccurrences(json, "\"ph\":\"B\""), 0u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""),
              countOccurrences(json, "\"ph\":\"E\""));
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"C\""), 3u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"i\""), 1u);

    // File variant writes the same document.
    const std::string path =
        ::testing::TempDir() + "trace_test_out.json";
    ASSERT_TRUE(tracer.writeChromeJson(path));
    std::ifstream in(path);
    std::stringstream file_contents;
    file_contents << in.rdbuf();
    EXPECT_EQ(file_contents.str(), json);
    std::remove(path.c_str());
}

TEST_F(TraceTest, CsvAggregateMatchesWorkCounts)
{
    dataset::SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 4;
    spec.renderRgb = false;
    spec.seed = 42;
    const dataset::Sequence sequence = generateSequence(spec);

    kfusion::KFusionConfig config;
    config.volumeResolution = 32;
    config.volumeSize = 5.0f;
    config.pyramidIterations = {3, 2, 2};

    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(true);
    kfusion::KFusion pipeline(config, sequence.intrinsics);
    pipeline.setPose(sequence.groundTruth.pose(0));
    for (const auto &frame : sequence.frames)
        pipeline.processFrame(frame.depthMm);
    tracer.setEnabled(false);

    const kfusion::WorkCounts &work = pipeline.totalWork();

    // Every kernel with host time has a span total within 5% (plus
    // a small absolute floor for sub-millisecond kernels: the span
    // brackets the timer, so it reads slightly longer).
    const auto totals = tracer.kernelTotals();
    double traced_total = 0.0;
    for (size_t k = 0; k < kfusion::kNumKernels; ++k) {
        const auto id = static_cast<kfusion::KernelId>(k);
        const double host = work.hostSecondsFor(id);
        if (host <= 0.0)
            continue;
        double traced = 0.0;
        for (const auto &t : totals)
            if (t.name == kfusion::kernelName(id))
                traced = t.seconds;
        EXPECT_GT(traced, 0.0) << kfusion::kernelName(id);
        EXPECT_LE(std::abs(traced - host),
                  std::max(0.05 * host, 5e-4))
            << kfusion::kernelName(id);
        traced_total += traced;
    }
    EXPECT_LE(std::abs(traced_total - work.totalHostSeconds()),
              std::max(0.05 * work.totalHostSeconds(), 2e-3));

    // The per-frame aggregate covers every processed frame and sums
    // to the same per-kernel totals.
    const auto per_frame = tracer.frameKernelTotals();
    uint64_t max_frame = 0;
    double per_frame_total = 0.0;
    for (const auto &t : per_frame) {
        max_frame = std::max(max_frame, t.frame);
        per_frame_total += t.seconds;
    }
    EXPECT_EQ(max_frame, spec.numFrames - 1);
    EXPECT_NEAR(per_frame_total, traced_total, 1e-9);

    size_t integrate_rows = 0;
    for (const auto &t : per_frame)
        integrate_rows += t.name == "integrate";
    EXPECT_GT(integrate_rows, 0u);
}

TEST_F(TraceTest, SessionExportsAndDisarms)
{
    const std::string json_path =
        ::testing::TempDir() + "trace_session.json";
    {
        SessionOptions options;
        options.timelinePath = json_path;
        Session session(options);
        EXPECT_TRUE(session.active());
        EXPECT_TRUE(Tracer::instance().enabled());
        TRACE_SCOPE("session_span");
    }
    EXPECT_FALSE(Tracer::instance().enabled());

    std::ifstream json_in(json_path);
    ASSERT_TRUE(json_in.good());
    std::stringstream json_contents;
    json_contents << json_in.rdbuf();
    EXPECT_NE(json_contents.str().find("session_span"),
              std::string::npos);
    std::remove(json_path.c_str());

    // A pathless session stays inert.
    Session inert(SessionOptions{});
    EXPECT_FALSE(inert.active());
    EXPECT_FALSE(Tracer::instance().enabled());
}

// --- Request tracing (end-to-end per-frame traces) ---

/** Every test starts and ends with a disarmed, empty tracer. */
class RequestTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RequestTracer::instance().disarm();
        RequestTracer::instance().clear();
    }

    void
    TearDown() override
    {
        RequestTracer::instance().disarm();
        RequestTracer::instance().clear();
        support::setLogTraceId(0);
    }

    /** Arm the tracer with @p rate and test-friendly bounds. */
    static void
    arm(double rate)
    {
        RequestTraceOptions options;
        options.sampleRate = rate;
        options.maxRetained = 64;
        RequestTracer::instance().configure(options);
    }

    /** @return the retained trace for @p ctx (test fails if absent). */
    static RetainedTrace
    retained(const TraceContext &ctx)
    {
        RetainedTrace trace;
        EXPECT_TRUE(RequestTracer::instance().findTrace(ctx.traceId,
                                                        &trace));
        return trace;
    }

    /** @return the span named @p name, or nullptr. */
    static const RequestSpan *
    findSpan(const RetainedTrace &trace, const char *name)
    {
        for (const RequestSpan &span : trace.spans)
            if (span.name && std::string(span.name) == name)
                return &span;
        return nullptr;
    }
};

TEST_F(RequestTraceTest, DisarmedIsInert)
{
    auto &tracer = RequestTracer::instance();
    ASSERT_FALSE(requestTracingArmed());
    const TraceContext ctx = tracer.begin("t00", 0);
    EXPECT_FALSE(ctx.active());
    {
        ScopedTraceContext scope(ctx);
        ScopedSpan span("ignored", Category::Kernel);
        EXPECT_FALSE(currentTraceContext().active());
    }
    RequestTraceFinish fin;
    fin.sloBreach = true;
    tracer.finish(ctx, fin);
    EXPECT_EQ(tracer.tracesStarted(), 0u);
    EXPECT_EQ(tracer.tracesRetained(), 0u);
    EXPECT_TRUE(tracer.retainedSnapshot().empty());
}

TEST_F(RequestTraceTest, TailRetentionKeepsFlaggedDropsPlain)
{
    arm(0.0); // no probabilistic retention: only flags keep traces
    auto &tracer = RequestTracer::instance();

    const TraceContext plain = tracer.begin("t00", 0);
    ASSERT_TRUE(plain.active());
    tracer.finish(plain, RequestTraceFinish{});

    const TraceContext breach = tracer.begin("t00", 1);
    RequestTraceFinish fin;
    fin.durationSeconds = 0.25;
    fin.sloBreach = true;
    tracer.finish(breach, fin);

    const TraceContext lost = tracer.begin("t01", 2);
    RequestTraceFinish lost_fin;
    lost_fin.trackingLost = true;
    tracer.finish(lost, lost_fin);

    const TraceContext slow = tracer.begin("t01", 3);
    RequestTraceFinish slow_fin;
    slow_fin.topBucket = true;
    tracer.finish(slow, slow_fin);

    EXPECT_EQ(tracer.tracesStarted(), 4u);
    EXPECT_EQ(tracer.tracesRetained(), 3u);
    RetainedTrace trace;
    EXPECT_FALSE(tracer.findTrace(plain.traceId, &trace));

    trace = retained(breach);
    EXPECT_TRUE(trace.retention.sloBreach);
    EXPECT_FALSE(trace.retention.sampled);
    EXPECT_EQ(trace.tenant, "t00");
    EXPECT_EQ(trace.frame, 1u);
    EXPECT_DOUBLE_EQ(trace.durationSeconds, 0.25);
    // The synthesized root span covers the trace and closes last.
    ASSERT_FALSE(trace.spans.empty());
    EXPECT_EQ(trace.spans.back().spanId, trace.rootSpanId);
    EXPECT_STREQ(trace.spans.back().name, "frame");

    EXPECT_TRUE(retained(lost).retention.trackingLost);
    EXPECT_TRUE(retained(slow).retention.topBucket);
}

TEST_F(RequestTraceTest, SampleRateOneRetainsUnflaggedTraces)
{
    arm(1.0);
    auto &tracer = RequestTracer::instance();
    for (uint64_t frame = 0; frame < 16; ++frame) {
        const TraceContext ctx = tracer.begin("t00", frame);
        tracer.finish(ctx, RequestTraceFinish{});
    }
    EXPECT_EQ(tracer.tracesRetained(), 16u);
    for (const RetainedTrace &trace : tracer.retainedSnapshot()) {
        EXPECT_TRUE(trace.retention.sampled);
        EXPECT_FALSE(trace.retention.flagged());
    }
}

TEST_F(RequestTraceTest, SpansNestUnderInstalledContext)
{
    arm(1.0);
    auto &tracer = RequestTracer::instance();
    const TraceContext ctx = tracer.begin("t00", 0);
    {
        ScopedTraceContext scope(ctx);
        EXPECT_EQ(currentTraceContext().traceId, ctx.traceId);
        ScopedSpan outer("outer_phase", Category::Phase);
        {
            ScopedSpan inner("inner_kernel", Category::Kernel);
        }
    }
    EXPECT_FALSE(currentTraceContext().active());
    tracer.finish(ctx, RequestTraceFinish{});

    const RetainedTrace trace = retained(ctx);
    const RequestSpan *outer = findSpan(trace, "outer_phase");
    const RequestSpan *inner = findSpan(trace, "inner_kernel");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // inner is a child of outer, outer a child of the root span.
    EXPECT_EQ(inner->parentSpanId, outer->spanId);
    EXPECT_EQ(outer->parentSpanId, trace.rootSpanId);
    EXPECT_LE(outer->startNs, inner->startNs);
    EXPECT_LE(inner->endNs, outer->endNs);
    EXPECT_EQ(inner->cat, Category::Kernel);
}

TEST_F(RequestTraceTest, PropagatesAcrossPoolTaskBoundary)
{
    arm(1.0);
    auto &tracer = RequestTracer::instance();
    support::ThreadPool pool(2);

    const TraceContext ctx = tracer.begin("t00", 0);
    support::ThreadPool::TaskGroup group;
    {
        ScopedTraceContext scope(ctx);
        pool.submit(group, [] {
            ScopedSpan span("worker_side", Category::Kernel);
        });
    }
    pool.wait(group);
    tracer.finish(ctx, RequestTraceFinish{});

    const RetainedTrace trace = retained(ctx);
    // The worker-side span landed in the submitter's trace, as a
    // child of the context the submitter had installed (the root).
    const RequestSpan *worker = findSpan(trace, "worker_side");
    ASSERT_NE(worker, nullptr);
    EXPECT_EQ(worker->parentSpanId, trace.rootSpanId);
    // The pool synthesized a queue-wait span for the task.
    const RequestSpan *queue_wait = findSpan(trace, "queue_wait");
    ASSERT_NE(queue_wait, nullptr);
    EXPECT_EQ(queue_wait->parentSpanId, trace.rootSpanId);
    EXPECT_EQ(queue_wait->cat, Category::Worker);
    EXPECT_LE(queue_wait->startNs, queue_wait->endNs);
}

TEST_F(RequestTraceTest, NestedPoolTasksKeepParentLinkage)
{
    arm(1.0);
    auto &tracer = RequestTracer::instance();
    support::ThreadPool pool(2);

    const TraceContext ctx = tracer.begin("t00", 0);
    support::ThreadPool::TaskGroup outer_group;
    {
        ScopedTraceContext scope(ctx);
        pool.submit(outer_group, [&pool] {
            ScopedSpan outer("outer_task", Category::Phase);
            support::ThreadPool::TaskGroup inner_group;
            pool.submit(inner_group, [] {
                ScopedSpan inner("inner_task", Category::Kernel);
            });
            pool.wait(inner_group);
        });
    }
    pool.wait(outer_group);
    tracer.finish(ctx, RequestTraceFinish{});

    const RetainedTrace trace = retained(ctx);
    const RequestSpan *outer = findSpan(trace, "outer_task");
    const RequestSpan *inner = findSpan(trace, "inner_task");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // The nested submit happened inside outer_task's span, so the
    // inner task's spans hang off outer_task even though a different
    // worker executed them.
    EXPECT_EQ(outer->parentSpanId, trace.rootSpanId);
    EXPECT_EQ(inner->parentSpanId, outer->spanId);
}

TEST_F(RequestTraceTest, ConcurrentTenantsDoNotLeakSpans)
{
    arm(1.0);
    auto &tracer = RequestTracer::instance();
    support::ThreadPool pool(4);

    constexpr size_t kTenants = 6;
    std::vector<TraceContext> contexts(kTenants);
    support::ThreadPool::TaskGroup group;
    for (size_t t = 0; t < kTenants; ++t) {
        char tenant[8];
        std::snprintf(tenant, sizeof(tenant), "t%02zu", t);
        contexts[t] = tracer.begin(tenant, t);
        ScopedTraceContext scope(contexts[t]);
        pool.submit(group, [t] {
            // Distinct static names per tenant index, so a span
            // leaking into another tenant's trace is detectable.
            static const char *kNames[kTenants] = {
                "tenant0_work", "tenant1_work", "tenant2_work",
                "tenant3_work", "tenant4_work", "tenant5_work"};
            ScopedSpan span(kNames[t], Category::Kernel);
            ScopedSpan nested("shared_child", Category::Kernel);
        });
    }
    pool.wait(group);
    for (size_t t = 0; t < kTenants; ++t)
        tracer.finish(contexts[t], RequestTraceFinish{});

    for (size_t t = 0; t < kTenants; ++t) {
        const RetainedTrace trace = retained(contexts[t]);
        char expected[24];
        std::snprintf(expected, sizeof(expected), "tenant%zu_work",
                      t);
        const RequestSpan *own = findSpan(trace, expected);
        ASSERT_NE(own, nullptr) << expected;
        EXPECT_EQ(own->parentSpanId, trace.rootSpanId);
        // No other tenant's work span leaked into this trace.
        for (size_t other = 0; other < kTenants; ++other) {
            if (other == t)
                continue;
            char leaked[24];
            std::snprintf(leaked, sizeof(leaked), "tenant%zu_work",
                          other);
            EXPECT_EQ(findSpan(trace, leaked), nullptr)
                << "trace of tenant " << t << " contains "
                << leaked;
        }
        // And the nested span is a child of this tenant's own span.
        const RequestSpan *nested = findSpan(trace, "shared_child");
        ASSERT_NE(nested, nullptr);
        EXPECT_EQ(nested->parentSpanId, own->spanId);
    }
}

TEST_F(RequestTraceTest, ExemplarFollowsRetainedTrace)
{
    arm(0.0);
    auto &tracer = RequestTracer::instance();

    const TraceContext kept = tracer.begin("t00", 0);
    RequestTraceFinish fin;
    fin.durationSeconds = 0.125;
    fin.sloBreach = true;
    fin.exemplarMetric = "serve.tenant.frame_seconds{tenant=\"t00\"}";
    tracer.finish(kept, fin);

    TraceExemplar exemplar;
    ASSERT_TRUE(tracer.exemplarFor(
        "serve.tenant.frame_seconds{tenant=\"t00\"}", &exemplar));
    EXPECT_EQ(exemplar.traceId, kept.traceId);
    EXPECT_DOUBLE_EQ(exemplar.value, 0.125);

    // A dropped trace must not become the exemplar.
    const TraceContext dropped = tracer.begin("t00", 1);
    RequestTraceFinish dropped_fin;
    dropped_fin.durationSeconds = 9.0;
    dropped_fin.exemplarMetric = fin.exemplarMetric;
    tracer.finish(dropped, dropped_fin);
    ASSERT_TRUE(tracer.exemplarFor(
        "serve.tenant.frame_seconds{tenant=\"t00\"}", &exemplar));
    EXPECT_EQ(exemplar.traceId, kept.traceId);

    EXPECT_FALSE(tracer.exemplarFor("no.such.metric", &exemplar));
}

TEST_F(RequestTraceTest, RetainedStoreIsBounded)
{
    RequestTraceOptions options;
    options.sampleRate = 1.0;
    options.maxRetained = 8;
    RequestTracer::instance().configure(options);
    auto &tracer = RequestTracer::instance();
    for (uint64_t frame = 0; frame < 32; ++frame) {
        const TraceContext ctx = tracer.begin("t00", frame);
        tracer.finish(ctx, RequestTraceFinish{});
    }
    const auto snapshot = tracer.retainedSnapshot();
    ASSERT_EQ(snapshot.size(), 8u);
    // Newest first; FIFO eviction kept the most recent frames.
    EXPECT_EQ(snapshot.front().frame, 31u);
    EXPECT_EQ(snapshot.back().frame, 24u);
}

TEST_F(RequestTraceTest, TraceIdFormatParseRoundTrip)
{
    EXPECT_EQ(formatTraceId(0x00ffee0011223344ull),
              "00ffee0011223344");
    EXPECT_EQ(parseTraceId("00ffee0011223344"),
              0x00ffee0011223344ull);
    EXPECT_EQ(parseTraceId("0x00ffee0011223344"),
              0x00ffee0011223344ull);
    EXPECT_EQ(parseTraceId(""), 0u);
    EXPECT_EQ(parseTraceId("not-a-trace-id"), 0u);
    EXPECT_EQ(parseTraceId("12345"), 0x12345ull);
}

TEST_F(RequestTraceTest, ScopedContextCarriesLogCorrelation)
{
    arm(1.0);
    auto &tracer = RequestTracer::instance();
    const TraceContext ctx = tracer.begin("t00", 0);
    ASSERT_EQ(support::logTraceId(), 0u);
    {
        ScopedTraceContext scope(ctx);
        EXPECT_EQ(support::logTraceId(), ctx.traceId);
        // A WARN inside the context carries the correlation id.
        ::testing::internal::CaptureStderr();
        support::logWarn() << "correlated warning";
        const std::string line =
            ::testing::internal::GetCapturedStderr();
        EXPECT_NE(line.find("trace_id=" + formatTraceId(ctx.traceId)),
                  std::string::npos)
            << line;
    }
    EXPECT_EQ(support::logTraceId(), 0u);
    // Outside any context, no correlation suffix is appended.
    ::testing::internal::CaptureStderr();
    support::logWarn() << "uncorrelated warning";
    const std::string line =
        ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(line.find("trace_id="), std::string::npos) << line;
    tracer.finish(ctx, RequestTraceFinish{});
}

// --- Span model: one producer, two sinks ---

/** Every test starts and ends with every sink disarmed and empty. */
class SpanModel : public ::testing::Test
{
  protected:
    void SetUp() override { reset(); }

    void
    TearDown() override
    {
        reset();
        support::setLogTraceId(0);
    }

    static void
    reset()
    {
        Tracer::instance().setEnabled(false);
        Tracer::instance().clear();
        RequestTracer::instance().disarm();
        RequestTracer::instance().clear();
    }

    static void
    armRequests()
    {
        RequestTraceOptions options;
        options.sampleRate = 1.0;
        options.maxRetained = 8;
        RequestTracer::instance().configure(options);
    }

    static void
    armAll()
    {
        Tracer::instance().setEnabled(true);
        armRequests();
    }

    static void
    disarmAll()
    {
        Tracer::instance().setEnabled(false);
        RequestTracer::instance().disarm();
    }

    /** @return Kernel/Worker timeline spans per name; fails the test
     *  unless every name's begins match its ends. */
    static std::map<std::string, uint64_t>
    timelineCounts()
    {
        std::map<std::string, uint64_t> begins, ends;
        for (const auto &events : Tracer::instance().eventsByThread())
            for (const Event &event : events) {
                if (event.cat != Category::Kernel &&
                    event.cat != Category::Worker)
                    continue;
                if (event.phase == 'B')
                    ++begins[event.name];
                else if (event.phase == 'E')
                    ++ends[event.name];
            }
        EXPECT_EQ(begins, ends);
        return begins;
    }

    /** @return Kernel/Worker spans of @p trace per name, without the
     *  pool's queue_wait spans. */
    static std::map<std::string, uint64_t>
    requestCounts(const RetainedTrace &trace)
    {
        std::map<std::string, uint64_t> counts;
        for (const RequestSpan &span : trace.spans)
            if ((span.cat == Category::Kernel ||
                 span.cat == Category::Worker) &&
                std::string(span.name) != "queue_wait")
                ++counts[span.name];
        return counts;
    }

    /** @return spans of @p trace named @p name in category @p cat. */
    static std::vector<RequestSpan>
    spansOf(const RetainedTrace &trace, const char *name, Category cat)
    {
        std::vector<RequestSpan> out;
        for (const RequestSpan &span : trace.spans)
            if (span.cat == cat && std::string(span.name) == name)
                out.push_back(span);
        return out;
    }
};

TEST_F(SpanModel, AllSinksSeeTheSameKernelAndWorkerSpans)
{
    armAll();
    support::ThreadPool pool(3);
    auto &requests = RequestTracer::instance();
    const TraceContext ctx = requests.begin("t00", 0);
    {
        ScopedTraceContext scope(ctx);
        ScopedSpan phase("frame_phase", Category::Phase);
        ScopedSpan kernel("pooled_kernel", Category::Kernel);
        pool.parallelFor(0, 64, [](size_t) {});
    }
    disarmAll();
    requests.finish(ctx, RequestTraceFinish{});
    RetainedTrace trace;
    ASSERT_TRUE(requests.findTrace(ctx.traceId, &trace));

    // One Kernel span plus its worker chunks, counted alike by both
    // sinks.
    const auto timeline = timelineCounts();
    EXPECT_EQ(requestCounts(trace), timeline);
    ASSERT_EQ(timeline.size(), 1u);
    EXPECT_GE(timeline.at("pooled_kernel"), 2u);

    // Worker chunks carry the dispatching kernel's name everywhere:
    // on the timeline and as children of the kernel's request span.
    size_t timeline_chunks = 0;
    for (const auto &events : Tracer::instance().eventsByThread())
        for (const Event &event : events)
            if (event.cat == Category::Worker && event.phase == 'B') {
                EXPECT_STREQ(event.name, "pooled_kernel");
                ++timeline_chunks;
            }
    const auto kernel_spans =
        spansOf(trace, "pooled_kernel", Category::Kernel);
    ASSERT_EQ(kernel_spans.size(), 1u);
    const auto chunks =
        spansOf(trace, "pooled_kernel", Category::Worker);
    EXPECT_EQ(chunks.size(), timeline_chunks);
    for (const RequestSpan &chunk : chunks)
        EXPECT_EQ(chunk.parentSpanId, kernel_spans[0].spanId);
    const auto phases =
        spansOf(trace, "frame_phase", Category::Phase);
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(kernel_spans[0].parentSpanId, phases[0].spanId);
}

TEST_F(SpanModel, RequestSinkAloneAddsNoWorkerChunks)
{
    armRequests();
    support::ThreadPool pool(3);
    auto &requests = RequestTracer::instance();
    const TraceContext ctx = requests.begin("t00", 0);
    {
        ScopedTraceContext scope(ctx);
        ScopedSpan kernel("pooled_kernel", Category::Kernel);
        EXPECT_EQ(currentSpanName(), nullptr);
        pool.parallelFor(0, 64, [](size_t) {});
    }
    disarmAll();
    requests.finish(ctx, RequestTraceFinish{});
    RetainedTrace trace;
    ASSERT_TRUE(requests.findTrace(ctx.traceId, &trace));

    EXPECT_EQ(spansOf(trace, "pooled_kernel", Category::Kernel).size(),
              1u);
    EXPECT_TRUE(
        spansOf(trace, "pooled_kernel", Category::Worker).empty());
    // The three helper runners still record their queue wait.
    EXPECT_EQ(spansOf(trace, "queue_wait", Category::Worker).size(),
              3u);
    EXPECT_EQ(Tracer::instance().eventCount(), 0u);
}

TEST_F(SpanModel, SpanOpenAtDisarmStillClosesInItsSinks)
{
    armAll();
    auto &requests = RequestTracer::instance();
    const TraceContext ctx = requests.begin("t00", 0);
    {
        ScopedTraceContext scope(ctx);
        ScopedSpan straddling("straddling", Category::Kernel);
        disarmAll();
        // Opened after the disarm: reaches no sink.
        ScopedSpan late("late", Category::Kernel);
        EXPECT_STREQ(currentSpanName(), "straddling");
    }
    EXPECT_EQ(currentSpanName(), nullptr);
    requests.finish(ctx, RequestTraceFinish{});
    RetainedTrace trace;
    ASSERT_TRUE(requests.findTrace(ctx.traceId, &trace));

    const std::map<std::string, uint64_t> expected{{"straddling", 1}};
    EXPECT_EQ(timelineCounts(), expected);
    EXPECT_EQ(requestCounts(trace), expected);
}

} // namespace
