/**
 * @file
 * Tests for the hardware-counter profiling layer (support/pmu.hpp):
 * pure sample/derived-metric math, multiplex rescaling, exclusive
 * span attribution with an injected fake counter backend (single
 * thread, nested spans, and multi-thread aggregation), the
 * trace::ScopedSpan integration, and the graceful-degradation
 * contract (null backend keeps run reports schema-stable).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.hpp"
#include "support/pmu.hpp"
#include "support/trace.hpp"

namespace {

namespace pmu = slambench::support::pmu;
namespace trace = slambench::support::trace;
namespace metrics = slambench::support::metrics;
using pmu::CounterId;
using pmu::counterBit;
using pmu::Sample;

// --- Fake backend ------------------------------------------------
//
// Deterministic counter source: every read() advances each counter
// in the mask by a fixed per-counter step, so span deltas are exact
// multiples of the step and exclusive attribution can be checked
// against hand-computed values. Each thread gets its own instance
// (mirroring the per-thread perf groups), starting from zero.

constexpr double kStep = 100.0;

/** Step of counter @p i per read: 100, 200, 300, ... */
double
stepOf(size_t i)
{
    return kStep * static_cast<double>(i + 1);
}

class FakeThreadCounters final : public pmu::ThreadCounters
{
  public:
    explicit FakeThreadCounters(uint32_t mask) : mask_(mask) {}

    bool
    read(Sample &out) override
    {
        ++reads_;
        out = Sample{};
        for (size_t i = 0; i < pmu::kNumCounters; ++i)
            if (mask_ & (1u << i))
                out.set(static_cast<CounterId>(i),
                        static_cast<double>(reads_) * stepOf(i));
        return out.validMask != 0;
    }

  private:
    uint32_t mask_;
    uint64_t reads_ = 0;
};

class FakeBackend final : public pmu::CounterBackend
{
  public:
    explicit FakeBackend(uint32_t mask) : mask_(mask) {}

    const char *name() const override { return "fake"; }
    uint32_t availableMask() const override { return mask_; }

    std::unique_ptr<pmu::ThreadCounters>
    openThreadCounters() override
    {
        opened_.fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<FakeThreadCounters>(mask_);
    }

    int
    opened() const
    {
        return opened_.load(std::memory_order_relaxed);
    }

  private:
    uint32_t mask_;
    std::atomic<int> opened_{0};
};

constexpr uint32_t kCyclesInstr =
    counterBit(CounterId::Cycles) | counterBit(CounterId::Instructions);

/** Stats entry for @p name, failing the test when absent. */
pmu::SpanStats
statsFor(const std::string &name)
{
    for (const pmu::SpanStats &s :
         pmu::Profiler::instance().spanStats())
        if (s.name == name)
            return s;
    ADD_FAILURE() << "no span stats for " << name;
    return {};
}

// --- Pure sample math --------------------------------------------

TEST(PmuSample, SetGetValidRoundTrip)
{
    Sample s;
    EXPECT_FALSE(s.valid(CounterId::Cycles));
    EXPECT_DOUBLE_EQ(s.get(CounterId::Cycles), 0.0);
    s.set(CounterId::Cycles, 42.0);
    EXPECT_TRUE(s.valid(CounterId::Cycles));
    EXPECT_DOUBLE_EQ(s.get(CounterId::Cycles), 42.0);
    EXPECT_FALSE(s.valid(CounterId::Instructions));
}

TEST(PmuSample, DeltaIsMaskIntersection)
{
    Sample begin;
    begin.set(CounterId::Cycles, 100.0);
    begin.set(CounterId::Instructions, 50.0);
    Sample end;
    end.set(CounterId::Cycles, 400.0);
    end.set(CounterId::TaskClockNs, 900.0); // appeared mid-interval

    const Sample delta = pmu::sampleDelta(end, begin);
    EXPECT_TRUE(delta.valid(CounterId::Cycles));
    EXPECT_DOUBLE_EQ(delta.get(CounterId::Cycles), 300.0);
    // Only in begin: dropped. Only in end: dropped.
    EXPECT_FALSE(delta.valid(CounterId::Instructions));
    EXPECT_FALSE(delta.valid(CounterId::TaskClockNs));
}

TEST(PmuSample, AccumulateIsMaskUnion)
{
    Sample into;
    into.set(CounterId::Cycles, 10.0);
    Sample other;
    other.set(CounterId::Cycles, 5.0);
    other.set(CounterId::Instructions, 7.0);

    pmu::sampleAccumulate(into, other);
    EXPECT_DOUBLE_EQ(into.get(CounterId::Cycles), 15.0);
    EXPECT_TRUE(into.valid(CounterId::Instructions));
    EXPECT_DOUBLE_EQ(into.get(CounterId::Instructions), 7.0);
}

TEST(PmuSample, ExclusiveSubtractsWhereBothValidAndClamps)
{
    Sample total;
    total.set(CounterId::Cycles, 100.0);
    total.set(CounterId::Instructions, 40.0);
    Sample children;
    children.set(CounterId::Cycles, 30.0);
    children.set(CounterId::Instructions, 55.0); // jitter overshoot

    const Sample self = pmu::sampleExclusive(total, children);
    EXPECT_DOUBLE_EQ(self.get(CounterId::Cycles), 70.0);
    // Child exceeded parent: clamped at zero, never negative.
    EXPECT_DOUBLE_EQ(self.get(CounterId::Instructions), 0.0);
    EXPECT_EQ(self.validMask, total.validMask);
}

// --- Multiplex rescaling -----------------------------------------

TEST(PmuScaling, FullyRunningCounterIsUnscaled)
{
    EXPECT_DOUBLE_EQ(pmu::scaledCounterValue(1000, 500, 500),
                     1000.0);
    // running > enabled (clock skew): still unscaled.
    EXPECT_DOUBLE_EQ(pmu::scaledCounterValue(1000, 400, 500),
                     1000.0);
}

TEST(PmuScaling, MultiplexedCounterScalesByEnabledOverRunning)
{
    // On the hardware half the time: the unbiased estimate doubles.
    EXPECT_DOUBLE_EQ(pmu::scaledCounterValue(1000, 200, 100),
                     2000.0);
    EXPECT_DOUBLE_EQ(pmu::scaledCounterValue(300, 900, 300),
                     900.0);
}

TEST(PmuScaling, NeverScheduledCounterReadsZero)
{
    EXPECT_DOUBLE_EQ(pmu::scaledCounterValue(12345, 1000, 0), 0.0);
}

// --- Derived metrics ---------------------------------------------

TEST(PmuDerived, HandComputedValues)
{
    Sample totals;
    totals.set(CounterId::Cycles, 2.0e9);
    totals.set(CounterId::Instructions, 3.0e9);
    totals.set(CounterId::LlcLoads, 1.0e6);
    totals.set(CounterId::LlcMisses, 2.5e5);
    totals.set(CounterId::Branches, 4.0e8);
    totals.set(CounterId::BranchMisses, 1.0e7);
    totals.set(CounterId::TaskClockNs, 5.0e8); // 0.5 s

    const pmu::DerivedMetrics d =
        pmu::deriveMetrics(totals, 1.0e9 /* bytes */);
    ASSERT_TRUE(d.hasIpc);
    EXPECT_DOUBLE_EQ(d.ipc, 1.5);
    ASSERT_TRUE(d.hasLlcMissRate);
    EXPECT_DOUBLE_EQ(d.llcMissRate, 0.25);
    ASSERT_TRUE(d.hasBranchMissRate);
    EXPECT_DOUBLE_EQ(d.branchMissRate, 0.025);
    ASSERT_TRUE(d.hasTaskClock);
    EXPECT_DOUBLE_EQ(d.taskClockSeconds, 0.5);
    ASSERT_TRUE(d.hasBytesPerSecond);
    EXPECT_DOUBLE_EQ(d.bytesPerSecond, 2.0e9);
}

TEST(PmuDerived, MissingOrZeroDenominatorsSuppressMetrics)
{
    // Cycles without instructions: no IPC.
    Sample only_cycles;
    only_cycles.set(CounterId::Cycles, 1.0e9);
    EXPECT_FALSE(pmu::deriveMetrics(only_cycles, 0.0).hasIpc);

    // Zero cycles (counter opened but nothing ran): no IPC.
    Sample zero_cycles;
    zero_cycles.set(CounterId::Cycles, 0.0);
    zero_cycles.set(CounterId::Instructions, 100.0);
    EXPECT_FALSE(pmu::deriveMetrics(zero_cycles, 0.0).hasIpc);

    // Task clock with unknown traffic: no bytes/s.
    Sample clock;
    clock.set(CounterId::TaskClockNs, 1.0e9);
    const pmu::DerivedMetrics d = pmu::deriveMetrics(clock, 0.0);
    EXPECT_TRUE(d.hasTaskClock);
    EXPECT_FALSE(d.hasBytesPerSecond);
    EXPECT_FALSE(d.hasLlcMissRate);
    EXPECT_FALSE(d.hasBranchMissRate);
}

// --- Profiler span attribution (fake backend) --------------------

TEST(PmuProfiler, NestedSpansGetExclusiveAttribution)
{
    FakeBackend backend(kCyclesInstr);
    auto &profiler = pmu::Profiler::instance();
    profiler.start(backend);

    // Reads happen at begin(outer), begin(inner), end(inner),
    // end(outer): cycles 100/200/300/400. Inner delta = 100 cycles;
    // outer delta = 300 with 100 attributed to the child, so the
    // outer self-time is 200 cycles (and twice that in
    // instructions, whose step is 200 per read).
    {
        trace::ScopedSpan outer("outer", trace::Category::Kernel);
        trace::ScopedSpan inner("inner", trace::Category::Kernel);
    }
    profiler.stop();

    const pmu::SpanStats inner = statsFor("inner");
    EXPECT_EQ(inner.spans, 1u);
    EXPECT_DOUBLE_EQ(inner.totals.get(CounterId::Cycles), 100.0);
    EXPECT_DOUBLE_EQ(inner.totals.get(CounterId::Instructions),
                     200.0);

    const pmu::SpanStats outer = statsFor("outer");
    EXPECT_EQ(outer.spans, 1u);
    EXPECT_DOUBLE_EQ(outer.totals.get(CounterId::Cycles), 200.0);
    EXPECT_DOUBLE_EQ(outer.totals.get(CounterId::Instructions),
                     400.0);

    EXPECT_EQ(backend.opened(), 1);
}

TEST(PmuProfiler, MultiThreadSpansAggregateUnderOneName)
{
    FakeBackend backend(kCyclesInstr);
    auto &profiler = pmu::Profiler::instance();
    profiler.start(backend);

    // Three threads, each one "integrate" span. Every thread opens
    // its own counter group starting at zero (two reads: begin at
    // 100 cycles, end at 200), so each span contributes exactly one
    // 100-cycle delta and the shared table sums them.
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([] {
            trace::ScopedSpan span("integrate",
                                   trace::Category::Kernel);
        });
    }
    for (std::thread &t : threads)
        t.join();
    profiler.stop();

    const pmu::SpanStats stats = statsFor("integrate");
    EXPECT_EQ(stats.spans, 3u);
    EXPECT_DOUBLE_EQ(stats.totals.get(CounterId::Cycles), 300.0);
    EXPECT_DOUBLE_EQ(stats.totals.get(CounterId::Instructions),
                     600.0);
    EXPECT_EQ(backend.opened(), 3);
}

TEST(PmuProfiler, StartClearsTotalsAndReopensThreadGroups)
{
    FakeBackend first(kCyclesInstr);
    auto &profiler = pmu::Profiler::instance();
    profiler.start(first);
    {
        trace::ScopedSpan span("stale", trace::Category::Kernel);
    }

    // A second start() must drop the previous run's totals and bump
    // the generation so this thread's counter group reopens from
    // the new backend.
    FakeBackend second(kCyclesInstr);
    profiler.start(second);
    {
        trace::ScopedSpan span("fresh", trace::Category::Kernel);
    }
    profiler.stop();

    const auto all = profiler.spanStats();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].name, "fresh");
    // Fresh group: begin reads 100, end reads 200.
    EXPECT_DOUBLE_EQ(all[0].totals.get(CounterId::Cycles), 100.0);
    EXPECT_EQ(second.opened(), 1);
}

TEST(PmuProfiler, ReadThreadSampleFollowsEnableState)
{
    auto &profiler = pmu::Profiler::instance();
    profiler.stop();
    Sample sample;
    EXPECT_FALSE(profiler.readThreadSample(sample));
    EXPECT_EQ(sample.validMask, 0u);

    FakeBackend backend(counterBit(CounterId::Cycles));
    profiler.start(backend);
    ASSERT_TRUE(profiler.readThreadSample(sample));
    EXPECT_TRUE(sample.valid(CounterId::Cycles));
    Sample later;
    ASSERT_TRUE(profiler.readThreadSample(later));
    EXPECT_GT(later.get(CounterId::Cycles),
              sample.get(CounterId::Cycles));
    profiler.stop();
}

TEST(PmuProfiler, AddSpanBytesAccumulatesAndIgnoresNonPositive)
{
    FakeBackend backend(kCyclesInstr);
    auto &profiler = pmu::Profiler::instance();
    profiler.start(backend);
    {
        trace::ScopedSpan span("raycast", trace::Category::Kernel);
    }
    profiler.stop();

    profiler.addSpanBytes("raycast", 1000.0);
    profiler.addSpanBytes("raycast", 500.0);
    profiler.addSpanBytes("raycast", 0.0);
    profiler.addSpanBytes("raycast", -3.0);
    EXPECT_DOUBLE_EQ(statsFor("raycast").bytes, 1500.0);
}

TEST(PmuProfiler, SpanOpenAcrossRestartIsDropped)
{
    FakeBackend first(kCyclesInstr);
    FakeBackend second(kCyclesInstr);
    auto &profiler = pmu::Profiler::instance();
    profiler.start(first);
    {
        // Its begin sample came from the first backend's group, so
        // after the restart it has no valid delta and is dropped;
        // the span opened under the new start() still counts.
        trace::ScopedSpan stale("stale", trace::Category::Kernel);
        profiler.start(second);
        {
            trace::ScopedSpan fresh("fresh", trace::Category::Kernel);
        }
        profiler.stop();
    }
    const auto all = profiler.spanStats();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].name, "fresh");
    EXPECT_DOUBLE_EQ(all[0].totals.get(CounterId::Cycles), 100.0);
}

// --- trace::ScopedSpan integration -------------------------------

TEST(PmuTraceIntegration, KernelSpansFeedProfilerPhaseSpansDoNot)
{
    ASSERT_FALSE(trace::Tracer::instance().enabled());
    FakeBackend backend(kCyclesInstr);
    auto &profiler = pmu::Profiler::instance();
    profiler.start(backend);
    {
        // Phase spans would double-count their kernels; only the
        // kernel and worker categories reach the profiler.
        trace::ScopedSpan frame("frame", trace::Category::Phase);
        trace::ScopedSpan kernel("track", trace::Category::Kernel);
    }
    profiler.stop();

    const auto all = profiler.spanStats();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].name, "track");
    EXPECT_EQ(all[0].spans, 1u);
}

TEST(PmuTraceIntegration, ScopeIsInertWhenDisabled)
{
    pmu::Profiler::instance().stop();
    pmu::Profiler::instance().clear();
    ASSERT_FALSE(pmu::enabled());
    {
        trace::ScopedSpan span("ignored", trace::Category::Kernel);
    }
    EXPECT_TRUE(pmu::Profiler::instance().spanStats().empty());
}

// --- Graceful degradation (null backend, schema-stable) ----------
//
// Declared last on purpose: a PMU session latches profilingActive()
// for the rest of the process (report writers must still see the
// pmu block after the session disarms), which earlier tests do not
// want flipped on.

/** Brace/bracket balance outside strings: cheap structural check
 *  (the smoke script runs the full Python schema validator). */
bool
jsonBalanced(const std::string &text)
{
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

TEST(PmuDegradation, NullBackendSessionKeepsReportsSchemaStable)
{
    // Force the (process-latched) backend probe down the disabled
    // path: this is exactly what a locked-down container hits.
    ::setenv("SLAMBENCH_PMU_DISABLE", "1", 1);
    ASSERT_FALSE(pmu::profilingActive());
    {
        trace::SessionOptions options;
        options.pmu = true;
        trace::Session session(options);
        ASSERT_TRUE(session.active());
        EXPECT_TRUE(pmu::profilingActive());
        auto *backend = pmu::Profiler::instance().backend();
        ASSERT_NE(backend, nullptr);
        EXPECT_STREQ(backend->name(), "null");
        EXPECT_EQ(backend->availableMask(), 0u);

        // Spans still count even though no counter delivers values.
        trace::ScopedSpan span("integrate", trace::Category::Kernel);
    }
    // Session ended: the hot path is disarmed but report writers
    // must still emit the pmu block.
    EXPECT_FALSE(pmu::enabled());
    EXPECT_TRUE(pmu::profilingActive());
    const pmu::SpanStats stats = statsFor("integrate");
    EXPECT_EQ(stats.spans, 1u);
    EXPECT_EQ(stats.totals.validMask, 0u);

    // The published gauge set degrades to span counts only.
    pmu::publishGauges();
    EXPECT_DOUBLE_EQ(metrics::Registry::instance()
                         .gauge("pmu.integrate.spans")
                         .value(),
                     1.0);

    // A run report written now must carry a schema-stable pmu
    // block: null backend, empty counter list, spans-only kernels.
    const std::string json_path = ::testing::TempDir() +
                                  "pmu_test_report_" +
                                  std::to_string(::getpid()) +
                                  ".json";
    metrics::RunSession run(json_path, "", "pmu_test");
    metrics::FrameTelemetry frame;
    frame.wallSeconds = 0.01;
    run.addFrame(frame);
    std::ostringstream out;
    ASSERT_TRUE(metrics::RunSession::writeCurrentJson(out));
    run.finish();
    std::remove(json_path.c_str());

    const std::string report = out.str();
    EXPECT_TRUE(jsonBalanced(report)) << report.substr(0, 400);
    EXPECT_NE(report.find("\"pmu\": {"), std::string::npos);
    EXPECT_NE(report.find("\"backend\": \"null\""),
              std::string::npos);
    EXPECT_NE(report.find("\"counters\": []"), std::string::npos);
    EXPECT_NE(report.find("\"integrate\": {\n        \"spans\": 1"),
              std::string::npos);
    ::unsetenv("SLAMBENCH_PMU_DISABLE");
}

} // namespace
