/**
 * @file
 * Tests for the serve subsystem: admission-control hysteresis (pure
 * tick-by-tick logic), tenant sessions (stream wrap, per-tenant
 * labeled metrics), and the stream scheduler (batch scheduling,
 * stall-injected load shedding, graceful drain).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "devices/fleet.hpp"
#include "kfusion/volume.hpp"
#include "serve/admission.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "support/metrics.hpp"
#include "support/slo_watchdog.hpp"
#include "support/telemetry_server.hpp"
#include "support/trace.hpp"

namespace {

using namespace slambench;
namespace trace = slambench::support::trace;
using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::LoadSignals;

// --- AdmissionController ----------------------------------------

AdmissionOptions
testOptions()
{
    AdmissionOptions options;
    options.queueHiWatermark = 10;
    options.queueLoWatermark = 2;
    options.frameP99TargetSeconds = 0.0;
    options.clearAfterHealthyTicks = 3;
    return options;
}

LoadSignals
quiet()
{
    return LoadSignals{};
}

TEST(AdmissionController, StartsClearAndStaysClearWhenQuiet)
{
    AdmissionController admission(testOptions());
    EXPECT_FALSE(admission.shedding());
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(admission.onTick(quiet()));
    EXPECT_EQ(admission.engageCount(), 0u);
}

TEST(AdmissionController, EngagesOnQueueDepthAndClearsWithHysteresis)
{
    AdmissionController admission(testOptions());

    LoadSignals hot;
    hot.peakQueueDepth = 10; // == hi watermark
    EXPECT_TRUE(admission.onTick(hot));
    EXPECT_TRUE(admission.shedding());
    EXPECT_EQ(admission.lastEngageReason(), "queue_depth");
    EXPECT_EQ(admission.engageCount(), 1u);

    // Between the watermarks: neither engages nor counts as healthy.
    LoadSignals middling;
    middling.peakQueueDepth = 5;
    EXPECT_TRUE(admission.onTick(middling));

    // Three consecutive healthy ticks clear; two do not.
    LoadSignals calm;
    calm.peakQueueDepth = 1;
    EXPECT_TRUE(admission.onTick(calm));
    EXPECT_TRUE(admission.onTick(calm));
    EXPECT_TRUE(admission.onTick(middling)); // resets the streak
    EXPECT_TRUE(admission.onTick(calm));
    EXPECT_TRUE(admission.onTick(calm));
    EXPECT_FALSE(admission.onTick(calm));
    EXPECT_FALSE(admission.shedding());
    EXPECT_EQ(admission.clearCount(), 1u);
}

TEST(AdmissionController, PreexistingBreachesAreBaselineNotEngage)
{
    AdmissionController admission(testOptions());
    // First sample carries breaches latched before the controller
    // existed: history, not live overload.
    LoadSignals first;
    first.sloBreaches = 7;
    EXPECT_FALSE(admission.onTick(first));

    // A new breach (delta over the baseline) engages.
    LoadSignals second;
    second.sloBreaches = 8;
    EXPECT_TRUE(admission.onTick(second));
    EXPECT_EQ(admission.lastEngageReason(), "slo_breach");
}

TEST(AdmissionController, EngagesOnSmoothedP99AndClearsUnderTarget)
{
    AdmissionOptions options = testOptions();
    options.frameP99TargetSeconds = 0.100;
    options.p99Smoothing = 1.0; // no smoothing: deterministic ticks
    AdmissionController admission(options);

    LoadSignals slow;
    slow.tickP99Seconds = 0.250;
    EXPECT_TRUE(admission.onTick(slow));
    EXPECT_EQ(admission.lastEngageReason(), "frame_p99");

    // Shed ticks with no completed frames must NOT drag the EWMA
    // down and clear by starvation.
    LoadSignals starved; // tickP99Seconds == 0
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(admission.onTick(starved));

    LoadSignals recovered;
    recovered.tickP99Seconds = 0.020;
    EXPECT_TRUE(admission.onTick(recovered));
    EXPECT_TRUE(admission.onTick(recovered));
    EXPECT_FALSE(admission.onTick(recovered));
}

TEST(AdmissionController, EngagesOnTenantVolumeAndClearsOnRelease)
{
    AdmissionOptions options = testOptions();
    options.maxTenantVolumeBytes = 64ull << 20;
    AdmissionController admission(options);

    LoadSignals lean;
    lean.peakTenantVolumeBytes = (64ull << 20) - 1;
    EXPECT_FALSE(admission.onTick(lean));

    LoadSignals bloated;
    bloated.peakTenantVolumeBytes = 64ull << 20; // == bound
    EXPECT_TRUE(admission.onTick(bloated));
    EXPECT_EQ(admission.lastEngageReason(), "tenant_volume");

    // The volume only shrinks on an epoch wrap, so shedding must
    // hold while the peak stays over the bound even if the queue and
    // p99 look healthy.
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(admission.onTick(bloated));

    // Epoch wrap released the blocks: peak back under the bound
    // clears after the usual healthy streak.
    EXPECT_TRUE(admission.onTick(lean));
    EXPECT_TRUE(admission.onTick(lean));
    EXPECT_FALSE(admission.onTick(lean));
    EXPECT_FALSE(admission.shedding());
    EXPECT_EQ(admission.clearCount(), 1u);
}

TEST(AdmissionController, VolumeBoundDisabledByDefault)
{
    AdmissionController admission(testOptions());
    LoadSignals huge;
    huge.peakTenantVolumeBytes = ~0ull;
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(admission.onTick(huge));
    EXPECT_EQ(admission.engageCount(), 0u);
}

// --- TenantSession ----------------------------------------------

serve::TenantConfig
tinyTenant(const std::string &id)
{
    serve::TenantConfig tenant;
    tenant.id = id;
    tenant.device = devices::mobileFleet(8, 2018)[0];
    tenant.sequence.numFrames = 3;
    tenant.sequence.width = 160;
    tenant.sequence.height = 120;
    tenant.sequence.renderRgb = false;
    tenant.kfusion.volumeResolution = 64;
    tenant.kfusion.computeSizeRatio = 2;
    return tenant;
}

TEST(TenantSession, ProcessesWrapsAndCountsLabeledMetrics)
{
    auto &registry = support::metrics::Registry::instance();
    const std::string id = "unittest-a";
    const std::string frames_name =
        support::telemetry::labeledMetricName("serve.tenant.frames",
                                              "tenant", id);
    const uint64_t frames_before =
        registry.counter(frames_name).value();

    serve::TenantSession session(tinyTenant(id));
    EXPECT_EQ(session.streamLength(), 3u);
    EXPECT_EQ(session.epochs(), 1u);

    // One full stream plus one frame: wraps into a second epoch.
    for (int i = 0; i < 4; ++i) {
        const serve::TenantFrameStats stats =
            session.processNext(static_cast<uint64_t>(i));
        EXPECT_EQ(stats.frame, static_cast<uint64_t>(i));
        EXPECT_GT(stats.wallSeconds, 0.0);
        EXPECT_GT(stats.deviceSeconds, 0.0);
        EXPECT_GT(stats.deviceJoules, 0.0);
    }
    EXPECT_EQ(session.framesProcessed(), 4u);
    EXPECT_EQ(session.epochs(), 2u);

    // The tenant reports its volume footprint (dense backend: the
    // constant res^3 voxel array) and mirrors it to a labeled gauge.
    const uint64_t dense_bytes = 64ull * 64 * 64 *
                                 sizeof(kfusion::Voxel);
    EXPECT_EQ(session.volumeBytes(), dense_bytes);
    const std::string volume_name =
        support::telemetry::labeledMetricName(
            "serve.tenant.volume_bytes", "tenant", id);
    EXPECT_EQ(registry.gauge(volume_name).value(),
              static_cast<double>(dense_bytes));

    session.noteShed();
    EXPECT_EQ(session.framesShed(), 1u);

    EXPECT_EQ(registry.counter(frames_name).value() - frames_before,
              4u);
    // The labeled series renders with the tenant label attached.
    std::ostringstream out;
    support::telemetry::renderPrometheus(out);
    EXPECT_NE(out.str().find("serve_tenant_frames_total{tenant=\"" +
                             id + "\"} 4"),
              std::string::npos);
}

TEST(TenantSession, FramesFeedThePipelineKernelSecondsFamily)
{
    // Tenant frames pass through core::completeFrame(), so the
    // always-on per-kernel family sees them like bench frames: one
    // sample per frame a kernel ran, summing the rows' host seconds.
    auto &registry = support::metrics::Registry::instance();
    std::vector<support::metrics::LatencyHistogram *> family;
    for (size_t k = 0; k < kfusion::kNumKernels; ++k) {
        family.push_back(&registry.histogram(
            support::telemetry::labeledMetricName(
                "pipeline.kernel_seconds", "kernel",
                kfusion::kernelName(static_cast<kfusion::KernelId>(k)))));
        family.back()->reset();
    }
    serve::TenantSession session(tinyTenant("unittest-kernels"));
    std::vector<support::metrics::FrameTelemetry> rows(3);
    for (size_t f = 0; f < rows.size(); ++f)
        session.processNext(f, &rows[f]);

    for (size_t k = 0; k < kfusion::kNumKernels; ++k) {
        uint64_t ran = 0;
        double seconds = 0.0;
        for (const auto &row : rows) {
            ASSERT_EQ(row.kernelItems.size(), kfusion::kNumKernels);
            if (row.kernelItems[k] > 0.0) {
                ++ran;
                seconds += row.kernelSeconds[k];
            }
        }
        EXPECT_EQ(family[k]->count(), ran) << k;
        EXPECT_EQ(family[k]->sum(), seconds) << k;
    }
    EXPECT_EQ(family[static_cast<size_t>(kfusion::KernelId::Integrate)]
                  ->count(),
              3u);
}

// Defined in the StreamScheduler section below.
std::vector<std::unique_ptr<serve::TenantSession>>
tinyFleet(size_t count, const char *prefix);

TEST(TenantSession, SloBreachingFrameAlwaysRetainsRequestTrace)
{
    // Arm request tracing with flag-only retention (rate 0) and an
    // SLO threshold every frame breaches: tail-based retention must
    // keep every frame's trace even though sampling would drop all.
    auto &watchdog = support::telemetry::SloWatchdog::instance();
    support::telemetry::SloThresholds thresholds;
    thresholds.frameP99Seconds = 1e-9;
    watchdog.configure(thresholds);

    trace::RequestTraceOptions trace_options;
    trace_options.sampleRate = 0.0;
    trace::RequestTracer::instance().configure(trace_options);
    auto &tracer = trace::RequestTracer::instance();

    serve::SchedulerOptions options;
    options.threads = 2;
    serve::StreamScheduler scheduler(tinyFleet(2, "traced-"),
                                     options);
    scheduler.runTick();
    scheduler.runTick();

    EXPECT_EQ(tracer.tracesStarted(), 4u);
    EXPECT_EQ(tracer.tracesRetained(), 4u);

    for (const auto &session : scheduler.sessions()) {
        // Every retained trace is retrievable and complete: the
        // synthesized root covers queue-wait plus the kernel spans,
        // and each child lies inside the root's interval.
        bool tenant_seen = false;
        for (const trace::RetainedTrace &retained :
             tracer.retainedSnapshot()) {
            if (retained.tenant != session->id())
                continue;
            tenant_seen = true;
            EXPECT_TRUE(retained.retention.sloBreach);
            trace::RetainedTrace fetched;
            ASSERT_TRUE(
                tracer.findTrace(retained.traceId, &fetched));
            ASSERT_FALSE(fetched.spans.empty());
            const trace::RequestSpan &root = fetched.spans.back();
            EXPECT_STREQ(root.name, "frame");
            bool queue_wait = false;
            bool kernel_span = false;
            for (const trace::RequestSpan &span : fetched.spans) {
                if (span.name &&
                    std::string(span.name) == "queue_wait")
                    queue_wait = true;
                if (span.cat == trace::Category::Kernel)
                    kernel_span = true;
                EXPECT_GE(span.startNs, root.startNs);
                EXPECT_LE(span.endNs, root.endNs);
                EXPECT_LE(span.startNs, span.endNs);
            }
            EXPECT_TRUE(queue_wait) << retained.tenant;
            EXPECT_TRUE(kernel_span) << retained.tenant;
        }
        EXPECT_TRUE(tenant_seen) << session->id();
        // And the tenant's latency histogram carries the retained
        // trace as its exemplar.
        trace::TraceExemplar exemplar;
        ASSERT_TRUE(tracer.exemplarFor(
            support::telemetry::labeledMetricName(
                "serve.tenant.frame_seconds", "tenant",
                session->id()),
            &exemplar));
        trace::RetainedTrace exemplar_trace;
        EXPECT_TRUE(
            tracer.findTrace(exemplar.traceId, &exemplar_trace));
    }

    trace::RequestTracer::instance().disarm();
    trace::RequestTracer::instance().clear();
    watchdog.reset();
    watchdog.configure(support::telemetry::SloThresholds{});
}

// --- StreamScheduler --------------------------------------------

std::vector<std::unique_ptr<serve::TenantSession>>
tinyFleet(size_t count, const char *prefix)
{
    std::vector<std::unique_ptr<serve::TenantSession>> sessions;
    for (size_t i = 0; i < count; ++i) {
        serve::TenantConfig tenant =
            tinyTenant(prefix + std::to_string(i));
        tenant.sequence.seed = 42 + i;
        sessions.push_back(
            std::make_unique<serve::TenantSession>(tenant));
    }
    return sessions;
}

TEST(StreamScheduler, FramesCsvRowsCarryPhasesAndRealIntegration)
{
    // ir=2 skips integration from frame 5 on (frames 0-3 bootstrap,
    // frame 4 is on the rate): the serve rows must say so, and carry
    // the per-phase and per-kernel host time and items of the frame's
    // WorkCounts plus the tenant device's modeled frame time.
    serve::TenantConfig tenant = tinyTenant("rows-ir2");
    tenant.sequence.numFrames = 6;
    tenant.kfusion.integrationRate = 2;
    std::vector<std::unique_ptr<serve::TenantSession>> sessions;
    sessions.push_back(std::make_unique<serve::TenantSession>(tenant));
    serve::SchedulerOptions options;
    options.threads = 1;
    serve::StreamScheduler scheduler(std::move(sessions), options);

    // The same stream replayed outside the scheduler: the modeled
    // cost is a function of the (deterministic) work counts.
    std::vector<double> device_seconds;
    {
        serve::TenantSession replay(tenant);
        for (uint64_t f = 0; f < 6; ++f)
            device_seconds.push_back(
                replay.processNext(f).deviceSeconds);
    }

    const std::string csv_path =
        ::testing::TempDir() + "serve_rows_ir2.csv";
    {
        support::metrics::RunSession run("", csv_path, "serve_test",
                                         core::kernelColumnNames());
        for (int tick = 0; tick < 6; ++tick)
            scheduler.runTick(&run);
    }

    std::ifstream in(csv_path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    std::vector<std::string> header;
    {
        std::stringstream fields(line);
        std::string field;
        while (std::getline(fields, field, ','))
            header.push_back(field);
    }
    const auto column = [&header](const char *name) {
        return static_cast<size_t>(
            std::find(header.begin(), header.end(), name) -
            header.begin());
    };
    const size_t frame_col = column("frame");
    const size_t integrated_col = column("integrated");
    const size_t integrate_col = column("integrate_ms");
    const size_t preprocess_col = column("preprocess_ms");
    const size_t sim_seconds_col = column("sim_seconds");
    const size_t kernel_integrate_col = column("kernel_integrate_ms");
    const size_t integrate_items_col = column("kernel_integrate_items");
    const size_t track_items_col = column("kernel_track_items");
    ASSERT_LT(preprocess_col, header.size());
    ASSERT_EQ(header.size(), 35u);
    ASSERT_LT(track_items_col, header.size());

    size_t rows = 0;
    while (std::getline(in, line)) {
        std::vector<std::string> cells;
        std::stringstream fields(line);
        std::string field;
        while (std::getline(fields, field, ','))
            cells.push_back(field);
        ASSERT_EQ(cells.size(), header.size()) << line;
        const int frame = std::stoi(cells[frame_col]);
        EXPECT_EQ(frame, static_cast<int>(rows));
        const double integrate_ms = std::stod(cells[integrate_col]);
        if (frame == 5) {
            EXPECT_EQ(cells[integrated_col], "0") << line;
            EXPECT_EQ(integrate_ms, 0.0) << line;
        } else {
            EXPECT_EQ(cells[integrated_col], "1") << line;
            EXPECT_GT(integrate_ms, 0.0) << line;
        }
        EXPECT_GT(std::stod(cells[preprocess_col]), 0.0) << line;
        EXPECT_EQ(cells[kernel_integrate_col], cells[integrate_col])
            << line;
        EXPECT_EQ(std::stod(cells[integrate_items_col]) > 0.0,
                  cells[integrated_col] == "1")
            << line;
        // Frame 0 bootstraps the map without tracking.
        EXPECT_EQ(std::stod(cells[track_items_col]) > 0.0, frame > 0)
            << line;
        ASSERT_LT(rows, device_seconds.size()) << line;
        EXPECT_EQ(std::stod(cells[sim_seconds_col]),
                  device_seconds[rows])
            << line;
        ++rows;
    }
    EXPECT_EQ(rows, 6u);
}

TEST(StreamScheduler, TicksEveryTenantOncePerTickAndReports)
{
    serve::SchedulerOptions options;
    options.threads = 2;
    serve::StreamScheduler scheduler(tinyFleet(3, "sched-a"),
                                     options);

    const serve::TickReport first = scheduler.runTick();
    EXPECT_EQ(first.tick, 1u);
    EXPECT_EQ(first.framesProcessed, 3u);
    EXPECT_EQ(first.framesShed, 0u);
    EXPECT_FALSE(first.shedding);

    const serve::TickReport second = scheduler.runTick();
    EXPECT_EQ(second.tick, 2u);
    EXPECT_EQ(scheduler.framesProcessed(), 6u);
    for (const auto &session : scheduler.sessions())
        EXPECT_EQ(session->framesProcessed(), 2u);
    EXPECT_GT(scheduler.aggregateFrameP99Seconds(), 0.0);
}

TEST(StreamScheduler, RunLoopHonorsDrainRequest)
{
    serve::SchedulerOptions options;
    options.threads = 2;
    serve::StreamScheduler scheduler(tinyFleet(2, "sched-b"),
                                     options);

    scheduler.requestDrain();
    // Drain already requested: the loop must not start another tick
    // even with an unbounded budget.
    EXPECT_EQ(scheduler.runLoop(/*max_ticks=*/0), 0u);
    EXPECT_TRUE(scheduler.drainRequested());
    EXPECT_EQ(scheduler.framesProcessed(), 0u);
}

TEST(StreamScheduler, StallInjectionTripsWatchdogAndShedsThenClears)
{
    auto &watchdog = support::telemetry::SloWatchdog::instance();

    // Calibrate: measure a normal tick with the watchdog disabled
    // (sanitizer builds run 10-20x slower, and a hard-coded stall
    // SLO would latch on ordinary frame work before the injected
    // stall — poisoning the controller's breach baseline).
    watchdog.configure(support::telemetry::SloThresholds{});
    double max_tick_seconds = 0.0;
    {
        serve::SchedulerOptions calibration;
        calibration.threads = 2;
        serve::StreamScheduler warmup(tinyFleet(4, "sched-cal"),
                                      calibration);
        for (int i = 0; i < 2; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            warmup.runTick();
            max_tick_seconds = std::max(
                max_tick_seconds,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        }
    }
    const double stall_slo_seconds =
        std::max(0.050, 4.0 * max_tick_seconds);

    support::telemetry::SloThresholds thresholds;
    thresholds.poolQueueStallSeconds = stall_slo_seconds;
    watchdog.configure(thresholds);

    serve::SchedulerOptions options;
    options.threads = 2;
    options.stallAtTick = 2;
    // 3x the stall SLO: a real latched breach, whatever the host.
    options.stallMs = 3.0 * stall_slo_seconds * 1e3;
    // Watermarks sized so only the breach engages (the hi watermark
    // is far above what 4 tenants can queue) and the shed batches
    // can't block clearing.
    options.admission.queueHiWatermark = 1000;
    options.admission.queueLoWatermark = 100;
    options.admission.clearAfterHealthyTicks = 2;
    serve::StreamScheduler scheduler(tinyFleet(4, "sched-c"),
                                     options);

    bool engaged = false;
    bool cleared_after_engage = false;
    for (int i = 0; i < 10; ++i) {
        const serve::TickReport report = scheduler.runTick();
        if (report.shedding)
            engaged = true;
        if (engaged && !report.shedding)
            cleared_after_engage = true;
    }
    EXPECT_TRUE(engaged)
        << "stall-induced SLO breach never engaged shedding";
    EXPECT_TRUE(cleared_after_engage)
        << "shedding never cleared after the stall drained";
    EXPECT_GE(scheduler.admission().engageCount(), 1u);
    EXPECT_GE(scheduler.admission().clearCount(), 1u);
    EXPECT_GT(scheduler.framesShed(), 0u);
    EXPECT_EQ(scheduler.admission().lastEngageReason(),
              "slo_breach");

    // The breach stays latched for post-incident scrapes even though
    // admission control has cleared.
    EXPECT_FALSE(watchdog.healthy());
    watchdog.reset();
}

} // namespace
