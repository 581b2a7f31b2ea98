#include "core/benchmark.hpp"

#include <array>
#include <chrono>

#include "support/logging.hpp"
#include "support/slo_watchdog.hpp"
#include "support/telemetry_server.hpp"
#include "support/trace.hpp"

namespace slambench::core {

namespace {

/** Sum host seconds of a kernel subset within one frame's work. */
double
kernelGroupSeconds(const kfusion::WorkCounts &work,
                   std::initializer_list<kfusion::KernelId> kernels)
{
    double seconds = 0.0;
    for (const kfusion::KernelId id : kernels)
        seconds += work.hostSecondsFor(id);
    return seconds;
}

/** @return the `pipeline.kernel_seconds{kernel="<kernelName()>"}`
 *  histogram of @p k, resolved once per kernel. */
support::metrics::LatencyHistogram &
kernelSecondsHistogram(size_t k)
{
    using Handles = std::array<support::metrics::LatencyHistogram *,
                               kfusion::kNumKernels>;
    static const Handles handles = [] {
        Handles h{};
        for (size_t i = 0; i < kfusion::kNumKernels; ++i)
            h[i] = &support::metrics::Registry::instance().histogram(
                support::telemetry::labeledMetricName(
                    "pipeline.kernel_seconds", "kernel",
                    kfusion::kernelName(
                        static_cast<kfusion::KernelId>(i))));
        return h;
    }();
    return *handles[k];
}

} // namespace

double
completeFrame(const FrameOutcome &outcome,
              support::metrics::FrameTelemetry *row)
{
    namespace trace = support::trace;
    // The arithmetic of computeAte(align=false), so the live value
    // equals the end-of-run per-frame ATE.
    const double ate =
        outcome.groundTruthPose
            ? (outcome.estimatedPose.translationPart().cast<double>() -
               outcome.groundTruthPose->translationPart().cast<double>())
                  .norm()
            : 0.0;

    if (support::telemetry::liveTelemetry())
        support::telemetry::frameTick(outcome.liveFrame, outcome.wallSeconds,
                                      ate, outcome.tracked);

    if (trace::requestTracingArmed()) {
        const trace::TraceContext ctx = trace::currentTraceContext();
        if (ctx.active()) {
            trace::RequestTraceFinish fin;
            fin.durationSeconds = outcome.wallSeconds;
            fin.trackingLost = !outcome.tracked;
            fin.sloBreach = support::telemetry::SloWatchdog::instance()
                                .thresholds()
                                .frameBreached(outcome.wallSeconds, ate);
            // The sample was just recorded, so its bucket is populated:
            // >= means "is the top populated bucket".
            if (const auto *hist = outcome.latencyHistogram)
                fin.topBucket = hist->bucketIndexFor(outcome.wallSeconds) >=
                                hist->highestPopulatedBucket();
            if (outcome.exemplarMetric)
                fin.exemplarMetric = *outcome.exemplarMetric;
            trace::RequestTracer::instance().finish(ctx, fin);
        }
    }

    if (const kfusion::WorkCounts *work = outcome.work) {
        for (size_t k = 0; k < kfusion::kNumKernels; ++k)
            if (work->items[k] > 0.0)
                kernelSecondsHistogram(k).record(work->hostSeconds[k]);
    }

    if (row) {
        using kfusion::KernelId;
        row->label = outcome.label;
        row->frame = outcome.frame;
        row->wallSeconds = outcome.wallSeconds;
        row->ateMeters = ate;
        row->tracked = outcome.tracked;
        row->simJoules = outcome.simJoules;
        row->simSeconds = outcome.simSeconds;
        row->rssPeakBytes = support::metrics::peakRssBytes();
        if (const kfusion::WorkCounts *work = outcome.work) {
            row->kernelSeconds.assign(work->hostSeconds.begin(),
                                      work->hostSeconds.end());
            row->kernelItems.assign(work->items.begin(),
                                    work->items.end());
            row->preprocessSeconds = kernelGroupSeconds(
                *work, {KernelId::Mm2Meters, KernelId::BilateralFilter,
                        KernelId::HalfSample, KernelId::Depth2Vertex,
                        KernelId::Vertex2Normal});
            row->trackSeconds = kernelGroupSeconds(
                *work, {KernelId::Track, KernelId::Reduce, KernelId::Solve});
            row->integrateSeconds = work->hostSecondsFor(KernelId::Integrate);
            row->raycastSeconds = kernelGroupSeconds(
                *work, {KernelId::Raycast, KernelId::RenderVolume});
            row->integrated = work->itemsFor(KernelId::Integrate) > 0.0;
        }
    }
    return ate;
}

BenchmarkResult
runBenchmark(SlamSystem &system, const dataset::Sequence &sequence,
             const BenchmarkOptions &options)
{
    BenchmarkResult result;
    if (sequence.frames.empty())
        support::fatal("runBenchmark: empty sequence");

    system.initialize(sequence.intrinsics, sequence.groundTruth.pose(0));

    result.frameSeconds.reserve(sequence.frames.size());
    result.frameRows.reserve(sequence.frames.size());

    for (size_t i = 0; i < sequence.frames.size(); ++i) {
        // When `--trace-requests` is armed, each bench frame is a
        // request trace of its own (tenant "" = single-tenant bench),
        // installed until completeFrame() finishes it, so the
        // overhead gate measures tracing at the real per-frame cost
        // and /tracez works outside the serve layer too.
        support::trace::TraceContext trace_ctx;
        if (support::trace::requestTracingArmed())
            trace_ctx = support::trace::RequestTracer::instance()
                            .begin("", i);
        support::trace::ScopedTraceContext trace_scope(trace_ctx);
        const auto start = std::chrono::steady_clock::now();
        const bool tracked = system.processFrame(sequence.frames[i]);
        const auto end = std::chrono::steady_clock::now();

        FrameOutcome outcome;
        outcome.frame = i;
        outcome.liveFrame = i;
        outcome.wallSeconds =
            std::chrono::duration<double>(end - start).count();
        outcome.tracked = tracked;
        outcome.estimatedPose = system.currentPose();
        if (i < sequence.groundTruth.size())
            outcome.groundTruthPose = &sequence.groundTruth.pose(i);
        const std::vector<kfusion::WorkCounts> &work =
            system.frameWork();
        if (!work.empty())
            outcome.work = &work.back();
        completeFrame(outcome, &result.frameRows.emplace_back());

        result.frameSeconds.push_back(outcome.wallSeconds);
        result.estimatedPoses.push_back(outcome.estimatedPose);
        ++result.frames;
        if (tracked)
            ++result.trackedFrames;
        if (options.verbose) {
            support::logDebug()
                << "frame " << i << (tracked ? " tracked" : " LOST")
                << " in " << outcome.wallSeconds * 1e3 << " ms";
        }
    }

    result.hostTiming = metrics::summarizeTiming(result.frameSeconds);
    result.ate = metrics::computeAte(result.estimatedPoses,
                                     sequence.groundTruth.poses(),
                                     /*align=*/false);
    if (options.alignedAte) {
        result.ateAligned = metrics::computeAte(
            result.estimatedPoses, sequence.groundTruth.poses(),
            /*align=*/true);
    }
    result.rpe = metrics::computeRpe(result.estimatedPoses,
                                     sequence.groundTruth.poses());

    result.frameWork = system.frameWork();
    for (const kfusion::WorkCounts &w : result.frameWork)
        result.totalWork.merge(w);
    return result;
}

} // namespace slambench::core
