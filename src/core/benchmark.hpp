#ifndef SLAMBENCH_CORE_BENCHMARK_HPP
#define SLAMBENCH_CORE_BENCHMARK_HPP

/**
 * @file
 * The benchmark loop: feed a sequence through a SLAM system and
 * collect the SLAMBench metric triple (speed, accuracy, power and work),
 * plus completeFrame(), the one place every frame loop (this one,
 * the serve tenants, bench_fig1_pipeline) finishes a frame.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/slam_system.hpp"
#include "dataset/generator.hpp"
#include "metrics/ate.hpp"
#include "metrics/timing.hpp"
#include "support/metrics.hpp"

namespace slambench::core {

/** Options of one benchmark run. */
struct BenchmarkOptions
{
    /** Also compute the rigidly aligned ATE (TUM methodology). */
    bool alignedAte = true;
    /** Print per-frame progress at debug level. */
    bool verbose = false;
};

/** Everything measured during one run. */
struct BenchmarkResult
{
    size_t frames = 0;
    size_t trackedFrames = 0;

    /** ATE with the shared-start-frame convention (SLAMBench). */
    metrics::AteResult ate;
    /** ATE after rigid alignment (TUM), when requested. */
    metrics::AteResult ateAligned;
    /** Relative pose error over one frame (local drift). */
    metrics::RpeResult rpe;

    /** Host wall-clock timing of the pipeline. */
    metrics::TimingSummary hostTiming;

    /** Host wall seconds of each frame (drives hostTiming). */
    std::vector<double> frameSeconds;
    /** One completeFrame() row per frame, unlabeled and without
     *  modeled device cost; appendRunTelemetry() adds both. */
    std::vector<support::metrics::FrameTelemetry> frameRows;

    /** Per-frame work counts (feed these to device models). */
    std::vector<kfusion::WorkCounts> frameWork;
    /** Sum of frameWork. */
    kfusion::WorkCounts totalWork;

    /** Estimated camera-to-world pose per frame. */
    std::vector<math::Mat4f> estimatedPoses;

    /** @return tracked frames / frames. */
    double
    trackedFraction() const
    {
        return frames ? static_cast<double>(trackedFrames) /
                            static_cast<double>(frames)
                      : 0.0;
    }
};

/** One finished frame, as a frame loop hands it to completeFrame(). */
struct FrameOutcome
{
    uint64_t frame = 0;       ///< Index in the run or tenant stream.
    uint64_t liveFrame = 0;   ///< frameTick() index (serve: global).
    std::string_view label;   ///< Row label (serve: the tenant id).
    double wallSeconds = 0.0; ///< Host wall time of the frame.
    bool tracked = false;     ///< Pose accepted by the gates.
    math::Mat4f estimatedPose;
    /** Ground-truth pose of the frame (nullptr: live ATE is 0). */
    const math::Mat4f *groundTruthPose = nullptr;
    /** The frame's work counts (nullptr: no phase split). */
    const kfusion::WorkCounts *work = nullptr;
    double simJoules = 0.0;  ///< Modeled energy (serve: its device).
    double simSeconds = 0.0; ///< Modeled frame time (serve: same).
    /** Serve only: the tenant's frame-latency histogram, already
     *  holding this frame (top-bucket retention), and its registry
     *  name, which a retained trace becomes the exemplar of. */
    const support::metrics::LatencyHistogram *latencyHistogram =
        nullptr;
    const std::string *exemplarMetric = nullptr;
};

/**
 * Finish one frame, the same way in every frame loop: compute the
 * live ATE, call telemetry::frameTick() when liveTelemetry() is on,
 * finish the request trace installed on this thread (always kept on
 * SloThresholds::frameBreached(), lost tracking, or the histogram's
 * top bucket), record each kernel that ran (items > 0) into
 * `pipeline.kernel_seconds{kernel="<kernelName()>"}`, and fill @p row
 * (nullptr: none) with the WorkCounts' per-kernel host seconds and
 * items, their phase split, and `integrated` from the integrate item
 * count. A disarmed run pays two relaxed loads beyond the ATE and at
 * most one histogram record per kernel.
 *
 * @return the live ATE: the unaligned translation error, equal to
 *         metrics::computeAte()'s per-frame value.
 */
double completeFrame(const FrameOutcome &outcome,
                     support::metrics::FrameTelemetry *row = nullptr);

/**
 * Run @p system over @p sequence, starting from the sequence's
 * ground-truth initial pose (the SLAMBench protocol).
 *
 * @param system SLAM system under test (re-initialized here).
 * @param sequence Input frames plus ground truth.
 * @param options Run options.
 * @return collected metrics.
 */
BenchmarkResult runBenchmark(SlamSystem &system,
                             const dataset::Sequence &sequence,
                             const BenchmarkOptions &options = {});

} // namespace slambench::core

#endif // SLAMBENCH_CORE_BENCHMARK_HPP
