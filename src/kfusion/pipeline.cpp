#include "kfusion/pipeline.hpp"

#include <algorithm>
#include <cstring>

#include "kfusion/backend.hpp"
#include "metrics/timing.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

using math::Mat4f;
using math::Vec3f;

namespace {

/** @return @p config; fatal when it cannot run on the input. */
const KFusionConfig &
checkedConfig(const KFusionConfig &config,
              const math::CameraIntrinsics &input_intrinsics)
{
    const std::string problem =
        KFusion::checkCompatibility(config, input_intrinsics);
    if (!problem.empty())
        support::fatal("KFusion: invalid configuration: " + problem);
    return config;
}

/** @return the volume config.volumeBackend names, built in place. */
TsdfMap
makeMap(const KFusionConfig &config)
{
    if (config.volumeBackend == "sparse")
        return TsdfMap(std::in_place_type<SparseTsdfVolume>,
                       config.volumeResolution, config.volumeSize,
                       config.volumeOrigin);
    return TsdfMap(std::in_place_type<TsdfVolume>,
                   config.volumeResolution, config.volumeSize,
                   config.volumeOrigin);
}

} // namespace

std::string
KFusion::checkCompatibility(
    const KFusionConfig &config,
    const math::CameraIntrinsics &input_intrinsics)
{
    const std::string problem = config.validate();
    if (!problem.empty())
        return problem;
    const math::CameraIntrinsics scaled = input_intrinsics.scaled(
        static_cast<size_t>(config.computeSizeRatio));
    if (scaled.width < 8 || scaled.height < 8)
        return "compute image too small; lower the compute-size "
               "ratio";
    return checkPyramidSize(scaled, config.levels());
}

KFusion::KFusion(const KFusionConfig &config,
                 const math::CameraIntrinsics &input_intrinsics,
                 Implementation impl, size_t num_threads)
    : config_(checkedConfig(config, input_intrinsics)),
      inputIntrinsics_(input_intrinsics), impl_(impl),
      volume_(makeMap(config_))
{
    // Resolve "auto" (CPUID dispatch) to a concrete backend once;
    // validate() already guaranteed the name resolves.
    std::string backend_error;
    backend_ = resolveKernelBackend(config_.kernelBackend,
                                    &backend_error);
    if (!backend_)
        support::fatal("KFusion: " + backend_error);

    if (impl_ == Implementation::Threaded)
        pool_ = std::make_unique<support::ThreadPool>(num_threads);

    scaledIntrinsics_ = inputIntrinsics_.scaled(
        static_cast<size_t>(config_.computeSizeRatio));

    pyramid_ = makePyramid(scaledIntrinsics_, config_.levels());
}

RaycastParams
KFusion::raycastParams() const
{
    RaycastParams params;
    params.nearPlane = config_.nearPlane;
    params.farPlane = config_.farPlane;
    params.step = config_.voxelSize();
    params.largeStep = 0.75f * config_.mu;
    // The coarse step must never be finer than the fine step.
    params.largeStep = std::max(params.largeStep, params.step);
    return params;
}

FrameResult
KFusion::processFrame(const support::Image<uint16_t> &depth_mm)
{
    if (depth_mm.width() != inputIntrinsics_.width ||
        depth_mm.height() != inputIntrinsics_.height)
        support::fatal("KFusion::processFrame: frame size does not "
                       "match the input intrinsics");

    TRACE_FRAME(frame_);
    TRACE_SCOPE("process_frame");
    // Registry handles are stable for the process lifetime, so the
    // lookups happen once; per frame this is a few relaxed atomics.
    namespace sm = support::metrics;
    static sm::Counter &frames_counter =
        sm::Registry::instance().counter("pipeline.frames");
    static sm::Counter &integrations_counter =
        sm::Registry::instance().counter("pipeline.integrations");
    static sm::Counter &integration_skips_counter =
        sm::Registry::instance().counter(
            "pipeline.integration_skips");
    static sm::Counter &lost_counter =
        sm::Registry::instance().counter(
            "pipeline.tracking_failures");
    static sm::LatencyHistogram &frame_histogram =
        sm::Registry::instance().histogram(
            "pipeline.frame_seconds");
    static sm::Gauge &allocated_gauge =
        sm::Registry::instance().gauge("volume.blocks.allocated");
    static sm::Gauge &bytes_gauge =
        sm::Registry::instance().gauge("volume.blocks.bytes");
    const uint64_t start_ns = slambench::metrics::now_ns();

    FrameResult result;
    result.frameIndex = frame_;
    WorkCounts &work = result.work;

    preprocessDepth(rawDepth_, pyramid_, depth_mm, config_, work,
                    pool_.get(), *backend_);

    // --- Tracking ---
    // The first frame builds its pyramid but has no reference to track
    // against yet; a frame the tracking rate skips keeps the pose.
    const bool do_track =
        frame_ > 0 && haveReference_ &&
        frame_ % static_cast<size_t>(config_.trackingRate) == 0;
    if (frame_ == 0 || do_track)
        buildPyramid(pyramid_, config_, work, pool_.get(), *backend_);
    result.tracking.tracked = true;
    if (do_track) {
        result.tracking = icpTrack(
            pose_, pyramid_, raycastVertex_, raycastNormal_,
            scaledIntrinsics_, raycastPose_, config_, work,
            pool_.get(), *backend_, lastTrackData_);
    }

    // --- Integration ---
    const bool do_integrate =
        result.tracking.tracked &&
        (frame_ % static_cast<size_t>(config_.integrationRate) == 0 ||
         frame_ < 4);
    if (do_integrate) {
        const VolumeMemoryStats stats = std::visit(
            [&](auto &volume) {
                volume.integrate(rawDepth_, scaledIntrinsics_, pose_,
                                 config_.mu, config_.maxWeight, work,
                                 pool_.get(), *backend_);
                return volume.memoryStats();
            },
            volume_);
        // Residency of either volume; the dense one has no blocks and
        // is always fully resident.
        allocated_gauge.set(static_cast<double>(stats.allocatedBlocks));
        bytes_gauge.set(static_cast<double>(stats.bytes));
        result.integrated = true;
        raycastCurrent_ = false;
    }

    // --- Raycast the model for the next frame's tracking ---
    if (frame_ > 2 || do_integrate) {
        const double steps_before = work.itemsFor(KernelId::Raycast);
        std::visit(
            [&](const auto &volume) {
                raycastKernel(raycastVertex_, raycastNormal_, volume,
                              scaledIntrinsics_, pose_, raycastParams(),
                              work, pool_.get(), *backend_);
            },
            volume_);
        raycastSteps_ = work.itemsFor(KernelId::Raycast) - steps_before;
        raycastPose_ = pose_;
        haveReference_ = true;
        raycastCurrent_ = true;
        result.raycast = true;
    }

    result.pose = pose_;
    totalWork_.merge(work);
    frameWork_.push_back(work);
    ++frame_;

    frames_counter.add(1);
    (result.integrated ? integrations_counter
                       : integration_skips_counter)
        .add(1);
    if (!result.tracking.tracked)
        lost_counter.add(1);
    frame_histogram.record(
        static_cast<double>(slambench::metrics::now_ns() - start_ns) *
        1e-9);
    return result;
}

void
KFusion::renderModel(support::Image<support::Rgb8> &out,
                     const Mat4f &view_pose,
                     const math::CameraIntrinsics *intrinsics)
{
    TRACE_SCOPE("render_model");
    WorkCounts work;
    const math::CameraIntrinsics &k =
        intrinsics ? *intrinsics : inputIntrinsics_;
    // The raycast's rays are this render's rays only when pose and
    // intrinsics match bit for bit (-0 and +0 aim rays differently).
    if (raycastCurrent_ &&
        std::memcmp(&view_pose, &raycastPose_, sizeof(Mat4f)) == 0 &&
        std::memcmp(&k, &scaledIntrinsics_, sizeof(k)) == 0) {
        renderFromNormalsKernel(out, raycastNormal_, raycastSteps_,
                                work, pool_.get());
    } else {
        std::visit(
            [&](const auto &volume) {
                renderVolumeKernel(out, volume, k, view_pose,
                                   raycastParams(), work, pool_.get(),
                                   *backend_);
            },
            volume_);
    }
    totalWork_.merge(work);
    if (!frameWork_.empty())
        frameWork_.back().merge(work);
}

void
KFusion::renderTrack(support::Image<support::Rgb8> &out) const
{
    out.resize(lastTrackData_.width(), lastTrackData_.height());
    for (size_t i = 0; i < lastTrackData_.size(); ++i) {
        switch (lastTrackData_[i].result) {
          case TrackResult::Ok:
            out[i] = {128, 128, 128};
            break;
          case TrackResult::NoInputVertex:
            out[i] = {0, 0, 0};
            break;
          case TrackResult::ProjectedOutside:
            out[i] = {255, 0, 0};
            break;
          case TrackResult::NoRefNormal:
            out[i] = {0, 0, 255};
            break;
          case TrackResult::TooFar:
            out[i] = {255, 255, 0};
            break;
          case TrackResult::NormalMismatch:
            out[i] = {255, 0, 255};
            break;
        }
    }
}

} // namespace slambench::kfusion
