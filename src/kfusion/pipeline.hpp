#ifndef SLAMBENCH_KFUSION_PIPELINE_HPP
#define SLAMBENCH_KFUSION_PIPELINE_HPP

/**
 * @file
 * The KinectFusion pipeline orchestrator: preprocess -> track ->
 * integrate -> raycast, with per-kernel work accounting.
 *
 * This mirrors the kernel structure of the SLAMBench KFusion
 * implementations; the Sequential/Threaded implementation switch
 * plays the role of SLAMBench's C++/OpenMP build variants.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "kfusion/config.hpp"
#include "kfusion/kernels.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/sparse_volume.hpp"
#include "kfusion/tracking.hpp"
#include "kfusion/volume.hpp"
#include "kfusion/work_counters.hpp"

namespace slambench::kfusion {

/** Outcome of processing one frame. */
struct FrameResult
{
    size_t frameIndex = 0;
    TrackingStats tracking;
    /** Whether the volume was updated this frame. */
    bool integrated = false;
    /** Whether model maps were raycast this frame. */
    bool raycast = false;
    /** Work/time accounting for this frame only. */
    WorkCounts work;
    /** Camera-to-world pose after tracking. */
    math::Mat4f pose;
};

/**
 * Dense RGB-D SLAM system (KinectFusion).
 *
 * Usage: construct with the input camera intrinsics and a
 * configuration, setPose() to the starting pose, then feed depth
 * frames in order via processFrame().
 */
class KFusion
{
  public:
    /**
     * @param config Algorithmic parameters (validated; fatal on
     *               invalid values).
     * @param input_intrinsics Intrinsics of the raw depth input.
     * @param impl Kernel implementation flavor.
     * @param num_threads Worker threads for Threaded (0 = auto).
     */
    KFusion(const KFusionConfig &config,
            const math::CameraIntrinsics &input_intrinsics,
            Implementation impl = Implementation::Sequential,
            size_t num_threads = 0);

    /**
     * Check whether a configuration can run on inputs of the given
     * size (the compute image and every pyramid level must stay
     * large enough).
     *
     * @return an empty string when compatible, else the problem.
     */
    static std::string checkCompatibility(
        const KFusionConfig &config,
        const math::CameraIntrinsics &input_intrinsics);

    /** @return the active configuration. */
    const KFusionConfig &config() const { return config_; }

    /** @return current camera-to-world pose estimate. */
    const math::Mat4f &pose() const { return pose_; }

    /** Set the camera pose (normally only before the first frame). */
    void setPose(const math::Mat4f &pose) { pose_ = pose; }

    /**
     * Ingest one depth frame.
     *
     * @param depth_mm Sensor depth in millimeters (0 = invalid), at
     *                 the input intrinsics' resolution.
     * @return tracking outcome, work accounting, and the new pose.
     */
    FrameResult processFrame(const support::Image<uint16_t> &depth_mm);

    /**
     * Render the reconstructed model from @p view_pose into @p out
     * (the GUI's model pane; charged to the RenderVolume kernel).
     *
     * At the pose and intrinsics of the last raycast, with no
     * integration since, the render is shaded from that raycast's
     * normal map instead of marching again (renderFromNormalsKernel):
     * same pixels, same work counts.
     *
     * @param out Destination image.
     * @param view_pose Camera-to-world view pose.
     * @param intrinsics Render camera; nullptr renders at the input
     *                   resolution (the GUI default).
     */
    void renderModel(support::Image<support::Rgb8> &out,
                     const math::Mat4f &view_pose,
                     const math::CameraIntrinsics *intrinsics =
                         nullptr);

    /**
     * Render the tracking-status pane: one pixel per tracked pixel
     * colored by its TrackResult (the GUI's bottom-left view).
     */
    void renderTrack(support::Image<support::Rgb8> &out) const;

    /**
     * @return the fused TSDF map: the dense or the sparse volume, as
     * config.volumeBackend names.
     */
    const TsdfMap &volume() const { return volume_; }

    /** @return model vertex map from the last raycast (world frame). */
    const support::Image<math::Vec3f> &
    raycastVertex() const
    {
        return raycastVertex_;
    }

    /** @return model normal map from the last raycast (world frame). */
    const support::Image<math::Vec3f> &
    raycastNormal() const
    {
        return raycastNormal_;
    }

    /** @return accumulated work over all processed frames. */
    const WorkCounts &totalWork() const { return totalWork_; }

    /** @return per-frame work records, oldest first. */
    const std::vector<WorkCounts> &frameWork() const { return frameWork_; }

    /** @return number of frames processed. */
    size_t frameCount() const { return frame_; }

    /** @return intrinsics the pipeline computes at (after scaling). */
    const math::CameraIntrinsics &
    computeIntrinsics() const
    {
        return scaledIntrinsics_;
    }

    /**
     * @return the resolved kernel backend the hot kernels run on
     * (config.kernelBackend with "auto" already dispatched).
     */
    const KernelBackend &kernelBackend() const { return *backend_; }

  private:
    RaycastParams raycastParams() const;

    KFusionConfig config_;
    math::CameraIntrinsics inputIntrinsics_;
    math::CameraIntrinsics scaledIntrinsics_;
    Implementation impl_;
    const KernelBackend *backend_ = nullptr;
    std::unique_ptr<support::ThreadPool> pool_;

    TsdfMap volume_;
    math::Mat4f pose_;

    // Preprocessing output: metric depth, and the tracking pyramid,
    // whose level-0 depth preprocessDepth filters into.
    support::Image<float> rawDepth_;
    std::vector<PyramidLevel> pyramid_;

    // Model (reference) maps from the last raycast.
    support::Image<math::Vec3f> raycastVertex_;
    support::Image<math::Vec3f> raycastNormal_;
    math::Mat4f raycastPose_;
    bool haveReference_ = false;
    /** The maps were cast from the volume as it is now. */
    bool raycastCurrent_ = false;
    /** Marching steps the last raycast took. */
    double raycastSteps_ = 0.0;

    // Last track data for the GUI pane.
    support::Image<TrackData> lastTrackData_;

    size_t frame_ = 0;
    WorkCounts totalWork_;
    std::vector<WorkCounts> frameWork_;
};

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_PIPELINE_HPP
