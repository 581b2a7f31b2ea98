#ifndef SLAMBENCH_CORE_ODOMETRY_HPP
#define SLAMBENCH_CORE_ODOMETRY_HPP

/**
 * @file
 * A second SLAM algorithm behind the SlamSystem interface: pure
 * frame-to-frame ICP visual odometry (no map, no TSDF volume).
 *
 * SLAMBench's purpose is comparing *different* SLAM systems under
 * one harness; this system is the classic drift-prone baseline that
 * KinectFusion's frame-to-model tracking is evaluated against. It
 * runs KinectFusion's depth front end (kfusion::preprocessDepth and
 * kfusion::buildPyramid, which charge the work) and its icpTrack, so
 * both systems count the same work for the same kernels and device
 * simulation treats them alike.
 */

#include <memory>
#include <string>
#include <vector>

#include "core/slam_system.hpp"
#include "kfusion/tracking.hpp"

namespace slambench::core {

/** Configuration of the odometry baseline. */
struct OdometryConfig
{
    /** Input down-scaling ratio, as in KFusionConfig. */
    int computeSizeRatio = 1;
    /** ICP iterations per pyramid level, finest first. */
    std::vector<int> pyramidIterations{10, 5, 4};
    /** ICP convergence threshold on the twist norm. */
    float icpThreshold = 1e-5f;
    /** Bilateral filter radius (0 disables). */
    int filterRadius = 2;
    /** Correspondence gates (see KFusionConfig). */
    float distThreshold = 0.1f;
    float normalThreshold = 0.8f;
    /** Pose acceptance gates. */
    float trackInlierFraction = 0.10f;
    float trackResidualLimit = 2e-2f;

    /**
     * @return the flag-named fields a run line prints, in
     * KFusionConfig::toString()'s format: csr, icp, pyr and the
     * kernel backend, which is always scalar.
     */
    std::string toString() const;
};

/**
 * Frame-to-frame ICP odometry bound to the SlamSystem interface.
 */
class OdometrySystem : public SlamSystem
{
  public:
    explicit OdometrySystem(const OdometryConfig &config = {});

    /**
     * Check whether a configuration can run on inputs of the given
     * size (every pyramid level of the compute image at least 4x4).
     * initialize() enforces the same rule.
     *
     * @return an empty string when compatible, else the problem.
     */
    static std::string checkCompatibility(
        const OdometryConfig &config,
        const math::CameraIntrinsics &input_intrinsics);

    std::string name() const override;
    void initialize(const math::CameraIntrinsics &intrinsics,
                    const math::Mat4f &initial_pose) override;
    bool processFrame(const dataset::Frame &frame) override;
    math::Mat4f currentPose() const override;
    const std::vector<kfusion::WorkCounts> &frameWork() const override;

  private:
    OdometryConfig config_;
    /** config_ in the front end's and icpTrack's terms. */
    kfusion::KFusionConfig kernelConfig_;
    math::Mat4f pose_;

    // The current frame: metric depth, its pyramid, the ICP records.
    support::Image<float> rawDepth_;
    std::vector<kfusion::PyramidLevel> pyramid_;
    support::Image<kfusion::TrackData> trackData_;

    // Previous frame's maps in world coordinates (the reference).
    support::Image<math::Vec3f> refVertex_;
    support::Image<math::Vec3f> refNormal_;
    math::Mat4f refPose_;
    bool haveReference_ = false;

    std::vector<kfusion::WorkCounts> frameWork_;
};

} // namespace slambench::core

#endif // SLAMBENCH_CORE_ODOMETRY_HPP
