#include "core/odometry.hpp"

#include <sstream>

#include "kfusion/backend.hpp"
#include "support/logging.hpp"

namespace slambench::core {

using kfusion::PyramidLevel;
using kfusion::WorkCounts;
using math::Mat4f;
using math::Vec3f;

std::string
OdometryConfig::toString() const
{
    std::ostringstream out;
    out << "csr=" << computeSizeRatio << " icp=" << icpThreshold
        << " pyr=";
    for (size_t i = 0; i < pyramidIterations.size(); ++i) {
        if (i)
            out << ',';
        out << pyramidIterations[i];
    }
    out << " kb=scalar";
    return out.str();
}

OdometrySystem::OdometrySystem(const OdometryConfig &config)
    : config_(config)
{
    if (config_.pyramidIterations.empty())
        support::fatal("OdometrySystem: need >= 1 pyramid level");
    // Every other field keeps KFusionConfig's SLAMBench default.
    kernelConfig_.computeSizeRatio = config.computeSizeRatio;
    kernelConfig_.pyramidIterations = config.pyramidIterations;
    kernelConfig_.icpThreshold = config.icpThreshold;
    kernelConfig_.filterRadius = config.filterRadius;
    kernelConfig_.distThreshold = config.distThreshold;
    kernelConfig_.normalThreshold = config.normalThreshold;
    kernelConfig_.trackInlierFraction = config.trackInlierFraction;
    kernelConfig_.trackResidualLimit = config.trackResidualLimit;
}

std::string
OdometrySystem::name() const
{
    return "icp-odometry";
}

std::string
OdometrySystem::checkCompatibility(
    const OdometryConfig &config,
    const math::CameraIntrinsics &input_intrinsics)
{
    return kfusion::checkPyramidSize(
        input_intrinsics.scaled(
            static_cast<size_t>(config.computeSizeRatio)),
        config.pyramidIterations.size());
}

void
OdometrySystem::initialize(const math::CameraIntrinsics &intrinsics,
                           const Mat4f &initial_pose)
{
    const std::string problem = checkCompatibility(config_, intrinsics);
    if (!problem.empty())
        support::fatal("OdometrySystem: " + problem);
    pyramid_ = kfusion::makePyramid(
        intrinsics.scaled(static_cast<size_t>(config_.computeSizeRatio)),
        kernelConfig_.levels());
    pose_ = initial_pose;
    haveReference_ = false;
    frameWork_.clear();
}

bool
OdometrySystem::processFrame(const dataset::Frame &frame)
{
    WorkCounts work;
    const kfusion::KernelBackend &backend =
        kfusion::scalarKernelBackend();
    kfusion::preprocessDepth(rawDepth_, pyramid_, frame.depthMm,
                             kernelConfig_, work, nullptr, backend);
    kfusion::buildPyramid(pyramid_, kernelConfig_, work, nullptr,
                          backend);

    // The reference maps are at the finest level's size.
    const PyramidLevel &finest = pyramid_[0];
    bool tracked = true;
    if (haveReference_) {
        tracked = kfusion::icpTrack(pose_, pyramid_, refVertex_,
                                    refNormal_, finest.intrinsics,
                                    refPose_, kernelConfig_, work,
                                    nullptr, backend, trackData_)
                      .tracked;
    }

    // The *current* frame becomes the next reference, transformed to
    // world coordinates with the just-estimated pose.
    refVertex_.sizeForOverwrite(finest.vertex.width(),
                                finest.vertex.height());
    refNormal_.sizeForOverwrite(finest.normal.width(),
                                finest.normal.height());
    for (size_t i = 0; i < finest.vertex.size(); ++i) {
        if (finest.vertex[i].squaredNorm() == 0.0f ||
            finest.normal[i].squaredNorm() == 0.0f) {
            refVertex_[i] = Vec3f{};
            refNormal_[i] = Vec3f{};
            continue;
        }
        refVertex_[i] = pose_.transformPoint(finest.vertex[i]);
        refNormal_[i] = pose_.transformDir(finest.normal[i]);
    }
    refPose_ = pose_;
    haveReference_ = true;

    frameWork_.push_back(work);
    return tracked;
}

Mat4f
OdometrySystem::currentPose() const
{
    return pose_;
}

const std::vector<WorkCounts> &
OdometrySystem::frameWork() const
{
    return frameWork_;
}

} // namespace slambench::core
