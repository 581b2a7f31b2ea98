#include "core/odometry.hpp"

#include <sstream>

#include "kfusion/backend.hpp"
#include "support/logging.hpp"

namespace slambench::core {

using kfusion::KernelId;
using kfusion::KernelTimer;
using kfusion::PyramidLevel;
using kfusion::WorkCounts;
using math::Mat4f;
using math::Vec3f;
using support::Image;

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
    math::CameraIntrinsics level = input_intrinsics.scaled(
        static_cast<size_t>(config.computeSizeRatio));
    for (size_t l = 0; l < config.pyramidIterations.size(); ++l) {
        if (level.width < 4 || level.height < 4)
            return "too many pyramid levels for the compute image "
                   "size";
        level = level.scaled(2);
    }
    return "";
}

void
OdometrySystem::initialize(const math::CameraIntrinsics &intrinsics,
                           const Mat4f &initial_pose)
{
    const std::string problem = checkCompatibility(config_, intrinsics);
    if (!problem.empty())
        support::fatal("OdometrySystem: " + problem);
    inputIntrinsics_ = intrinsics;
    scaledIntrinsics_ = intrinsics.scaled(
        static_cast<size_t>(config_.computeSizeRatio));
    levelIntrinsics_.clear();
    math::CameraIntrinsics level = scaledIntrinsics_;
    for (size_t l = 0; l < config_.pyramidIterations.size(); ++l) {
        levelIntrinsics_.push_back(level);
        level = level.scaled(2);
    }
    pose_ = initial_pose;
    haveReference_ = false;
    frameWork_.clear();
}

void
OdometrySystem::buildPyramid(const Image<uint16_t> &depth_mm,
                             std::vector<PyramidLevel> &pyramid,
                             WorkCounts &work) const
{
    pyramid.resize(levelIntrinsics_.size());
    Image<float> raw;
    {
        KernelTimer timer(work, KernelId::Mm2Meters);
        kfusion::mm2metersKernel(raw, depth_mm,
                                 config_.computeSizeRatio, nullptr);
        work.addItems(KernelId::Mm2Meters,
                      static_cast<double>(raw.size()));
        work.addBytes(KernelId::Mm2Meters,
                      static_cast<double>(raw.size()) * 6.0);
    }
    {
        KernelTimer timer(work, KernelId::BilateralFilter);
        kfusion::bilateralFilterKernel(pyramid[0].depth, raw,
                                       config_.filterRadius, 4.0f,
                                       0.1f, nullptr,
                                       kfusion::scalarKernelBackend());
        const double per_pixel =
            kfusion::bilateralItemsPerPixel(config_.filterRadius);
        work.addItems(KernelId::BilateralFilter,
                      static_cast<double>(raw.size()) * per_pixel);
        work.addBytes(KernelId::BilateralFilter,
                      static_cast<double>(raw.size()) *
                          (per_pixel * 4.0 + 4.0));
    }
    for (size_t l = 1; l < pyramid.size(); ++l) {
        KernelTimer timer(work, KernelId::HalfSample);
        kfusion::halfSampleRobustKernel(pyramid[l].depth,
                                        pyramid[l - 1].depth, 0.3f,
                                        nullptr);
        work.addItems(KernelId::HalfSample,
                      static_cast<double>(pyramid[l].depth.size()));
        work.addBytes(KernelId::HalfSample,
                      static_cast<double>(pyramid[l].depth.size()) *
                          20.0);
    }
    for (size_t l = 0; l < pyramid.size(); ++l) {
        pyramid[l].intrinsics = levelIntrinsics_[l];
        {
            KernelTimer timer(work, KernelId::Depth2Vertex);
            kfusion::depth2vertexKernel(pyramid[l].vertex,
                                        pyramid[l].depth,
                                        levelIntrinsics_[l], nullptr);
            work.addItems(
                KernelId::Depth2Vertex,
                static_cast<double>(pyramid[l].vertex.size()));
            work.addBytes(
                KernelId::Depth2Vertex,
                static_cast<double>(pyramid[l].vertex.size()) * 16.0);
        }
        {
            KernelTimer timer(work, KernelId::Vertex2Normal);
            kfusion::vertex2normalKernel(
                pyramid[l].normal, pyramid[l].vertex, nullptr,
                kfusion::scalarKernelBackend());
            work.addItems(
                KernelId::Vertex2Normal,
                static_cast<double>(pyramid[l].normal.size()));
            work.addBytes(
                KernelId::Vertex2Normal,
                static_cast<double>(pyramid[l].normal.size()) * 48.0);
        }
    }
}

bool
OdometrySystem::processFrame(const dataset::Frame &frame)
{
    WorkCounts work;
    std::vector<PyramidLevel> pyramid;
    buildPyramid(frame.depthMm, pyramid, work);

    bool tracked = true;
    if (haveReference_) {
        kfusion::KFusionConfig gates;
        gates.pyramidIterations = config_.pyramidIterations;
        gates.icpThreshold = config_.icpThreshold;
        gates.distThreshold = config_.distThreshold;
        gates.normalThreshold = config_.normalThreshold;
        gates.trackInlierFraction = config_.trackInlierFraction;
        gates.trackResidualLimit = config_.trackResidualLimit;

        const kfusion::TrackingStats stats = kfusion::icpTrack(
            pose_, pyramid, refVertex_, refNormal_, scaledIntrinsics_,
            refPose_, gates, work, nullptr,
            kfusion::scalarKernelBackend());
        tracked = stats.tracked;
    }

    // The *current* frame becomes the next reference, transformed to
    // world coordinates with the just-estimated pose.
    const PyramidLevel &finest = pyramid[0];
    refVertex_.resize(finest.vertex.width(), finest.vertex.height());
    refNormal_.resize(finest.normal.width(), finest.normal.height());
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
