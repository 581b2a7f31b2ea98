/**
 * @file
 * Tests for ICP tracking: correspondence gating, the reduction, pose
 * updates, and convergence from perturbed starts (property sweep).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "dataset/generator.hpp"
#include "kfusion/backend.hpp"
#include "kfusion/kernels.hpp"
#include "kfusion/tracking.hpp"
#include "math/se3.hpp"
#include "support/rng.hpp"

namespace {

using namespace slambench::kfusion;
using slambench::dataset::Sequence;
using slambench::dataset::SequenceSpec;
using slambench::math::CameraIntrinsics;
using slambench::math::Mat4f;
using slambench::math::Vec3d;
using slambench::math::Vec3f;
using slambench::support::Image;
using slambench::support::Rng;

/** Build vertex/normal maps in the camera frame from ideal depth. */
void
buildMaps(const Image<float> &depth, const CameraIntrinsics &k,
          Image<Vec3f> &vertex, Image<Vec3f> &normal)
{
    depth2vertexKernel(vertex, depth, k, nullptr);
    vertex2normalKernel(normal, vertex, nullptr, scalarKernelBackend());
}

/** Transform camera-frame maps to world frame with @p pose. */
void
toWorld(const Image<Vec3f> &vertex_cam, const Image<Vec3f> &normal_cam,
        const Mat4f &pose, Image<Vec3f> &vertex_w,
        Image<Vec3f> &normal_w)
{
    vertex_w.resize(vertex_cam.width(), vertex_cam.height());
    normal_w.resize(normal_cam.width(), normal_cam.height());
    for (size_t i = 0; i < vertex_cam.size(); ++i) {
        if (vertex_cam[i].squaredNorm() == 0.0f ||
            normal_cam[i].squaredNorm() == 0.0f) {
            vertex_w[i] = Vec3f{};
            normal_w[i] = Vec3f{};
            continue;
        }
        vertex_w[i] = pose.transformPoint(vertex_cam[i]);
        normal_w[i] = pose.transformDir(normal_cam[i]);
    }
}

/** Shared scaffolding: one rendered frame of the living room. */
class IcpFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SequenceSpec spec;
        spec.width = 80;
        spec.height = 60;
        spec.numFrames = 1;
        spec.sensorNoise = false;
        spec.renderRgb = false;
        sequence_ = generateSequence(spec);
        k_ = sequence_.intrinsics;
        pose_ = sequence_.groundTruth.pose(0);

        Image<float> depth;
        mm2metersKernel(depth, sequence_.frames[0].depthMm, 1,
                        nullptr);
        buildMaps(depth, k_, vertexCam_, normalCam_);
        toWorld(vertexCam_, normalCam_, pose_, refVertex_, refNormal_);

        level_.depth = depth;
        level_.vertex = vertexCam_;
        level_.normal = normalCam_;
        level_.intrinsics = k_;
    }

    Sequence sequence_;
    CameraIntrinsics k_;
    Mat4f pose_;
    Image<Vec3f> vertexCam_, normalCam_;
    Image<Vec3f> refVertex_, refNormal_;
    PyramidLevel level_;
};

TEST_F(IcpFixture, PerfectPoseGivesNearZeroResidual)
{
    Image<TrackData> track;
    trackKernel(track, vertexCam_, normalCam_, pose_, refVertex_,
                refNormal_, k_, pose_, 0.1f, 0.8f, nullptr,
                scalarKernelBackend());
    const ReductionResult red = reduceKernel(track, nullptr,
                                             scalarKernelBackend());
    ASSERT_GT(red.validCount, track.size() / 2);
    EXPECT_LT(std::sqrt(red.errorSq /
                        static_cast<double>(red.validCount)),
              1e-4);
}

TEST_F(IcpFixture, GatesRejectFarCorrespondences)
{
    // Displace the pose by more than the distance gate.
    Mat4f far_pose = pose_;
    far_pose(0, 3) += 0.5f;
    Image<TrackData> track;
    trackKernel(track, vertexCam_, normalCam_, far_pose, refVertex_,
                refNormal_, k_, pose_, 0.1f, 0.8f, nullptr,
                scalarKernelBackend());
    size_t too_far = 0, ok = 0;
    for (size_t i = 0; i < track.size(); ++i) {
        too_far += track[i].result == TrackResult::TooFar;
        ok += track[i].result == TrackResult::Ok;
    }
    EXPECT_GT(too_far, 0u);
    EXPECT_LT(ok, track.size() / 2);
}

TEST_F(IcpFixture, ReductionSequentialMatchesThreaded)
{
    Image<TrackData> track;
    trackKernel(track, vertexCam_, normalCam_, pose_, refVertex_,
                refNormal_, k_, pose_, 0.1f, 0.8f, nullptr,
                scalarKernelBackend());
    slambench::support::ThreadPool pool(3);
    const ReductionResult a = reduceKernel(track, nullptr,
                                           scalarKernelBackend());
    const ReductionResult b = reduceKernel(track, &pool,
                                           scalarKernelBackend());
    EXPECT_EQ(a.validCount, b.validCount);
    EXPECT_NEAR(a.errorSq, b.errorSq, 1e-9 * (1.0 + a.errorSq));
    for (size_t i = 0; i < a.jtj.size(); ++i)
        EXPECT_NEAR(a.jtj[i], b.jtj[i],
                    1e-9 * (1.0 + std::abs(a.jtj[i])));
}

TEST_F(IcpFixture, UpdatePoseRejectsTooFewCorrespondences)
{
    ReductionResult red;
    red.validCount = 3;
    Mat4f pose = pose_;
    double twist = 0.0;
    EXPECT_FALSE(updatePose(pose, red, twist));
}

/** Convergence property: ICP recovers a perturbed pose. */
struct Perturbation
{
    double translation; ///< meters
    double rotation;    ///< radians
};

class IcpConvergence
    : public ::testing::TestWithParam<Perturbation>
{};

TEST_P(IcpConvergence, RecoversPerturbedPose)
{
    SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 1;
    spec.sensorNoise = false;
    spec.renderRgb = false;
    const Sequence sequence = generateSequence(spec);
    const CameraIntrinsics k = sequence.intrinsics;
    const Mat4f gt_pose = sequence.groundTruth.pose(0);

    Image<float> depth;
    mm2metersKernel(depth, sequence.frames[0].depthMm, 1, nullptr);
    Image<Vec3f> vertex_cam, normal_cam, ref_vertex, ref_normal;
    buildMaps(depth, k, vertex_cam, normal_cam);
    toWorld(vertex_cam, normal_cam, gt_pose, ref_vertex, ref_normal);

    // Two-level pyramid for robustness.
    KFusionConfig config;
    config.pyramidIterations = {10, 5};
    std::vector<PyramidLevel> pyramid(2);
    pyramid[0].depth = depth;
    pyramid[0].vertex = vertex_cam;
    pyramid[0].normal = normal_cam;
    pyramid[0].intrinsics = k;
    halfSampleRobustKernel(pyramid[1].depth, depth, 0.3f, nullptr);
    pyramid[1].intrinsics = k.scaled(2);
    buildMaps(pyramid[1].depth, pyramid[1].intrinsics,
              pyramid[1].vertex, pyramid[1].normal);

    Rng rng(31);
    const Perturbation p = GetParam();
    int recovered = 0;
    const int trials = 5;
    for (int trial = 0; trial < trials; ++trial) {
        // Random perturbation of the given magnitude.
        Vec3d axis{rng.normal(), rng.normal(), rng.normal()};
        axis = axis.normalized();
        const auto delta = slambench::math::expSe3<double>(
            Vec3d{rng.normal(), rng.normal(), rng.normal()}
                    .normalized() *
                p.translation,
            axis * p.rotation);
        Mat4f pose = delta.cast<float>() * gt_pose;

        WorkCounts counts;
        Image<TrackData> track_data;
        const TrackingStats stats =
            icpTrack(pose, pyramid, ref_vertex, ref_normal, k,
                     gt_pose, config, counts, nullptr,
                     scalarKernelBackend(), track_data);
        const float pos_err =
            (pose.translationPart() - gt_pose.translationPart())
                .norm();
        if (stats.tracked && pos_err < 0.01f)
            ++recovered;
    }
    EXPECT_GE(recovered, trials - 1)
        << "t=" << p.translation << " r=" << p.rotation;
}

INSTANTIATE_TEST_SUITE_P(
    Magnitudes, IcpConvergence,
    ::testing::Values(Perturbation{0.005, 0.005},
                      Perturbation{0.01, 0.01},
                      Perturbation{0.02, 0.02},
                      Perturbation{0.04, 0.03}));

TEST(IcpResidualVariant, PointToPointAlsoConverges)
{
    SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 1;
    spec.sensorNoise = false;
    spec.renderRgb = false;
    const Sequence sequence = generateSequence(spec);
    const CameraIntrinsics k = sequence.intrinsics;
    const Mat4f gt_pose = sequence.groundTruth.pose(0);

    Image<float> depth;
    mm2metersKernel(depth, sequence.frames[0].depthMm, 1, nullptr);
    Image<Vec3f> vertex_cam, normal_cam, ref_vertex, ref_normal;
    buildMaps(depth, k, vertex_cam, normal_cam);
    toWorld(vertex_cam, normal_cam, gt_pose, ref_vertex, ref_normal);

    KFusionConfig config;
    config.pyramidIterations = {15};
    config.icpResidual = IcpResidual::PointToPoint;
    std::vector<PyramidLevel> pyramid(1);
    pyramid[0].depth = depth;
    pyramid[0].vertex = vertex_cam;
    pyramid[0].normal = normal_cam;
    pyramid[0].intrinsics = k;

    // Small perturbation: p2p should still recover it.
    Mat4f pose = gt_pose;
    pose(0, 3) += 0.01f;
    WorkCounts counts;
    Image<TrackData> track_data;
    const TrackingStats stats =
        icpTrack(pose, pyramid, ref_vertex, ref_normal, k, gt_pose,
                 config, counts, nullptr, scalarKernelBackend(),
                 track_data);
    EXPECT_TRUE(stats.tracked);
    EXPECT_LT((pose.translationPart() - gt_pose.translationPart())
                  .norm(),
              0.005f);
}

TEST(IcpResidualVariant, FormulationsDifferPerPixel)
{
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 1;
    spec.sensorNoise = false;
    spec.renderRgb = false;
    const Sequence sequence = generateSequence(spec);
    Image<float> depth;
    mm2metersKernel(depth, sequence.frames[0].depthMm, 1, nullptr);
    Image<Vec3f> vertex_cam, normal_cam, ref_vertex, ref_normal;
    buildMaps(depth, sequence.intrinsics, vertex_cam, normal_cam);
    const Mat4f gt = sequence.groundTruth.pose(0);
    toWorld(vertex_cam, normal_cam, gt, ref_vertex, ref_normal);

    Mat4f off = gt;
    off(1, 3) += 0.02f;
    Image<TrackData> plane, point;
    trackKernel(plane, vertex_cam, normal_cam, off, ref_vertex,
                ref_normal, sequence.intrinsics, gt, 0.1f, 0.8f,
                nullptr, scalarKernelBackend(), IcpResidual::PointToPlane);
    trackKernel(point, vertex_cam, normal_cam, off, ref_vertex,
                ref_normal, sequence.intrinsics, gt, 0.1f, 0.8f,
                nullptr, scalarKernelBackend(), IcpResidual::PointToPoint);
    size_t differing = 0;
    size_t unit_jacobians = 0;
    for (size_t i = 0; i < plane.size(); ++i) {
        if (plane[i].result != TrackResult::Ok)
            continue;
        differing += std::abs(point[i].error - plane[i].error) > 1e-6f;
        // Point-to-point jacobians start with a coordinate axis.
        const auto &j = point[i].jacobian;
        const float v_norm_sq =
            j[0] * j[0] + j[1] * j[1] + j[2] * j[2];
        EXPECT_NEAR(v_norm_sq, 1.0f, 1e-5f);
        unit_jacobians +=
            (j[0] == 1.0f) + (j[1] == 1.0f) + (j[2] == 1.0f);
    }
    EXPECT_GT(differing, 0u);
    EXPECT_GT(unit_jacobians, 0u);
}

TEST(IcpEdgeCases, ZeroIterationsReportsTracked)
{
    // Open-loop mode: no iterations configured anywhere.
    KFusionConfig config;
    config.pyramidIterations = {0};
    std::vector<PyramidLevel> pyramid(1);
    pyramid[0].vertex.resize(8, 8);
    pyramid[0].normal.resize(8, 8);
    pyramid[0].intrinsics = CameraIntrinsics::fromFov(8, 8, 1.0f);

    Image<Vec3f> ref_v(8, 8), ref_n(8, 8);
    Mat4f pose;
    WorkCounts counts;
    Image<TrackData> track_data;
    const TrackingStats stats =
        icpTrack(pose, pyramid, ref_v, ref_n, pyramid[0].intrinsics,
                 Mat4f{}, config, counts, nullptr, scalarKernelBackend(),
                 track_data);
    EXPECT_TRUE(stats.tracked);
    EXPECT_EQ(stats.iterations, 0);
}

TEST(IcpEdgeCases, EmptyReferenceFailsGates)
{
    // Valid live data but an empty (all-invalid) reference: no
    // correspondences, so the pose must be rejected and unchanged.
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 1;
    spec.sensorNoise = false;
    spec.renderRgb = false;
    const Sequence sequence = generateSequence(spec);
    Image<float> depth;
    mm2metersKernel(depth, sequence.frames[0].depthMm, 1, nullptr);

    KFusionConfig config;
    config.pyramidIterations = {3};
    std::vector<PyramidLevel> pyramid(1);
    pyramid[0].depth = depth;
    pyramid[0].intrinsics = sequence.intrinsics;
    buildMaps(depth, sequence.intrinsics, pyramid[0].vertex,
              pyramid[0].normal);

    Image<Vec3f> ref_v(40, 30), ref_n(40, 30); // all zeros
    const Mat4f original = sequence.groundTruth.pose(0);
    Mat4f pose = original;
    WorkCounts counts;
    Image<TrackData> track_data;
    const TrackingStats stats = icpTrack(
        pose, pyramid, ref_v, ref_n, sequence.intrinsics, original,
        config, counts, nullptr, scalarKernelBackend(), track_data);
    EXPECT_FALSE(stats.tracked);
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            EXPECT_FLOAT_EQ(pose(r, c), original(r, c));
}

TEST(IcpEdgeCases, TrackDataExported)
{
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 1;
    spec.sensorNoise = false;
    spec.renderRgb = false;
    const Sequence sequence = generateSequence(spec);
    Image<float> depth;
    mm2metersKernel(depth, sequence.frames[0].depthMm, 1, nullptr);

    KFusionConfig config;
    config.pyramidIterations = {2};
    std::vector<PyramidLevel> pyramid(1);
    pyramid[0].depth = depth;
    pyramid[0].intrinsics = sequence.intrinsics;
    buildMaps(depth, sequence.intrinsics, pyramid[0].vertex,
              pyramid[0].normal);

    Image<Vec3f> ref_v, ref_n;
    toWorld(pyramid[0].vertex, pyramid[0].normal,
            sequence.groundTruth.pose(0), ref_v, ref_n);

    Mat4f pose = sequence.groundTruth.pose(0);
    WorkCounts counts;
    Image<TrackData> exported;
    icpTrack(pose, pyramid, ref_v, ref_n, sequence.intrinsics,
             sequence.groundTruth.pose(0), config, counts, nullptr,
             scalarKernelBackend(), exported);
    EXPECT_EQ(exported.width(), 40u);
    EXPECT_EQ(exported.height(), 30u);
}

TEST(IcpWork, CountsTrackReduceSolve)
{
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 1;
    spec.sensorNoise = false;
    spec.renderRgb = false;
    const Sequence sequence = generateSequence(spec);
    Image<float> depth;
    mm2metersKernel(depth, sequence.frames[0].depthMm, 1, nullptr);

    KFusionConfig config;
    config.pyramidIterations = {3};
    config.icpThreshold = 0.0f; // never early-exit
    std::vector<PyramidLevel> pyramid(1);
    pyramid[0].depth = depth;
    pyramid[0].intrinsics = sequence.intrinsics;
    buildMaps(depth, sequence.intrinsics, pyramid[0].vertex,
              pyramid[0].normal);
    Image<Vec3f> ref_v, ref_n;
    toWorld(pyramid[0].vertex, pyramid[0].normal,
            sequence.groundTruth.pose(0), ref_v, ref_n);

    Mat4f pose = sequence.groundTruth.pose(0);
    WorkCounts counts;
    Image<TrackData> track_data;
    icpTrack(pose, pyramid, ref_v, ref_n, sequence.intrinsics,
             sequence.groundTruth.pose(0), config, counts, nullptr,
             scalarKernelBackend(), track_data);
    EXPECT_DOUBLE_EQ(counts.itemsFor(KernelId::Track),
                     3.0 * 40.0 * 30.0);
    EXPECT_DOUBLE_EQ(counts.itemsFor(KernelId::Reduce),
                     3.0 * 40.0 * 30.0);
    EXPECT_DOUBLE_EQ(counts.itemsFor(KernelId::Solve), 3.0);
}

} // namespace
