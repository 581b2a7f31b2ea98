/**
 * @file
 * Tests for the synthetic dataset substrate: SDF evaluation, scenes,
 * trajectories, rendering, and the sensor noise model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "dataset/generator.hpp"
#include "dataset/noise.hpp"
#include "dataset/renderer.hpp"
#include "dataset/scene.hpp"
#include "dataset/sdf.hpp"
#include "dataset/trajectory.hpp"

namespace {

using namespace slambench::dataset;
using slambench::math::Mat4f;
using slambench::math::Vec3f;
using slambench::support::Image;
using slambench::support::Rng;

// --- SDF primitives ---

TEST(Sdf, SphereDistance)
{
    Primitive s;
    s.kind = PrimitiveKind::Sphere;
    s.center = {1, 0, 0};
    s.params = {0.5f, 0, 0};
    EXPECT_NEAR(primitiveDistance(s, {3, 0, 0}), 1.5f, 1e-6f);
    EXPECT_NEAR(primitiveDistance(s, {1, 0, 0}), -0.5f, 1e-6f);
    EXPECT_NEAR(primitiveDistance(s, {1.5f, 0, 0}), 0.0f, 1e-6f);
}

TEST(Sdf, BoxDistanceOutsideFaceAndCorner)
{
    Primitive b;
    b.kind = PrimitiveKind::Box;
    b.center = {0, 0, 0};
    b.params = {1, 1, 1};
    EXPECT_NEAR(primitiveDistance(b, {2, 0, 0}), 1.0f, 1e-6f);
    // Corner distance: sqrt(3) from (2,2,2) to (1,1,1).
    EXPECT_NEAR(primitiveDistance(b, {2, 2, 2}),
                std::sqrt(3.0f), 1e-5f);
    // Inside: negative, distance to the nearest face.
    EXPECT_NEAR(primitiveDistance(b, {0.5f, 0, 0}), -0.5f, 1e-6f);
}

TEST(Sdf, InvertedBoxIsInsideOut)
{
    Primitive b;
    b.kind = PrimitiveKind::InvertedBox;
    b.center = {0, 1, 0};
    b.params = {2, 1, 2};
    // Center of the room: positive distance (free space) = 1 (to
    // ceiling/floor).
    EXPECT_NEAR(primitiveDistance(b, {0, 1, 0}), 1.0f, 1e-6f);
    // Beyond the wall: negative (solid).
    EXPECT_LT(primitiveDistance(b, {3, 1, 0}), 0.0f);
}

TEST(Sdf, BoxYawRotation)
{
    Primitive b;
    b.kind = PrimitiveKind::Box;
    b.center = {0, 0, 0};
    b.params = {1.0f, 1.0f, 0.1f};
    b.yaw = static_cast<float>(M_PI / 2); // slab now spans x ~ 0.1
    EXPECT_NEAR(primitiveDistance(b, {2.0f, 0, 0}), 1.9f, 1e-5f);
    EXPECT_NEAR(primitiveDistance(b, {0, 0, 2.0f}), 1.0f, 1e-5f);
}

TEST(Sdf, CylinderDistance)
{
    Primitive c;
    c.kind = PrimitiveKind::Cylinder;
    c.center = {0, 0, 0};
    c.params = {0.5f, 1.0f, 0.0f}; // radius, half height
    EXPECT_NEAR(primitiveDistance(c, {2, 0, 0}), 1.5f, 1e-6f);
    EXPECT_NEAR(primitiveDistance(c, {0, 2, 0}), 1.0f, 1e-6f);
    EXPECT_LT(primitiveDistance(c, {0, 0, 0}), 0.0f);
}

TEST(Sdf, SceneEvaluateTracksNearest)
{
    Scene scene;
    Primitive a;
    a.kind = PrimitiveKind::Sphere;
    a.center = {0, 0, 0};
    a.params = {1, 0, 0};
    Primitive b = a;
    b.center = {10, 0, 0};
    scene.add(a);
    scene.add(b);
    const SdfSample near_a = scene.evaluate({2, 0, 0});
    EXPECT_EQ(near_a.primitive, 0);
    const SdfSample near_b = scene.evaluate({9, 0, 0});
    EXPECT_EQ(near_b.primitive, 1);
}

TEST(Sdf, SceneNormalPointsOutward)
{
    Scene scene;
    Primitive s;
    s.kind = PrimitiveKind::Sphere;
    s.center = {0, 0, 0};
    s.params = {1, 0, 0};
    scene.add(s);
    const Vec3f n = scene.normal({1.0f, 0, 0});
    EXPECT_NEAR(n.x, 1.0f, 1e-2f);
    EXPECT_NEAR(n.norm(), 1.0f, 1e-4f);
}

// --- Scenes ---

TEST(Scene, LivingRoomHasFurnitureInsideVolume)
{
    const Scene scene = livingRoomScene();
    EXPECT_GT(scene.size(), 10u);
    // The scene center must be free space (camera flies there).
    EXPECT_GT(scene.distance({0.0f, 1.4f, 0.9f}), 0.05f);
    // The volume of kSceneVolumeSize must contain all furniture.
    for (const Primitive &p : scene.primitives()) {
        if (p.kind == PrimitiveKind::InvertedBox)
            continue;
        EXPECT_LT(std::abs(p.center.x), kSceneVolumeSize / 2)
            << p.name;
        EXPECT_LT(std::abs(p.center.z), kSceneVolumeSize / 2)
            << p.name;
    }
}

TEST(Scene, OfficeDiffersFromLivingRoom)
{
    const Scene lr = livingRoomScene();
    const Scene office = officeScene();
    EXPECT_NE(lr.size(), office.size());
}

// --- Catmull-Rom / trajectory ---

TEST(Trajectory, CatmullRomInterpolatesKeys)
{
    const std::vector<Vec3f> keys{{0, 0, 0}, {1, 0, 0}, {2, 1, 0},
                                  {3, 1, 0}};
    // At t=0 and t=1 the spline passes through the end keys.
    EXPECT_NEAR((catmullRom(keys, 0.0f, false) - keys.front()).norm(),
                0.0f, 1e-5f);
    EXPECT_NEAR((catmullRom(keys, 1.0f, false) - keys.back()).norm(),
                0.0f, 1e-5f);
    // Interior knots are hit at their parameter.
    EXPECT_NEAR(
        (catmullRom(keys, 1.0f / 3.0f, false) - keys[1]).norm(), 0.0f,
        1e-4f);
}

TEST(Trajectory, FromSplineFramesHaveSmallSteps)
{
    const TrajectorySpec spec = presetSpec(TrajectoryPreset::OrbitA);
    const Trajectory traj = Trajectory::fromSpline(spec, 60, 30.0);
    ASSERT_EQ(traj.size(), 60u);
    for (size_t i = 1; i < traj.size(); ++i) {
        const float step = (traj.pose(i).translationPart() -
                            traj.pose(i - 1).translationPart())
                               .norm();
        EXPECT_LT(step, 0.05f) << "frame " << i;
    }
}

TEST(Trajectory, PosesAreRigid)
{
    const Trajectory traj = Trajectory::fromSpline(
        presetSpec(TrajectoryPreset::SweepB), 20, 30.0);
    for (size_t i = 0; i < traj.size(); ++i) {
        EXPECT_NEAR(traj.pose(i).rotation().determinant(), 1.0f,
                    1e-4f);
    }
}

TEST(Trajectory, TimestampsFollowFps)
{
    const Trajectory traj = Trajectory::fromSpline(
        presetSpec(TrajectoryPreset::SweepB), 10, 25.0);
    EXPECT_DOUBLE_EQ(traj.timestamp(0), 0.0);
    EXPECT_NEAR(traj.timestamp(5), 0.2, 1e-9);
}

TEST(Trajectory, TumSaveLoadRoundTrip)
{
    const Trajectory traj = Trajectory::fromSpline(
        presetSpec(TrajectoryPreset::CloseupC), 15, 30.0);
    const std::string path = "/tmp/sb_test_traj.txt";
    ASSERT_TRUE(traj.saveTum(path));
    Trajectory loaded;
    ASSERT_TRUE(Trajectory::loadTum(path, loaded));
    ASSERT_EQ(loaded.size(), traj.size());
    for (size_t i = 0; i < traj.size(); ++i) {
        EXPECT_NEAR((loaded.pose(i).translationPart() -
                     traj.pose(i).translationPart())
                        .norm(),
                    0.0f, 1e-5f);
        // Rotations should match too (compare a rotated basis vector).
        const Vec3f a = loaded.pose(i).rotation() * Vec3f{0, 0, 1};
        const Vec3f b = traj.pose(i).rotation() * Vec3f{0, 0, 1};
        EXPECT_NEAR((a - b).norm(), 0.0f, 1e-4f);
    }
    std::filesystem::remove(path);
}

TEST(Trajectory, ParsePresetNames)
{
    TrajectoryPreset p;
    EXPECT_TRUE(parsePreset("orbit-a", p));
    EXPECT_EQ(p, TrajectoryPreset::OrbitA);
    EXPECT_TRUE(parsePreset("LR-B", p));
    EXPECT_EQ(p, TrajectoryPreset::SweepB);
    EXPECT_TRUE(parsePreset(" c ", p));
    EXPECT_EQ(p, TrajectoryPreset::CloseupC);
    EXPECT_FALSE(parsePreset("nope", p));
}

// --- Renderer ---

class RendererFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scene_ = livingRoomScene();
        intrinsics_ = slambench::math::CameraIntrinsics::fromFov(
            80, 60, 1.02f);
        const Trajectory traj = Trajectory::fromSpline(
            presetSpec(TrajectoryPreset::OrbitA), 2, 30.0);
        pose_ = traj.pose(0);
    }

    Scene scene_;
    slambench::math::CameraIntrinsics intrinsics_;
    Mat4f pose_;
};

TEST_F(RendererFixture, EveryRayHitsInsideARoom)
{
    const RenderResult r = renderFrame(scene_, intrinsics_, pose_);
    size_t misses = 0;
    for (size_t i = 0; i < r.depth.size(); ++i)
        misses += r.depth[i] <= 0.0f;
    // Inside a closed room every ray terminates on something.
    EXPECT_EQ(misses, 0u);
}

TEST_F(RendererFixture, DepthMatchesSceneDistanceAlongRay)
{
    const RenderResult r = renderFrame(scene_, intrinsics_, pose_);
    // Reconstruct the 3D point and check it lies on a surface.
    for (size_t y = 0; y < r.depth.height(); y += 9) {
        for (size_t x = 0; x < r.depth.width(); x += 9) {
            const float d = r.depth(x, y);
            ASSERT_GT(d, 0.0f);
            const Vec3f p_cam = intrinsics_.backProject(
                static_cast<float>(x) + 0.5f,
                static_cast<float>(y) + 0.5f, d);
            const Vec3f p_world = pose_.transformPoint(p_cam);
            EXPECT_LT(std::abs(scene_.distance(p_world)), 5e-3f);
        }
    }
}

TEST_F(RendererFixture, CosIncidenceInUnitRange)
{
    const RenderResult r = renderFrame(scene_, intrinsics_, pose_);
    for (size_t i = 0; i < r.cosIncidence.size(); ++i) {
        EXPECT_GE(r.cosIncidence[i], 0.0f);
        EXPECT_LE(r.cosIncidence[i], 1.0f + 1e-4f);
    }
}

TEST_F(RendererFixture, RgbDisabledSkipsShading)
{
    RenderOptions options;
    options.shadeRgb = false;
    const RenderResult r =
        renderFrame(scene_, intrinsics_, pose_, options);
    EXPECT_TRUE(r.rgb.empty());
    EXPECT_FALSE(r.depth.empty());
}

TEST_F(RendererFixture, PrimitiveIdsAreValid)
{
    const RenderResult r = renderFrame(scene_, intrinsics_, pose_);
    for (size_t i = 0; i < r.primitive.size(); ++i) {
        EXPECT_GE(r.primitive[i], 0);
        EXPECT_LT(r.primitive[i], static_cast<int>(scene_.size()));
    }
}

// --- Noise model ---

TEST(Noise, NoiseFreeConversionQuantizesToMm)
{
    Image<float> depth(4, 1);
    depth[0] = 1.2345f;
    depth[1] = 0.0f;   // invalid stays invalid
    depth[2] = 9.0f;   // beyond max range -> invalid
    depth[3] = 2.0f;
    const auto mm = depthToMillimeters(depth, 4.5f);
    EXPECT_EQ(mm[0], 1235);
    EXPECT_EQ(mm[1], 0);
    EXPECT_EQ(mm[2], 0);
    EXPECT_EQ(mm[3], 2000);
}

TEST(Noise, AxialNoiseGrowsWithDepth)
{
    DepthNoiseOptions options;
    options.dropouts = false;
    options.quantize = false;
    Rng rng(5);

    const size_t n = 20000;
    Image<float> near_img(n, 1, 1.0f), far_img(n, 1, 4.0f);
    Image<float> cos_img(n, 1, 1.0f);

    auto spread = [&](const Image<float> &img, float z) {
        Rng local(9);
        const auto noisy =
            applySensorModel(img, cos_img, options, local);
        double sse = 0.0;
        size_t count = 0;
        for (size_t i = 0; i < n; ++i) {
            if (noisy[i] == 0)
                continue;
            const double err = noisy[i] / 1000.0 - z;
            sse += err * err;
            ++count;
        }
        return std::sqrt(sse / static_cast<double>(count));
    };

    const double sigma_near = spread(near_img, 1.0f);
    const double sigma_far = spread(far_img, 4.0f);
    EXPECT_GT(sigma_far, sigma_near * 3.0);
}

TEST(Noise, GrazingAnglesDropOut)
{
    DepthNoiseOptions options;
    options.axialNoise = false;
    Rng rng(6);
    const size_t n = 10000;
    Image<float> depth(n, 1, 2.0f);
    Image<float> grazing(n, 1, 0.02f); // nearly parallel to surface
    const auto noisy = applySensorModel(depth, grazing, options, rng);
    size_t dropped = 0;
    for (size_t i = 0; i < n; ++i)
        dropped += noisy[i] == 0;
    // dropoutMaxProb defaults to 0.95 at cos=0; at 0.02 it is ~0.87.
    EXPECT_GT(dropped, n / 2);
}

TEST(Noise, FrontalSurfacesKept)
{
    DepthNoiseOptions options;
    options.axialNoise = false;
    Rng rng(7);
    const size_t n = 1000;
    Image<float> depth(n, 1, 2.0f);
    Image<float> frontal(n, 1, 1.0f);
    const auto noisy = applySensorModel(depth, frontal, options, rng);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(noisy[i], 2000);
}

TEST(Noise, RangeClipping)
{
    DepthNoiseOptions options;
    options.axialNoise = false;
    options.dropouts = false;
    Rng rng(8);
    Image<float> depth(3, 1);
    depth[0] = 0.2f; // below min range
    depth[1] = 5.0f; // above max range
    depth[2] = 1.0f;
    Image<float> cos_img(3, 1, 1.0f);
    const auto noisy = applySensorModel(depth, cos_img, options, rng);
    EXPECT_EQ(noisy[0], 0);
    EXPECT_EQ(noisy[1], 0);
    EXPECT_EQ(noisy[2], 1000);
}

// --- Generator ---

TEST(Generator, SequenceShapeAndDeterminism)
{
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 3;
    spec.seed = 99;
    const Sequence a = generateSequence(spec);
    const Sequence b = generateSequence(spec);
    ASSERT_EQ(a.frames.size(), 3u);
    ASSERT_EQ(a.groundTruth.size(), 3u);
    EXPECT_EQ(a.intrinsics.width, 40u);
    for (size_t f = 0; f < a.frames.size(); ++f) {
        ASSERT_EQ(a.frames[f].depthMm.size(),
                  b.frames[f].depthMm.size());
        for (size_t i = 0; i < a.frames[f].depthMm.size(); ++i)
            EXPECT_EQ(a.frames[f].depthMm[i], b.frames[f].depthMm[i]);
    }
}

TEST(Generator, DifferentSeedsDifferentNoise)
{
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 1;
    spec.seed = 1;
    const Sequence a = generateSequence(spec);
    spec.seed = 2;
    const Sequence b = generateSequence(spec);
    size_t diff = 0;
    for (size_t i = 0; i < a.frames[0].depthMm.size(); ++i)
        diff += a.frames[0].depthMm[i] != b.frames[0].depthMm[i];
    EXPECT_GT(diff, a.frames[0].depthMm.size() / 10);
}

TEST(Generator, NoiseFreeModeIsClean)
{
    SequenceSpec spec;
    spec.width = 40;
    spec.height = 30;
    spec.numFrames = 1;
    spec.sensorNoise = false;
    const Sequence a = generateSequence(spec);
    const Sequence b = generateSequence(spec);
    for (size_t i = 0; i < a.frames[0].depthMm.size(); ++i)
        EXPECT_EQ(a.frames[0].depthMm[i], b.frames[0].depthMm[i]);
}

TEST(Generator, OfficeSceneRenders)
{
    SequenceSpec spec;
    spec.scene = SceneId::Office;
    spec.trajectory = TrajectoryPreset::SweepB;
    spec.width = 32;
    spec.height = 24;
    spec.numFrames = 2;
    const Sequence seq = generateSequence(spec);
    size_t valid = 0;
    for (size_t i = 0; i < seq.frames[0].depthMm.size(); ++i)
        valid += seq.frames[0].depthMm[i] > 0;
    EXPECT_GT(valid, seq.frames[0].depthMm.size() / 2);
}

TEST(Generator, RgbRenderedWhenRequested)
{
    SequenceSpec spec;
    spec.width = 32;
    spec.height = 24;
    spec.numFrames = 1;
    spec.renderRgb = true;
    const Sequence seq = generateSequence(spec);
    EXPECT_EQ(seq.frames[0].rgb.size(), 32u * 24u);
    spec.renderRgb = false;
    const Sequence no_rgb = generateSequence(spec);
    EXPECT_TRUE(no_rgb.frames[0].rgb.empty());
}

} // namespace
