/**
 * @file
 * Tests for the synthetic dataset substrate: SDF evaluation, scenes,
 * trajectories, rendering, and the sensor noise model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "dataset/generator.hpp"
#include "dataset/noise.hpp"
#include "dataset/renderer.hpp"
#include "dataset/scene.hpp"
#include "dataset/sdf.hpp"
#include "dataset/tracer.hpp"
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

TEST(Scene, YawedBoxDistanceMatchesPrimitiveDistance)
{
    // Scene hoists each primitive's yaw rotation out of the per-sample
    // loop; the result must equal the free function bit for bit.
    Primitive b;
    b.kind = PrimitiveKind::Box;
    b.center = {0.3f, 0.5f, -0.2f};
    b.params = {0.6f, 0.4f, 0.15f};
    b.rounding = 0.02f;
    b.yaw = 0.7f;
    Scene scene;
    scene.add(b);
    const Vec3f points[] = {{2.0f, 0.1f, 0.3f},
                            {-1.1f, 0.9f, 0.4f},
                            {0.35f, 0.5f, -0.25f},
                            {0.0f, -2.0f, 3.0f}};
    for (const Vec3f &p : points) {
        EXPECT_EQ(scene.distance(p), primitiveDistance(b, p));
        EXPECT_EQ(scene.evaluate(p).distance, primitiveDistance(b, p));
    }
}

/** The unculled min-union: primitiveDistance in index order. */
SdfSample
referenceEvaluate(const Scene &scene, const Vec3f &p)
{
    SdfSample best;
    best.distance = scene.farClip();
    for (size_t i = 0; i < scene.size(); ++i) {
        const float d = primitiveDistance(scene.primitives()[i], p);
        if (d < best.distance) {
            best.distance = d;
            best.primitive = static_cast<int>(i);
        }
    }
    return best;
}

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Sdf, CulledSceneMatchesUnculledReference)
{
    // Scene::evaluate and Scene::distance skip primitives by their
    // bounding spheres; the result must equal the full min-union bit
    // for bit, nearest index and first-index tie-break included.
    Rng rng(20261019);
    const auto uniform = [&rng](float lo, float hi) {
        return lo + (hi - lo) * static_cast<float>(rng.uniform());
    };
    const auto unit = [&]() {
        for (;;) {
            const Vec3f v{uniform(-1, 1), uniform(-1, 1), uniform(-1, 1)};
            const float n2 = v.squaredNorm();
            if (n2 > 1e-4f && n2 <= 1.0f)
                return v / std::sqrt(n2);
        }
    };
    for (const Scene &scene : {livingRoomScene(), officeScene()}) {
        std::vector<Vec3f> points;
        // In and around the room (the shell is 4.56 x 2.44 x 4.56 m).
        for (int i = 0; i < 3000; ++i)
            points.push_back(
                {uniform(-3, 3), uniform(-0.5f, 3), uniform(-3, 3)});
        for (size_t i = 0; i < scene.size(); ++i) {
            const Primitive &prim = scene.primitives()[i];
            const float reach = scene.caches()[i].reach;
            if (reach < 0.0f)
                continue;
            // Inside and near the solid: negative running minima.
            for (int k = 0; k < 100; ++k)
                points.push_back(prim.center +
                                 unit() * (0.5f * reach *
                                           uniform(0, 1)));
            // Either side of the bounding sphere, where the cull
            // decision flips.
            for (const float scale :
                 {0.999f, 0.99999f, 1.0f, 1.00001f, 1.0001f, 1.001f})
                for (int k = 0; k < 20; ++k)
                    points.push_back(prim.center + unit() * (reach * scale));
        }

        size_t inside_furniture = 0;
        for (const Vec3f &p : points) {
            const SdfSample want = referenceEvaluate(scene, p);
            const SdfSample got = scene.evaluate(p);
            ASSERT_TRUE(sameBits(got.distance, want.distance))
                << got.distance << " vs " << want.distance << " at ("
                << p.x << ", " << p.y << ", " << p.z << ")";
            ASSERT_EQ(got.primitive, want.primitive);
            ASSERT_TRUE(sameBits(scene.distance(p), want.distance));
            inside_furniture += want.primitive > 0 && want.distance < 0;
            // The bound the cull rests on: no solid reaches past its
            // bounding sphere.
            for (size_t i = 0; i < scene.size(); ++i) {
                const Primitive &prim = scene.primitives()[i];
                const float reach = scene.caches()[i].reach;
                if (reach < 0.0f)
                    continue;
                const Vec3f d = p - prim.center;
                const double from_center = std::sqrt(
                    double(d.x) * d.x + double(d.y) * d.y +
                    double(d.z) * d.z);
                ASSERT_GE(primitiveDistance(prim, p), from_center - reach)
                    << prim.name;
            }
        }
        EXPECT_GT(inside_furniture, 300u);
    }
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

template <typename T>
bool
sameImage(const Image<T> &a, const Image<T> &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void
expectSameRender(const RenderResult &a, const RenderResult &b)
{
    EXPECT_TRUE(sameImage(a.depth, b.depth));
    EXPECT_TRUE(sameImage(a.cosIncidence, b.cosIncidence));
    EXPECT_TRUE(sameImage(a.primitive, b.primitive));
    EXPECT_TRUE(sameImage(a.rgb, b.rgb));
}

TEST(Renderer, VectorTracerMatchesScalarByteForByte)
{
    namespace detail = slambench::dataset::detail;
    if (!detail::avx2TracerAvailable())
        GTEST_SKIP() << "the AVX2 tracer needs an AVX2 build and CPU";
    const RenderOptions options; // RGB on
    const auto render_rows = [&](const Scene &scene,
                                 const slambench::math::CameraIntrinsics &k,
                                 const Mat4f &pose, detail::TraceRays trace) {
        RenderResult out = detail::makeRenderResult(k, options);
        detail::renderRows(scene, k, pose, options, trace, 0, k.height, out);
        return out;
    };
    for (const SceneId scene_id : {SceneId::LivingRoom, SceneId::Office}) {
        const Scene scene = makeScene(scene_id);
        for (const TrajectoryPreset preset :
             {TrajectoryPreset::OrbitA, TrajectoryPreset::SweepB,
              TrajectoryPreset::CloseupC}) {
            const Trajectory traj =
                Trajectory::fromSpline(presetSpec(preset), 3, 30.0);
            // 157 is not a multiple of the 8 lanes: a partial packet
            // ends every row.
            for (const auto &[w, h] : {std::pair<size_t, size_t>{320, 240},
                                       std::pair<size_t, size_t>{157, 117}}) {
                const auto k = slambench::math::CameraIntrinsics::fromFov(
                    w, h, 1.02f);
                for (size_t f = 0; f < traj.size(); f += 2) {
                    SCOPED_TRACE(::testing::Message()
                                 << "scene " << static_cast<int>(scene_id)
                                 << " preset " << static_cast<int>(preset)
                                 << " " << w << "x" << h << " frame " << f);
                    const Mat4f pose = traj.pose(f);
                    const RenderResult scalar = render_rows(
                        scene, k, pose, detail::traceRaysScalar);
                    expectSameRender(scalar,
                                     render_rows(scene, k, pose,
                                                 detail::traceRaysAvx2));
                    // renderFrame dispatches to the AVX2 tracer and
                    // splits rows over the global pool.
                    expectSameRender(scalar,
                                     renderFrame(scene, k, pose, options));
                }
            }
        }
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

// Golden hashes pin generateSequence's output bit for bit: rendering is
// row-parallel, and the sensor noise draws from one stream in frame
// order, so neither the thread count nor the scheduling may show.

/** FNV-1a over the bytes of every frame's depth (and color). */
struct SequenceHash
{
    uint64_t depth = 14695981039346656037ull;
    uint64_t rgb = 14695981039346656037ull;
};

void
fnv1a(uint64_t &h, uint8_t byte)
{
    h = (h ^ byte) * 1099511628211ull;
}

SequenceHash
hashSequence(const Sequence &seq)
{
    SequenceHash h;
    for (const Frame &f : seq.frames) {
        for (size_t i = 0; i < f.depthMm.size(); ++i) {
            fnv1a(h.depth, static_cast<uint8_t>(f.depthMm[i] & 0xff));
            fnv1a(h.depth, static_cast<uint8_t>(f.depthMm[i] >> 8));
        }
        for (size_t i = 0; i < f.rgb.size(); ++i) {
            fnv1a(h.rgb, f.rgb[i].r);
            fnv1a(h.rgb, f.rgb[i].g);
            fnv1a(h.rgb, f.rgb[i].b);
        }
    }
    return h;
}

TEST(Generator, GoldenHashNoisyLivingRoom)
{
    SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 4;
    const SequenceHash h = hashSequence(generateSequence(spec));
    EXPECT_EQ(h.depth, 0xcf68eeae79de4ec6ull);
    EXPECT_EQ(h.rgb, 0x6ac13e36cff19e76ull);
}

TEST(Generator, GoldenHashOfficeRgb)
{
    SequenceSpec spec;
    spec.scene = SceneId::Office;
    spec.trajectory = TrajectoryPreset::SweepB;
    spec.width = 64;
    spec.height = 48;
    spec.numFrames = 3;
    spec.renderRgb = true;
    const SequenceHash h = hashSequence(generateSequence(spec));
    EXPECT_EQ(h.depth, 0x33972830900bc9ceull);
    EXPECT_EQ(h.rgb, 0x32ff0407bf764a78ull);
}

TEST(Generator, GoldenHashNoiseFree)
{
    SequenceSpec spec;
    spec.trajectory = TrajectoryPreset::CloseupC;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 3;
    spec.sensorNoise = false;
    spec.renderRgb = false;
    const SequenceHash h = hashSequence(generateSequence(spec));
    EXPECT_EQ(h.depth, 0x500fb8ff185b2056ull);
}

} // namespace
