/**
 * @file
 * Tests for the TSDF volume: fusion, interpolation, gradients, and
 * raycasting against analytically known surfaces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "kfusion/backend.hpp"
#include "kfusion/ray_march.hpp"
#include "kfusion/raycast.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "kfusion/volume.hpp"
#include "math/se3.hpp"

namespace {

using namespace slambench::kfusion;
using slambench::math::CameraIntrinsics;
using slambench::math::Mat4f;
using slambench::math::Vec3f;
using slambench::support::Image;

/**
 * Fuse a synthetic fronto-parallel wall at depth @p wall_z as seen by
 * a camera at the origin looking along +Z.
 */
void
fuseWall(TsdfVolume &volume, const CameraIntrinsics &k, float wall_z,
         float mu, int times, WorkCounts &counts)
{
    Image<float> depth(k.width, k.height, wall_z);
    const Mat4f pose; // identity: camera at origin, +Z forward
    for (int i = 0; i < times; ++i)
        volume.integrate(depth, k, pose, mu, 100.0f, counts, nullptr,
                         scalarKernelBackend());
}

class WallFixture : public ::testing::Test
{
  protected:
    WallFixture()
        : volume_(64, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f}),
          k_(CameraIntrinsics::fromFov(64, 64, 1.0f))
    {
        fuseWall(volume_, k_, 1.0f, 0.1f, 3, counts_);
    }

    TsdfVolume volume_;
    CameraIntrinsics k_;
    WorkCounts counts_;
};

TEST_F(WallFixture, TsdfSignStraddlesSurface)
{
    bool valid = false;
    // 5 cm in front of the wall: positive TSDF.
    const float front = volume_.interp({0.0f, 0.0f, 0.95f}, valid);
    ASSERT_TRUE(valid);
    EXPECT_GT(front, 0.0f);
    // 5 cm behind the wall: negative TSDF.
    const float behind = volume_.interp({0.0f, 0.0f, 1.05f}, valid);
    ASSERT_TRUE(valid);
    EXPECT_LT(behind, 0.0f);
}

TEST_F(WallFixture, TsdfLinearInsideBand)
{
    // At distance d in front of the wall, TSDF ~ d / mu.
    bool valid = false;
    const float v = volume_.interp({0.0f, 0.0f, 0.94f}, valid);
    ASSERT_TRUE(valid);
    EXPECT_NEAR(v, 0.06f / 0.1f, 0.15f);
}

TEST_F(WallFixture, GradientPointsTowardCamera)
{
    const Vec3f g = volume_.grad({0.0f, 0.0f, 0.995f});
    ASSERT_GT(g.norm(), 0.0f);
    const Vec3f n = g.normalized();
    // Wall normal faces -Z (toward the camera at the origin).
    EXPECT_LT(n.z, -0.9f);
}

TEST_F(WallFixture, UnobservedVoxelsInvalid)
{
    bool valid = true;
    // Behind the wall beyond mu: never updated.
    volume_.interp({0.0f, 0.0f, 1.5f}, valid);
    EXPECT_FALSE(valid);
}

TEST_F(WallFixture, CastRayHitsWallAtRightDepth)
{
    RaycastParams params;
    params.nearPlane = 0.1f;
    params.farPlane = 2.0f;
    params.step = volume_.voxelSize();
    params.largeStep = 0.075f;

    RayHit ray;
    marchRay(volume_, Vec3f{0, 0, 0}, Vec3f{0, 0, 1}, params, ray);
    ASSERT_TRUE(ray.found);
    EXPECT_NEAR(ray.hit.z, 1.0f, 0.01f);
    EXPECT_GT(ray.steps, 0);
}

TEST_F(WallFixture, CastRayMissesWhenLookingAway)
{
    RaycastParams params;
    params.nearPlane = 0.1f;
    params.farPlane = 2.0f;
    params.step = volume_.voxelSize();
    params.largeStep = 0.075f;

    RayHit ray;
    marchRay(volume_, Vec3f{0, 0, 0}, Vec3f{0, 0, -1}, params, ray);
    EXPECT_FALSE(ray.found);
}

TEST_F(WallFixture, RaycastKernelProducesConsistentMaps)
{
    RaycastParams params;
    params.nearPlane = 0.1f;
    params.farPlane = 2.0f;
    params.step = volume_.voxelSize();
    params.largeStep = 0.075f;

    Image<Vec3f> vertex, normal;
    WorkCounts counts;
    raycastKernel(vertex, normal, volume_, k_, Mat4f{}, params,
                  counts, nullptr, scalarKernelBackend());
    ASSERT_EQ(vertex.width(), k_.width);

    size_t hits = 0;
    for (size_t y = 8; y < k_.height - 8; ++y) {
        for (size_t x = 8; x < k_.width - 8; ++x) {
            const Vec3f v = vertex(x, y);
            if (v.squaredNorm() == 0.0f)
                continue;
            ++hits;
            EXPECT_NEAR(v.z, 1.0f, 0.02f);
            const Vec3f n = normal(x, y);
            EXPECT_NEAR(n.norm(), 1.0f, 1e-4f);
            EXPECT_LT(n.z, -0.8f);
        }
    }
    // The central region must be densely hit.
    EXPECT_GT(hits, (k_.width - 16) * (k_.height - 16) * 8 / 10);
    EXPECT_GT(counts.itemsFor(KernelId::Raycast), 0.0);
    EXPECT_GT(counts.hostSecondsFor(KernelId::Raycast), 0.0);
}

TEST_F(WallFixture, RenderVolumeShadesHits)
{
    RaycastParams params;
    params.nearPlane = 0.1f;
    params.farPlane = 2.0f;
    params.step = volume_.voxelSize();
    params.largeStep = 0.075f;

    Image<slambench::support::Rgb8> out;
    WorkCounts counts;
    renderVolumeKernel(out, volume_, k_, Mat4f{}, params, counts,
                       nullptr, scalarKernelBackend());
    // Center pixel hits the wall: must not be the background color.
    const auto c = out(32, 32);
    EXPECT_FALSE(c.r == 20 && c.g == 20 && c.b == 28);
}

// --- Volume basics ---

TEST(Volume, ResetClearsWeights)
{
    TsdfVolume volume(16, 1.0f, Vec3f{0, 0, 0});
    volume.at(3, 3, 3) = Voxel{-0.5f, 10.0f};
    volume.reset();
    EXPECT_FLOAT_EQ(volume.at(3, 3, 3).weight, 0.0f);
    EXPECT_FLOAT_EQ(volume.at(3, 3, 3).tsdf, 1.0f);
}

TEST(Volume, ContainsRespectsBounds)
{
    TsdfVolume volume(16, 1.0f, Vec3f{0, 0, 0});
    EXPECT_TRUE(volume.contains({0.5f, 0.5f, 0.5f}));
    EXPECT_FALSE(volume.contains({1.5f, 0.5f, 0.5f}));
    EXPECT_FALSE(volume.contains({-0.1f, 0.5f, 0.5f}));
}

TEST(Volume, VoxelCenterGeometry)
{
    TsdfVolume volume(10, 1.0f, Vec3f{0, 0, 0});
    const Vec3f c = volume.voxelCenter(0, 0, 0);
    EXPECT_FLOAT_EQ(c.x, 0.05f);
    const Vec3f far_corner = volume.voxelCenter(9, 9, 9);
    EXPECT_FLOAT_EQ(far_corner.x, 0.95f);
}

TEST(Volume, WeightSaturatesAtMax)
{
    TsdfVolume volume(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    const auto k = CameraIntrinsics::fromFov(32, 32, 1.0f);
    WorkCounts counts;
    Image<float> depth(32, 32, 1.0f);
    for (int i = 0; i < 8; ++i)
        volume.integrate(depth, k, Mat4f{}, 0.1f, 5.0f, counts,
                         nullptr, scalarKernelBackend());
    // Find a voxel near the wall and check its weight cap.
    float max_weight = 0.0f;
    for (int z = 0; z < 32; ++z)
        max_weight =
            std::max(max_weight, volume.at(16, 16, z).weight);
    EXPECT_FLOAT_EQ(max_weight, 5.0f);
}

TEST(Volume, IntegrationCountsWork)
{
    TsdfVolume volume(16, 1.0f, Vec3f{0, 0, 0});
    const auto k = CameraIntrinsics::fromFov(16, 16, 1.0f);
    WorkCounts counts;
    Image<float> depth(16, 16, 0.5f);
    volume.integrate(depth, k, Mat4f{}, 0.1f, 100.0f, counts,
                     nullptr, scalarKernelBackend());
    // Items are voxels actually visited; culled voxels show up as
    // skipped work, and together they cover the whole volume.
    EXPECT_GT(counts.itemsFor(KernelId::Integrate), 0.0);
    EXPECT_LE(counts.itemsFor(KernelId::Integrate),
              16.0 * 16.0 * 16.0);
    EXPECT_DOUBLE_EQ(counts.itemsFor(KernelId::Integrate) +
                         counts.skippedFor(KernelId::Integrate),
                     16.0 * 16.0 * 16.0);
    EXPECT_GT(counts.bytesFor(KernelId::Integrate), 0.0);
}

TEST(Volume, DenseIntegrationVisitsEveryVoxel)
{
    TsdfVolume volume(16, 1.0f, Vec3f{0, 0, 0});
    const auto k = CameraIntrinsics::fromFov(16, 16, 1.0f);
    WorkCounts counts;
    Image<float> depth(16, 16, 0.5f);
    volume.integrateDense(depth, k, Mat4f{}, 0.1f, 100.0f, counts,
                          nullptr);
    EXPECT_DOUBLE_EQ(counts.itemsFor(KernelId::Integrate),
                     16.0 * 16.0 * 16.0);
    EXPECT_DOUBLE_EQ(counts.skippedFor(KernelId::Integrate), 0.0);
}

TEST(Volume, SequentialAndThreadedIntegrationMatch)
{
    const auto k = CameraIntrinsics::fromFov(24, 24, 1.0f);
    Image<float> depth(24, 24);
    slambench::support::Rng rng(3);
    for (size_t i = 0; i < depth.size(); ++i)
        depth[i] = static_cast<float>(rng.uniform(0.8, 1.4));

    TsdfVolume seq(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    TsdfVolume par(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    WorkCounts counts;
    slambench::support::ThreadPool pool(3);
    seq.integrate(depth, k, Mat4f{}, 0.1f, 100.0f, counts, nullptr,
                  scalarKernelBackend());
    par.integrate(depth, k, Mat4f{}, 0.1f, 100.0f, counts, &pool,
                  scalarKernelBackend());
    for (int z = 0; z < 32; ++z) {
        for (int y = 0; y < 32; ++y) {
            for (int x = 0; x < 32; ++x) {
                ASSERT_FLOAT_EQ(seq.at(x, y, z).tsdf,
                                par.at(x, y, z).tsdf);
                ASSERT_FLOAT_EQ(seq.at(x, y, z).weight,
                                par.at(x, y, z).weight);
            }
        }
    }
}

// Property sweep: a sphere fused from multiple views raycasts back
// at the correct radius.
class SphereFusion : public ::testing::TestWithParam<float>
{};

TEST_P(SphereFusion, RaycastRecoversRadius)
{
    const float radius = GetParam();
    TsdfVolume volume(64, 2.0f, Vec3f{-1.0f, -1.0f, -1.0f});
    const auto k = CameraIntrinsics::fromFov(48, 48, 1.0f);
    WorkCounts counts;

    // Render ideal depth of a sphere at the origin from 4 sides.
    for (int view = 0; view < 4; ++view) {
        const float angle =
            static_cast<float>(view) * static_cast<float>(M_PI / 2);
        const Vec3f eye{0.9f * std::sin(angle), 0.0f,
                        -0.9f * std::cos(angle)};
        const Mat4f pose = slambench::math::lookAt(
            eye, Vec3f{0, 0, 0}, Vec3f{0, 1, 0});
        const Mat4f w2c = pose.rigidInverse();

        Image<float> depth(k.width, k.height, 0.0f);
        for (size_t y = 0; y < k.height; ++y) {
            for (size_t x = 0; x < k.width; ++x) {
                // Ray-sphere intersection in world space.
                const Vec3f dir_cam = k.rayDir(
                    static_cast<float>(x) + 0.5f,
                    static_cast<float>(y) + 0.5f);
                const Vec3f dir = pose.transformDir(dir_cam);
                const float b = 2.0f * eye.dot(dir);
                const float c = eye.squaredNorm() - radius * radius;
                const float disc = b * b - 4.0f * c;
                if (disc < 0.0f)
                    continue;
                const float t = (-b - std::sqrt(disc)) / 2.0f;
                if (t <= 0.0f)
                    continue;
                const Vec3f hit_world = eye + dir * t;
                depth(x, y) = w2c.transformPoint(hit_world).z;
            }
        }
        volume.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                         nullptr, scalarKernelBackend());
    }

    // Raycast from a nearby novel viewpoint (between two training
    // views, looking at the observed equatorial band) and check hit
    // radii. Novel views far outside the observed region would hit
    // observation-boundary artifacts, as in the real system.
    const Vec3f eye{0.6f * std::sin(0.4f), 0.1f,
                    -0.6f * std::cos(0.4f)};
    const Mat4f pose = slambench::math::lookAt(eye, Vec3f{0, 0, 0},
                                               Vec3f{0, 1, 0});
    RaycastParams params;
    params.nearPlane = 0.1f;
    params.farPlane = 2.0f;
    params.step = volume.voxelSize();
    params.largeStep = 0.075f;

    Image<Vec3f> vertex, normal;
    raycastKernel(vertex, normal, volume, k, pose, params, counts,
                  nullptr, scalarKernelBackend());
    // Check the central rows (the well-observed equatorial band):
    // the median hit radius must match, and most hits must be close.
    std::vector<float> radii;
    for (size_t y = k.height / 2 - 6; y < k.height / 2 + 6; ++y) {
        for (size_t x = 0; x < k.width; ++x) {
            const Vec3f v = vertex(x, y);
            if (v.squaredNorm() > 0.0f)
                radii.push_back(v.norm());
        }
    }
    ASSERT_GT(radii.size(), 20u);
    std::sort(radii.begin(), radii.end());
    EXPECT_NEAR(radii[radii.size() / 2], radius, 0.04f);
}

INSTANTIATE_TEST_SUITE_P(Radii, SphereFusion,
                         ::testing::Values(0.25f, 0.35f, 0.5f));

} // namespace
