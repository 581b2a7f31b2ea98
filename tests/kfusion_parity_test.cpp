/**
 * @file
 * Bit-exactness parity suite for the frame-loop fast paths: the
 * frustum-culled integration sweep against the dense reference, the
 * fused single-pass gradient against the six-interp reference, and
 * the volume-clipped raycast, each serial and under a thread pool.
 *
 * These tests assert exact float equality (operator==, not
 * EXPECT_FLOAT_EQ): the optimized paths are designed to execute the
 * same arithmetic as their references, so any drift is a bug, not
 * noise. The *Pooled* tests double as the TSan race gate's kernel
 * workload (scripts/tsan_smoke.sh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "dataset/generator.hpp"
#include "kfusion/backend.hpp"
#include "kfusion/kernels.hpp"
#include "kfusion/pipeline.hpp"
#include "kfusion/ray_march.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/sparse_volume.hpp"
#include "kfusion/tracking.hpp"
#include "kfusion/volume.hpp"
#include "math/se3.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace slambench::kfusion;
using slambench::math::CameraIntrinsics;
using slambench::math::Mat4f;
using slambench::math::Vec3f;
using slambench::support::Image;
using slambench::support::Rng;
using slambench::support::ThreadPool;

/** Random metric depth with a sprinkling of invalid (0) pixels. */
Image<float>
makeDepth(const CameraIntrinsics &k, uint64_t seed)
{
    Image<float> depth(k.width, k.height);
    Rng rng(seed);
    for (size_t i = 0; i < depth.size(); ++i) {
        depth[i] = rng.uniform(0.0, 1.0) < 0.08
                       ? 0.0f
                       : static_cast<float>(rng.uniform(0.5, 2.5));
    }
    return depth;
}

/** Assert two equally sized volumes match voxel-for-voxel, exactly. */
void
expectBitIdentical(const TsdfVolume &a, const TsdfVolume &b)
{
    ASSERT_EQ(a.resolution(), b.resolution());
    for (int x = 0; x < a.resolution(); ++x) {
        for (int y = 0; y < a.resolution(); ++y) {
            for (int z = 0; z < a.resolution(); ++z) {
                ASSERT_EQ(a.at(x, y, z).tsdf, b.at(x, y, z).tsdf)
                    << "tsdf mismatch at (" << x << ", " << y << ", "
                    << z << ")";
                ASSERT_EQ(a.at(x, y, z).weight, b.at(x, y, z).weight)
                    << "weight mismatch at (" << x << ", " << y
                    << ", " << z << ")";
            }
        }
    }
}

/**
 * Integrate the same frame into a culled and a dense volume (serial)
 * and require identical results; returns the culled work counts.
 */
WorkCounts
checkCulledMatchesDense(const Mat4f &pose, uint64_t seed)
{
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Image<float> depth = makeDepth(k, seed);

    TsdfVolume culled(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    WorkCounts culled_counts, dense_counts;
    culled.integrate(depth, k, pose, 0.1f, 100.0f, culled_counts,
                     nullptr, scalarKernelBackend());
    dense.integrateDense(depth, k, pose, 0.1f, 100.0f, dense_counts,
                         nullptr);
    expectBitIdentical(culled, dense);

    // Culling never inspects more than the dense sweep, and the two
    // accounts partition the same res^3 workload.
    EXPECT_DOUBLE_EQ(
        culled_counts.itemsFor(KernelId::Integrate) +
            culled_counts.skippedFor(KernelId::Integrate),
        dense_counts.itemsFor(KernelId::Integrate));
    return culled_counts;
}

TEST(IntegrateParity, CulledMatchesDenseIdentityPose)
{
    const WorkCounts counts = checkCulledMatchesDense(Mat4f{}, 11);
    EXPECT_GT(counts.itemsFor(KernelId::Integrate), 0.0);
}

TEST(IntegrateParity, CulledMatchesDensePartialFrustum)
{
    // Oblique view from outside a corner: a good part of the volume
    // projects off-image, so whole columns get culled mid-range.
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.8f, 0.4f, -0.6f}, Vec3f{-0.2f, 0.0f, 1.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    const WorkCounts counts = checkCulledMatchesDense(pose, 12);
    EXPECT_GT(counts.itemsFor(KernelId::Integrate), 0.0);
    EXPECT_GT(counts.skippedFor(KernelId::Integrate), 0.0);
}

TEST(IntegrateParity, CulledMatchesDenseCameraInsideVolume)
{
    // Camera in the middle of the volume: every column straddles the
    // camera plane, exercising the behind-camera half-space clip.
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.0f, 0.0f, 1.0f}, Vec3f{0.0f, 0.0f, 2.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    const WorkCounts counts = checkCulledMatchesDense(pose, 13);
    EXPECT_GT(counts.itemsFor(KernelId::Integrate), 0.0);
    EXPECT_GT(counts.skippedFor(KernelId::Integrate), 0.0);
}

TEST(IntegrateParity, CulledMatchesDenseVolumeBehindCamera)
{
    // Looking directly away from the volume: everything is culled
    // and the volume must stay untouched, exactly like the dense
    // sweep (which visits every voxel and updates none).
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.0f, 0.0f, -0.5f}, Vec3f{0.0f, 0.0f, -2.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    const WorkCounts counts = checkCulledMatchesDense(pose, 14);
    EXPECT_DOUBLE_EQ(counts.itemsFor(KernelId::Integrate), 0.0);
    EXPECT_DOUBLE_EQ(counts.skippedFor(KernelId::Integrate),
                     32.0 * 32.0 * 32.0);
}

TEST(IntegrateParity, CulledMatchesDensePooled)
{
    // All four combinations of {culled, dense} x {serial, pooled}
    // must agree bit-for-bit across several fused frames.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Mat4f poses[] = {
        Mat4f{},
        slambench::math::lookAt(Vec3f{0.5f, 0.2f, -0.4f},
                                Vec3f{0.0f, 0.0f, 1.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
    };

    TsdfVolume culled_serial(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    TsdfVolume culled_pooled(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    TsdfVolume dense_pooled(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    ThreadPool pool(3);
    WorkCounts counts;
    uint64_t seed = 21;
    for (const Mat4f &pose : poses) {
        const Image<float> depth = makeDepth(k, seed++);
        culled_serial.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                                nullptr, scalarKernelBackend());
        culled_pooled.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                                &pool, scalarKernelBackend());
        dense_pooled.integrateDense(depth, k, pose, 0.1f, 100.0f,
                                    counts, &pool);
    }
    expectBitIdentical(culled_serial, culled_pooled);
    expectBitIdentical(culled_serial, dense_pooled);
}

// --- gradient parity ---

class FusedVolume : public ::testing::Test
{
  protected:
    FusedVolume()
        : volume_(48, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f}),
          k_(CameraIntrinsics::fromFov(48, 48, 1.0f))
    {
        WorkCounts counts;
        Image<float> wall(k_.width, k_.height, 1.0f);
        volume_.integrate(wall, k_, Mat4f{}, 0.1f, 100.0f, counts,
                          nullptr, scalarKernelBackend());
        const Image<float> depth = makeDepth(k_, 31);
        volume_.integrate(depth, k_, Mat4f{}, 0.1f, 100.0f, counts,
                          nullptr, scalarKernelBackend());
    }

    TsdfVolume volume_;
    CameraIntrinsics k_;
};

TEST_F(FusedVolume, FusedGradMatchesReferenceEverywhere)
{
    // Random points over the whole volume (inside, near faces, and
    // in unobserved space where the per-axis early-outs trigger).
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const Vec3f p{
            static_cast<float>(rng.uniform(-1.1, 1.1)),
            static_cast<float>(rng.uniform(-1.1, 1.1)),
            static_cast<float>(rng.uniform(-0.1, 2.1))};
        const Vec3f fused = volume_.grad(p);
        const Vec3f reference = volume_.gradReference(p);
        ASSERT_EQ(fused.x, reference.x) << "at " << p.x << ", "
                                        << p.y << ", " << p.z;
        ASSERT_EQ(fused.y, reference.y);
        ASSERT_EQ(fused.z, reference.z);
    }
}

TEST_F(FusedVolume, FusedGradMatchesReferenceNearSurface)
{
    // Dense sampling in the truncation band around the fused wall,
    // where raycast actually evaluates gradients.
    Rng rng(8);
    for (int i = 0; i < 20000; ++i) {
        const Vec3f p{
            static_cast<float>(rng.uniform(-0.9, 0.9)),
            static_cast<float>(rng.uniform(-0.9, 0.9)),
            static_cast<float>(rng.uniform(0.85, 1.15))};
        const Vec3f fused = volume_.grad(p);
        const Vec3f reference = volume_.gradReference(p);
        ASSERT_EQ(fused.x, reference.x);
        ASSERT_EQ(fused.y, reference.y);
        ASSERT_EQ(fused.z, reference.z);
    }
}

// --- raycast parity ---

RaycastParams
testParams(const TsdfVolume &volume)
{
    RaycastParams params;
    params.nearPlane = 0.1f;
    params.farPlane = 4.0f;
    params.step = volume.voxelSize();
    params.largeStep = 0.075f;
    return params;
}

TEST_F(FusedVolume, RaycastPooledMatchesSerial)
{
    const RaycastParams params = testParams(volume_);
    Image<Vec3f> vertex_s, normal_s, vertex_p, normal_p;
    WorkCounts counts;
    ThreadPool pool(3);
    raycastKernel(vertex_s, normal_s, volume_, k_, Mat4f{}, params,
                  counts, nullptr, scalarKernelBackend());
    raycastKernel(vertex_p, normal_p, volume_, k_, Mat4f{}, params,
                  counts, &pool, scalarKernelBackend());
    ASSERT_EQ(vertex_s.size(), vertex_p.size());
    for (size_t i = 0; i < vertex_s.size(); ++i) {
        ASSERT_EQ(vertex_s[i].x, vertex_p[i].x) << "pixel " << i;
        ASSERT_EQ(vertex_s[i].y, vertex_p[i].y);
        ASSERT_EQ(vertex_s[i].z, vertex_p[i].z);
        ASSERT_EQ(normal_s[i].x, normal_p[i].x);
        ASSERT_EQ(normal_s[i].y, normal_p[i].y);
        ASSERT_EQ(normal_s[i].z, normal_p[i].z);
    }
}

TEST_F(FusedVolume, RenderVolumePooledMatchesSerial)
{
    const RaycastParams params = testParams(volume_);
    Image<slambench::support::Rgb8> serial, pooled;
    WorkCounts counts;
    ThreadPool pool(3);
    renderVolumeKernel(serial, volume_, k_, Mat4f{}, params, counts,
                       nullptr, scalarKernelBackend());
    renderVolumeKernel(pooled, volume_, k_, Mat4f{}, params, counts,
                       &pool, scalarKernelBackend());
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].r, pooled[i].r) << "pixel " << i;
        ASSERT_EQ(serial[i].g, pooled[i].g);
        ASSERT_EQ(serial[i].b, pooled[i].b);
    }
}

TEST_F(FusedVolume, ClippedRayFromFarOriginHitsSameSurface)
{
    // The AABB clip fast-forwards the march to the volume entry, so
    // pushing the origin back along the ray must find the same
    // surface (up to the fine step's refinement tolerance).
    const RaycastParams params = testParams(volume_);
    RayHit near_ray, far_ray;
    marchRay(volume_, Vec3f{0.0f, 0.0f, 0.2f}, Vec3f{0.0f, 0.0f, 1.0f},
             params, near_ray);
    ASSERT_TRUE(near_ray.found);
    marchRay(volume_, Vec3f{0.0f, 0.0f, -2.0f},
             Vec3f{0.0f, 0.0f, 1.0f}, params, far_ray);
    ASSERT_TRUE(far_ray.found);
    EXPECT_NEAR(near_ray.hit.z, far_ray.hit.z, volume_.voxelSize());
    // The far ray marches the clipped interval, not the extra two
    // meters of empty space in front of the volume.
    EXPECT_LT(far_ray.steps, near_ray.steps + 30);
}

TEST_F(FusedVolume, RaysMissingTheVolumeTakeNoSteps)
{
    const RaycastParams params = testParams(volume_);
    RayHit behind, beside;
    marchRay(volume_, Vec3f{0.0f, 0.0f, -0.5f},
             Vec3f{0.0f, 0.0f, -1.0f}, params, behind);
    EXPECT_FALSE(behind.found);
    EXPECT_EQ(behind.steps, 0);
    marchRay(volume_, Vec3f{5.0f, 0.0f, 1.0f}, Vec3f{0.0f, 1.0f, 0.0f},
             params, beside);
    EXPECT_FALSE(beside.found);
    EXPECT_EQ(beside.steps, 0);
}

// --- kernel-backend parity ---
//
// Every backend in the registry must reproduce the scalar reference
// bit-for-bit on all four hot kernels (the parity contract in
// docs/KERNEL_BACKENDS.md): the vectorized paths are engineered to
// replay the scalar operation sequence per lane, so exact equality
// is the specification, not an aspiration.

/** All registered backends except the scalar reference itself. */
std::vector<const KernelBackend *>
nonScalarBackends()
{
    std::vector<const KernelBackend *> backends;
    for (const std::string &name : kernelBackendNames()) {
        const KernelBackend *backend = findKernelBackend(name);
        if (backend != &scalarKernelBackend())
            backends.push_back(backend);
    }
    return backends;
}

TEST(BackendParity, IntegrateMatchesScalarDense)
{
    // integrateDense() always runs the scalar backend, so fusing the
    // same frames through each backend and comparing against the
    // dense sweep checks both the culling and the backend at once.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Mat4f poses[] = {
        Mat4f{},
        slambench::math::lookAt(Vec3f{0.8f, 0.4f, -0.6f},
                                Vec3f{-0.2f, 0.0f, 1.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
        slambench::math::lookAt(Vec3f{0.0f, 0.0f, 1.0f},
                                Vec3f{0.0f, 0.0f, 2.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
    };
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        TsdfVolume tested(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        WorkCounts counts;
        uint64_t seed = 101;
        for (const Mat4f &pose : poses) {
            const Image<float> depth = makeDepth(k, seed++);
            tested.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                             nullptr, *backend);
            dense.integrateDense(depth, k, pose, 0.1f, 100.0f,
                                 counts, nullptr);
        }
        expectBitIdentical(tested, dense);
    }
}

TEST(BackendParity, IntegrateMatchesScalarWithInvalidDepth)
{
    // All-invalid and all-behind depth exercise the skip branches
    // (measured <= 0, sdf < -mu) on every lane.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    Image<float> depth(k.width, k.height, 0.0f);
    for (size_t i = 0; i < depth.size(); i += 3)
        depth[i] = 0.45f; // in front of most of the volume
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        TsdfVolume tested(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        WorkCounts counts;
        tested.integrate(depth, k, Mat4f{}, 0.1f, 100.0f, counts,
                         nullptr, *backend);
        dense.integrateDense(depth, k, Mat4f{}, 0.1f, 100.0f, counts,
                             nullptr);
        expectBitIdentical(tested, dense);
    }
}

TEST_F(FusedVolume, BackendGradMatchesScalarEverywhere)
{
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        Rng rng(7);
        for (int i = 0; i < 20000; ++i) {
            const Vec3f p{
                static_cast<float>(rng.uniform(-1.1, 1.1)),
                static_cast<float>(rng.uniform(-1.1, 1.1)),
                static_cast<float>(rng.uniform(-0.1, 2.1))};
            const Vec3f tested = backend->grad(volume_, p);
            const Vec3f reference = volume_.grad(p);
            ASSERT_EQ(tested.x, reference.x)
                << "at " << p.x << ", " << p.y << ", " << p.z;
            ASSERT_EQ(tested.y, reference.y);
            ASSERT_EQ(tested.z, reference.z);
        }
    }
}

TEST_F(FusedVolume, BackendRaycastMatchesScalar)
{
    const RaycastParams params = testParams(volume_);
    Image<Vec3f> vertex_ref, normal_ref;
    WorkCounts counts;
    raycastKernel(vertex_ref, normal_ref, volume_, k_, Mat4f{},
                  params, counts, nullptr, scalarKernelBackend());
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        Image<Vec3f> vertex, normal;
        raycastKernel(vertex, normal, volume_, k_, Mat4f{}, params,
                      counts, nullptr, *backend);
        ASSERT_EQ(vertex.size(), vertex_ref.size());
        for (size_t i = 0; i < vertex.size(); ++i) {
            ASSERT_EQ(vertex[i].x, vertex_ref[i].x) << "pixel " << i;
            ASSERT_EQ(vertex[i].y, vertex_ref[i].y);
            ASSERT_EQ(vertex[i].z, vertex_ref[i].z);
            ASSERT_EQ(normal[i].x, normal_ref[i].x) << "pixel " << i;
            ASSERT_EQ(normal[i].y, normal_ref[i].y);
            ASSERT_EQ(normal[i].z, normal_ref[i].z);
        }
    }
}

TEST_F(FusedVolume, BackendRaycastMatchesScalarObliqueView)
{
    // Oblique pose: rays enter the volume at an angle, so packet
    // lanes clip to different [t, t_end] intervals and finish their
    // marches at different times.
    const RaycastParams params = testParams(volume_);
    const Mat4f view = slambench::math::lookAt(
        Vec3f{1.2f, 0.8f, -0.4f}, Vec3f{-0.2f, -0.1f, 1.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    Image<Vec3f> vertex_ref, normal_ref;
    WorkCounts counts;
    raycastKernel(vertex_ref, normal_ref, volume_, k_, view, params,
                  counts, nullptr, scalarKernelBackend());
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        Image<Vec3f> vertex, normal;
        raycastKernel(vertex, normal, volume_, k_, view, params,
                      counts, nullptr, *backend);
        ASSERT_EQ(vertex.size(), vertex_ref.size());
        for (size_t i = 0; i < vertex.size(); ++i) {
            ASSERT_EQ(vertex[i].x, vertex_ref[i].x) << "pixel " << i;
            ASSERT_EQ(vertex[i].y, vertex_ref[i].y);
            ASSERT_EQ(vertex[i].z, vertex_ref[i].z);
            ASSERT_EQ(normal[i].x, normal_ref[i].x) << "pixel " << i;
            ASSERT_EQ(normal[i].y, normal_ref[i].y);
            ASSERT_EQ(normal[i].z, normal_ref[i].z);
        }
    }
}

TEST_F(FusedVolume, BackendRenderVolumeMatchesScalar)
{
    const RaycastParams params = testParams(volume_);
    Image<slambench::support::Rgb8> reference;
    WorkCounts counts;
    renderVolumeKernel(reference, volume_, k_, Mat4f{}, params,
                       counts, nullptr, scalarKernelBackend());
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        Image<slambench::support::Rgb8> tested;
        renderVolumeKernel(tested, volume_, k_, Mat4f{}, params,
                           counts, nullptr, *backend);
        ASSERT_EQ(tested.size(), reference.size());
        for (size_t i = 0; i < tested.size(); ++i) {
            ASSERT_EQ(tested[i].r, reference[i].r) << "pixel " << i;
            ASSERT_EQ(tested[i].g, reference[i].g);
            ASSERT_EQ(tested[i].b, reference[i].b);
        }
    }
}

/** Synthetic track data covering every TrackResult branch. */
Image<TrackData>
makeTrackData(size_t w, size_t h, uint64_t seed)
{
    Image<TrackData> track(w, h);
    Rng rng(seed);
    for (size_t i = 0; i < track.size(); ++i) {
        TrackData &d = track[i];
        const double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.55) {
            d.result = TrackResult::Ok;
        } else if (kind < 0.7) {
            d.result = TrackResult::NoInputVertex;
        } else if (kind < 0.85) {
            d.result = TrackResult::TooFar;
        } else {
            d.result = TrackResult::NormalMismatch;
        }
        d.error = static_cast<float>(rng.uniform(-0.05, 0.05));
        for (float &j : d.jacobian)
            j = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return track;
}

TEST(BackendParity, ReduceMatchesScalar)
{
    const Image<TrackData> track = makeTrackData(80, 60, 303);
    const KernelBackend &scalar = scalarKernelBackend();
    // Full image plus awkward sub-ranges (unaligned begin/end, short
    // tails smaller than one vector width).
    const std::pair<size_t, size_t> ranges[] = {
        {0, track.size()}, {1, track.size() - 3}, {17, 29},
        {track.size() - 5, track.size()}, {7, 7},
    };
    for (const KernelBackend *backend : nonScalarBackends()) {
        SCOPED_TRACE(backend->name());
        for (const auto &[begin, end] : ranges) {
            const ReductionResult expect =
                scalar.reduceRange(track, begin, end);
            const ReductionResult got =
                backend->reduceRange(track, begin, end);
            ASSERT_EQ(got.validCount, expect.validCount);
            ASSERT_EQ(got.errorSq, expect.errorSq);
            for (size_t i = 0; i < expect.jtj.size(); ++i)
                ASSERT_EQ(got.jtj[i], expect.jtj[i]) << "jtj " << i;
            for (size_t i = 0; i < expect.jte.size(); ++i)
                ASSERT_EQ(got.jte[i], expect.jte[i]) << "jte " << i;
        }
    }
}

/**
 * Depth images for the bilateral filter parity tests: random depth
 * with scattered zero pixels, plus the same with zero rows, with a
 * zero border and with scattered NaNs (a NaN center or tap is taken
 * and zeroes the output), so vector lanes meet invalid centers,
 * invalid taps and whole invalid windows.
 */
std::vector<Image<float>>
bilateralInputs(size_t w, size_t h)
{
    const auto k = CameraIntrinsics::fromFov(w, h, 1.1f);
    std::vector<Image<float>> images(4, makeDepth(k, 700 + w));
    for (size_t y = 1; y < h; y += 4)
        for (size_t x = 0; x < w; ++x)
            images[1](x, y) = 0.0f;
    for (size_t y = 0; y < h; ++y)
        for (size_t x = 0; x < w; ++x)
            if (x < 3 || y < 3 || x + 3 >= w || y + 3 >= h)
                images[2](x, y) = 0.0f;
    for (size_t i = 5; i < images[3].size(); i += 37)
        images[3][i] = std::nanf("");
    return images;
}

/**
 * Every backend's bilateral filter, on @p pool or sequential, must
 * match the sequential scalar reference byte for byte: radius 0 to 8,
 * widths around and below the 8-lane vector width.
 */
void
expectBilateralMatchesScalar(ThreadPool *pool)
{
    for (const size_t w : {size_t{8}, size_t{9}, size_t{157},
                           size_t{320}}) {
        const std::vector<Image<float>> images = bilateralInputs(w, 13);
        for (size_t i = 0; i < images.size(); ++i) {
            for (int radius = 0; radius <= 8; ++radius) {
                Image<float> expect;
                bilateralFilterKernel(expect, images[i], radius, 4.0f,
                                      0.1f, nullptr, scalarKernelBackend());
                for (const std::string &name : kernelBackendNames()) {
                    SCOPED_TRACE(name + " width " + std::to_string(w) +
                                 " image " + std::to_string(i) +
                                 " radius " + std::to_string(radius));
                    Image<float> got;
                    bilateralFilterKernel(got, images[i], radius, 4.0f,
                                          0.1f, pool,
                                          *findKernelBackend(name));
                    ASSERT_EQ(got.size(), expect.size());
                    ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                                          expect.size() * sizeof(float)),
                              0);
                }
            }
        }
    }
}

TEST(BackendParity, BilateralFilterMatchesScalar)
{
    expectBilateralMatchesScalar(nullptr);
}

TEST(BackendParity, BilateralFilterMatchesScalarPooled)
{
    ThreadPool pool(3);
    expectBilateralMatchesScalar(&pool);
}

/** Maps of one track parity case: live (camera) and reference (world). */
struct TrackInputs
{
    Image<Vec3f> liveVertex, liveNormal, refVertex, refNormal;
    CameraIntrinsics refK;
    Mat4f pose, refPose;
};

/** Camera-frame vertices of a slanted wall seen through @p k. */
Image<Vec3f>
wallVertices(const CameraIntrinsics &k)
{
    Image<Vec3f> vertex(k.width, k.height);
    for (size_t y = 0; y < k.height; ++y)
        for (size_t x = 0; x < k.width; ++x) {
            const float u = static_cast<float>(x) + 0.5f;
            const float v = static_cast<float>(y) + 0.5f;
            const float depth =
                1.5f + 0.4f * u / static_cast<float>(k.width) +
                0.1f * v / static_cast<float>(k.height);
            vertex(x, y) = k.backProject(u, v, depth);
        }
    return vertex;
}

/**
 * A wall tracked from a slightly moved camera, with pixels spoiled so
 * that every TrackResult occurs: zero live vertices and normals, NaN
 * vertices and points behind the camera or far off the image
 * (ProjectedOutside), zero reference normals, pushed-back vertices
 * (TooFar) and flipped normals (NormalMismatch), plus NaN reference
 * normals and vertices, which pass every gate as NaN residuals.
 */
TrackInputs
trackInputs(size_t w, size_t h, size_t ref_w, size_t ref_h,
            uint64_t seed)
{
    TrackInputs in;
    const auto live_k = CameraIntrinsics::fromFov(w, h, 1.1f);
    in.refK = CameraIntrinsics::fromFov(ref_w, ref_h, 1.1f);
    in.refPose = slambench::math::expSe3(
                     slambench::math::Vec3d{0.1, -0.2, 0.3},
                     slambench::math::Vec3d{0.05, 0.1, -0.02})
                     .cast<float>();
    in.pose = slambench::math::expSe3(
                  slambench::math::Vec3d{0.004, 0.003, -0.002},
                  slambench::math::Vec3d{0.002, -0.003, 0.001})
                  .cast<float>() *
              in.refPose;
    in.liveVertex = wallVertices(live_k);
    vertex2normalKernel(in.liveNormal, in.liveVertex, nullptr,
                        scalarKernelBackend());
    const Image<Vec3f> ref_cam = wallVertices(in.refK);
    Image<Vec3f> ref_cam_normal;
    vertex2normalKernel(ref_cam_normal, ref_cam, nullptr,
                        scalarKernelBackend());
    in.refVertex.resize(ref_w, ref_h);
    in.refNormal.resize(ref_w, ref_h);
    for (size_t i = 0; i < ref_cam.size(); ++i) {
        in.refVertex[i] = in.refPose.transformPoint(ref_cam[i]);
        in.refNormal[i] = in.refPose.transformDir(ref_cam_normal[i]);
    }

    const float nan = std::nanf("");
    Rng rng(seed);
    for (size_t i = 0; i < in.liveVertex.size(); ++i) {
        Vec3f &v = in.liveVertex[i];
        Vec3f &n = in.liveNormal[i];
        const double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.04)
            v = Vec3f{};
        else if (kind < 0.07)
            n = Vec3f{};
        else if (kind < 0.10)
            v.y = nan;
        else if (kind < 0.13)
            v.z = -v.z; // behind the camera
        else if (kind < 0.16)
            v.x *= kind < 0.145 ? 10.0f : 1e30f; // off the image
        else if (kind < 0.22)
            v = v * 1.3f; // pushed back along the ray
        else if (kind < 0.28)
            n = -n;
    }
    for (size_t i = 0; i < in.refNormal.size(); ++i) {
        const double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.05)
            in.refNormal[i] = Vec3f{};
        else if (kind < 0.06)
            in.refNormal[i].x = nan;
        else if (kind < 0.07)
            in.refVertex[i].z = nan;
    }
    return in;
}

/**
 * @return @p w x @p h track records pre-filled with one non-zero byte
 * pattern, padding included (trackKernel keeps a buffer of the right
 * size, so its non-Ok records keep these bytes).
 */
Image<TrackData>
filledRecords(size_t w, size_t h)
{
    Image<TrackData> records(w, h);
    std::memset(static_cast<void *>(records.data()), 0xa5,
                records.size() * sizeof(TrackData));
    return records;
}

/**
 * Every backend's track, on @p pool or sequential, must match the
 * sequential scalar reference byte for byte: both residuals, live
 * widths around and below the 8-lane vector width, and a reference
 * image the size of the live one or of another size. Both sides
 * start from the same pre-filled records and are compared whole, so
 * a lane that writes more than a non-Ok result (or touches the
 * padding) shows. Each TrackResult must occur.
 */
void
expectTrackMatchesScalar(ThreadPool *pool)
{
    const size_t h = 13;
    std::map<TrackResult, size_t> seen;
    for (const IcpResidual residual :
         {IcpResidual::PointToPlane, IcpResidual::PointToPoint}) {
        for (const size_t w : {size_t{8}, size_t{9}, size_t{157},
                               size_t{320}}) {
            for (const auto &[ref_w, ref_h] :
                 {std::pair<size_t, size_t>{w, h}, {97, 61}}) {
                const TrackInputs in =
                    trackInputs(w, h, ref_w, ref_h, 900 + w + ref_w);
                Image<TrackData> expect = filledRecords(w, h);
                trackKernel(expect, in.liveVertex, in.liveNormal,
                            in.pose, in.refVertex, in.refNormal, in.refK,
                            in.refPose, 0.1f, 0.8f, nullptr,
                            scalarKernelBackend(), residual);
                for (size_t i = 0; i < expect.size(); ++i)
                    ++seen[expect[i].result];
                for (const std::string &name : kernelBackendNames()) {
                    SCOPED_TRACE(name + " width " + std::to_string(w) +
                                 " ref " + std::to_string(ref_w) +
                                 " residual " +
                                 std::to_string(static_cast<int>(residual)));
                    Image<TrackData> got = filledRecords(w, h);
                    trackKernel(got, in.liveVertex, in.liveNormal,
                                in.pose, in.refVertex, in.refNormal,
                                in.refK, in.refPose, 0.1f, 0.8f, pool,
                                *findKernelBackend(name), residual);
                    ASSERT_EQ(got.size(), expect.size());
                    ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                                          expect.size() *
                                              sizeof(TrackData)),
                              0);
                }
            }
        }
    }
    for (const TrackResult result :
         {TrackResult::Ok, TrackResult::NoInputVertex,
          TrackResult::ProjectedOutside, TrackResult::NoRefNormal,
          TrackResult::TooFar, TrackResult::NormalMismatch})
        EXPECT_GT(seen[result], 0u)
            << "result " << static_cast<int>(result) << " never occurs";
}

TEST(BackendParity, TrackMatchesScalar)
{
    expectTrackMatchesScalar(nullptr);
}

TEST(BackendParity, TrackMatchesScalarPooled)
{
    ThreadPool pool(3);
    expectTrackMatchesScalar(&pool);
}

/**
 * Vertex maps for the vertex2normal parity test: a wall with zero
 * vertices, NaN and huge components (infinite or NaN cross
 * products), and repeated neighbours (a zero cross product under the
 * 1e-18 gate), at widths around and below the 8-lane vector width.
 */
TEST(BackendParity, Vertex2NormalMatchesScalar)
{
    ThreadPool pool(3);
    for (const size_t w : {size_t{8}, size_t{9}, size_t{157},
                           size_t{320}}) {
        const auto k = CameraIntrinsics::fromFov(w, 13, 1.1f);
        Image<Vec3f> vertex = wallVertices(k);
        Rng rng(1100 + w);
        for (size_t i = 0; i < vertex.size(); ++i) {
            const double kind = rng.uniform(0.0, 1.0);
            if (kind < 0.06)
                vertex[i] = Vec3f{};
            else if (kind < 0.08)
                vertex[i].x = std::nanf("");
            else if (kind < 0.10)
                vertex[i].y = 1e30f;
            else if (kind < 0.14 && i > 0)
                vertex[i] = vertex[i - 1];
        }
        Image<Vec3f> expect;
        vertex2normalKernel(expect, vertex, nullptr, scalarKernelBackend());
        size_t zeros = 0;
        for (size_t i = 0; i < expect.size(); ++i)
            zeros += expect[i] == Vec3f{};
        ASSERT_GT(zeros, w + 13); // more than the last row and column
        ASSERT_LT(zeros, expect.size());
        for (const std::string &name : kernelBackendNames()) {
            for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr),
                                  &pool}) {
                SCOPED_TRACE(name + " width " + std::to_string(w) +
                             (p ? " pooled" : ""));
                Image<Vec3f> got;
                vertex2normalKernel(got, vertex, p,
                                    *findKernelBackend(name));
                ASSERT_EQ(got.size(), expect.size());
                ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                                      expect.size() * sizeof(Vec3f)),
                          0);
            }
        }
    }
}

// --- sparse-volume parity ---
//
// The hashed-voxel-block volume promises bit-identity with the dense
// reference at EVERY voxel: observed voxels replay the exact dense
// fusion arithmetic, and unallocated voxels read the default
// Voxel{+1, 0} — the value an untouched dense voxel holds. So full
// res^3 equality (not just the observed region) is the contract.

/** Assert a sparse volume matches a dense one at every voxel. */
void
expectSparseMatchesDense(const SparseTsdfVolume &sparse,
                         const TsdfVolume &dense)
{
    ASSERT_EQ(sparse.resolution(), dense.resolution());
    for (int x = 0; x < dense.resolution(); ++x) {
        for (int y = 0; y < dense.resolution(); ++y) {
            for (int z = 0; z < dense.resolution(); ++z) {
                const Voxel s = sparse.voxelAt(x, y, z);
                const Voxel d = dense.voxelAt(x, y, z);
                ASSERT_EQ(s.tsdf, d.tsdf)
                    << "tsdf mismatch at (" << x << ", " << y << ", "
                    << z << ")";
                ASSERT_EQ(s.weight, d.weight)
                    << "weight mismatch at (" << x << ", " << y
                    << ", " << z << ")";
            }
        }
    }
}

/**
 * Fuse the same frame into sparse and dense volumes (both serial and
 * pooled sparse) and require voxel-for-voxel identity.
 */
void
checkSparseMatchesDense(const Mat4f &pose, uint64_t seed)
{
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Image<float> depth = makeDepth(k, seed);

    TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    SparseTsdfVolume serial(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    SparseTsdfVolume pooled(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    ThreadPool pool(3);
    WorkCounts dense_counts, serial_counts, pooled_counts;
    dense.integrate(depth, k, pose, 0.1f, 100.0f, dense_counts,
                    nullptr, scalarKernelBackend());
    serial.integrate(depth, k, pose, 0.1f, 100.0f, serial_counts,
                     nullptr, scalarKernelBackend());
    pooled.integrate(depth, k, pose, 0.1f, 100.0f, pooled_counts,
                     &pool, scalarKernelBackend());
    expectSparseMatchesDense(serial, dense);
    expectSparseMatchesDense(pooled, dense);
    EXPECT_EQ(serial.allocatedBlocks(), pooled.allocatedBlocks());
    // Sparse and dense run the identical culled sweep, so the work
    // accounts agree exactly.
    EXPECT_DOUBLE_EQ(serial_counts.itemsFor(KernelId::Integrate),
                     dense_counts.itemsFor(KernelId::Integrate));
    EXPECT_DOUBLE_EQ(serial_counts.skippedFor(KernelId::Integrate),
                     dense_counts.skippedFor(KernelId::Integrate));
}

TEST(SparseParity, MatchesDenseIdentityPose)
{
    checkSparseMatchesDense(Mat4f{}, 11);
}

TEST(SparseParity, MatchesDensePartialFrustum)
{
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.8f, 0.4f, -0.6f}, Vec3f{-0.2f, 0.0f, 1.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    checkSparseMatchesDense(pose, 12);
}

TEST(SparseParity, MatchesDenseCameraInsideVolume)
{
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.0f, 0.0f, 1.0f}, Vec3f{0.0f, 0.0f, 2.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    checkSparseMatchesDense(pose, 13);
}

TEST(SparseParity, MatchesDenseVolumeBehindCamera)
{
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.0f, 0.0f, -0.5f}, Vec3f{0.0f, 0.0f, -2.0f},
        Vec3f{0.0f, 1.0f, 0.0f});
    checkSparseMatchesDense(pose, 14);
    // Nothing projects: no block may be allocated.
    SparseTsdfVolume sparse(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    WorkCounts counts;
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    sparse.integrate(makeDepth(k, 14), k, pose, 0.1f, 100.0f, counts,
                     nullptr, scalarKernelBackend());
    EXPECT_EQ(sparse.allocatedBlocks(), 0u);
}

TEST(SparseParity, MatchesDenseAcrossFusedFramesPooled)
{
    // Multi-frame fusion with every kernel backend, serial and
    // pooled: weights accumulate across frames, so any ordering slip
    // in the block-run replay would show up here.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Mat4f poses[] = {
        Mat4f{},
        slambench::math::lookAt(Vec3f{0.5f, 0.2f, -0.4f},
                                Vec3f{0.0f, 0.0f, 1.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
    };
    for (const std::string &name : kernelBackendNames()) {
        SCOPED_TRACE(name);
        const KernelBackend *backend = findKernelBackend(name);
        TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        SparseTsdfVolume sparse(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        ThreadPool pool(3);
        WorkCounts counts;
        uint64_t seed = 51;
        for (const Mat4f &pose : poses) {
            const Image<float> depth = makeDepth(k, seed++);
            dense.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                            nullptr, *backend);
            sparse.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                             &pool, *backend);
        }
        expectSparseMatchesDense(sparse, dense);
    }
}

/** A sparse copy of FusedVolume's dense fixture content. */
class SparseFusedVolume : public FusedVolume
{
  protected:
    SparseFusedVolume()
        : sparse_(48, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f})
    {
        WorkCounts counts;
        Image<float> wall(k_.width, k_.height, 1.0f);
        sparse_.integrate(wall, k_, Mat4f{}, 0.1f, 100.0f, counts,
                          nullptr, scalarKernelBackend());
        const Image<float> depth = makeDepth(k_, 31);
        sparse_.integrate(depth, k_, Mat4f{}, 0.1f, 100.0f, counts,
                          nullptr, scalarKernelBackend());
    }

    SparseTsdfVolume sparse_;
};

TEST_F(SparseFusedVolume, InterpMatchesDenseEverywhere)
{
    Rng rng(7);
    SparseTsdfVolume::LookupCache cache;
    for (int i = 0; i < 20000; ++i) {
        const Vec3f p{
            static_cast<float>(rng.uniform(-1.1, 1.1)),
            static_cast<float>(rng.uniform(-1.1, 1.1)),
            static_cast<float>(rng.uniform(-0.1, 2.1))};
        bool dense_valid = false, sparse_valid = false,
             cached_valid = false;
        const float dense_v = volume_.interp(p, dense_valid);
        const float sparse_v = sparse_.interp(p, sparse_valid);
        const float cached_v =
            sparse_.interpCached(p, cached_valid, cache);
        ASSERT_EQ(sparse_v, dense_v)
            << "at " << p.x << ", " << p.y << ", " << p.z;
        ASSERT_EQ(sparse_valid, dense_valid);
        ASSERT_EQ(cached_v, dense_v);
        ASSERT_EQ(cached_valid, dense_valid);
    }
}

TEST_F(SparseFusedVolume, GradMatchesDenseEverywhere)
{
    Rng rng(8);
    SparseTsdfVolume::LookupCache cache;
    for (int i = 0; i < 20000; ++i) {
        const Vec3f p{
            static_cast<float>(rng.uniform(-1.1, 1.1)),
            static_cast<float>(rng.uniform(-1.1, 1.1)),
            static_cast<float>(rng.uniform(-0.1, 2.1))};
        const Vec3f dense_g = volume_.grad(p);
        const Vec3f sparse_g = sparse_.grad(p);
        const Vec3f cached_g = sparse_.gradCached(p, cache);
        ASSERT_EQ(sparse_g.x, dense_g.x)
            << "at " << p.x << ", " << p.y << ", " << p.z;
        ASSERT_EQ(sparse_g.y, dense_g.y);
        ASSERT_EQ(sparse_g.z, dense_g.z);
        ASSERT_EQ(cached_g.x, dense_g.x);
        ASSERT_EQ(cached_g.y, dense_g.y);
        ASSERT_EQ(cached_g.z, dense_g.z);
    }
}

TEST_F(SparseFusedVolume, CastRayMatchesDense)
{
    const RaycastParams params = testParams(volume_);
    Rng rng(9);
    SparseTsdfVolume::LookupCache cache;
    for (int i = 0; i < 500; ++i) {
        const Vec3f origin{
            static_cast<float>(rng.uniform(-0.5, 0.5)),
            static_cast<float>(rng.uniform(-0.5, 0.5)),
            static_cast<float>(rng.uniform(-0.5, 0.3))};
        Vec3f dir{static_cast<float>(rng.uniform(-0.4, 0.4)),
                  static_cast<float>(rng.uniform(-0.4, 0.4)),
                  static_cast<float>(rng.uniform(0.5, 1.0))};
        dir = dir * (1.0f / dir.norm());
        RayHit dense, sparse;
        marchRay(volume_, origin, dir, params, dense);
        marchRay(sparse_, origin, dir, params, cache, sparse);
        ASSERT_EQ(sparse.found, dense.found) << "ray " << i;
        ASSERT_EQ(sparse.steps, dense.steps);
        if (dense.found) {
            ASSERT_EQ(sparse.hit.x, dense.hit.x) << "ray " << i;
            ASSERT_EQ(sparse.hit.y, dense.hit.y);
            ASSERT_EQ(sparse.hit.z, dense.hit.z);
        }
    }
}

TEST_F(SparseFusedVolume, RaycastKernelMatchesDenseSerialAndPooled)
{
    // Every backend's sparse packet caster against the dense scalar
    // reference.
    const RaycastParams params = testParams(volume_);
    const Mat4f views[] = {
        Mat4f{},
        slambench::math::lookAt(Vec3f{1.2f, 0.8f, -0.4f},
                                Vec3f{-0.2f, -0.1f, 1.0f},
                                Vec3f{0.0f, 1.0f, 0.0f}),
    };
    ThreadPool pool(3);
    for (const Mat4f &view : views) {
        Image<Vec3f> vertex_ref, normal_ref;
        WorkCounts counts;
        raycastKernel(vertex_ref, normal_ref, volume_, k_, view,
                      params, counts, nullptr, scalarKernelBackend());
        for (const std::string &name : kernelBackendNames()) {
            SCOPED_TRACE(name);
            for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr),
                                  &pool}) {
                Image<Vec3f> vertex, normal;
                raycastKernel(vertex, normal, sparse_, k_, view, params,
                              counts, p, *findKernelBackend(name));
                ASSERT_EQ(vertex.size(), vertex_ref.size());
                for (size_t i = 0; i < vertex.size(); ++i) {
                    ASSERT_EQ(vertex[i].x, vertex_ref[i].x)
                        << "pixel " << i;
                    ASSERT_EQ(vertex[i].y, vertex_ref[i].y);
                    ASSERT_EQ(vertex[i].z, vertex_ref[i].z);
                    ASSERT_EQ(normal[i].x, normal_ref[i].x)
                        << "pixel " << i;
                    ASSERT_EQ(normal[i].y, normal_ref[i].y);
                    ASSERT_EQ(normal[i].z, normal_ref[i].z);
                }
            }
        }
    }
}

TEST_F(SparseFusedVolume, RenderVolumeMatchesDense)
{
    const RaycastParams params = testParams(volume_);
    Image<slambench::support::Rgb8> reference, tested;
    WorkCounts counts;
    ThreadPool pool(3);
    renderVolumeKernel(reference, volume_, k_, Mat4f{}, params,
                       counts, nullptr, scalarKernelBackend());
    for (const std::string &name : kernelBackendNames()) {
        SCOPED_TRACE(name);
        renderVolumeKernel(tested, sparse_, k_, Mat4f{}, params, counts,
                           &pool, *findKernelBackend(name));
        ASSERT_EQ(tested.size(), reference.size());
        for (size_t i = 0; i < tested.size(); ++i) {
            ASSERT_EQ(tested[i].r, reference[i].r) << "pixel " << i;
            ASSERT_EQ(tested[i].g, reference[i].g);
            ASSERT_EQ(tested[i].b, reference[i].b);
        }
    }
}

TEST(SparseParity, PipelinePosesMatchDenseExactly)
{
    // End-to-end: a full pipeline on the sparse volume must produce
    // bit-identical poses to the dense run — fusion, sampling, and
    // raycast are all bit-exact, and the pose is a pure function of
    // their outputs.
    slambench::dataset::SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 6;
    spec.renderRgb = false;
    spec.seed = 42;
    const auto seq = slambench::dataset::generateSequence(spec);

    KFusionConfig config;
    config.volumeResolution = 96;
    config.pyramidIterations = {6, 4, 3};

    std::vector<Mat4f> reference_poses;
    {
        KFusion kf(config, seq.intrinsics);
        kf.setPose(seq.groundTruth.pose(0));
        for (const auto &frame : seq.frames)
            reference_poses.push_back(
                kf.processFrame(frame.depthMm).pose);
    }

    KFusionConfig cfg = config;
    cfg.volumeBackend = "sparse";
    KFusion kf(cfg, seq.intrinsics);
    kf.setPose(seq.groundTruth.pose(0));
    for (size_t f = 0; f < seq.frames.size(); ++f) {
        const Mat4f pose =
            kf.processFrame(seq.frames[f].depthMm).pose;
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                ASSERT_EQ(pose(r, c), reference_poses[f](r, c))
                    << "frame " << f << " element (" << r << ", "
                    << c << ")";
    }
}

TEST(BackendParity, PipelinePosesMatchScalarExactly)
{
    // End-to-end: the full pipeline must produce bit-identical poses
    // and per-frame work counts under every backend, on either
    // volume, because each kernel is bit-exact and both are pure
    // functions of the kernel outputs. Equal work is what lets the
    // DSE run its host pipeline on any backend while the device model
    // sees the sampled one, and is why the map is not a DSE
    // dimension.
    slambench::dataset::SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 6;
    spec.renderRgb = false;
    spec.seed = 42;
    const auto seq = slambench::dataset::generateSequence(spec);

    KFusionConfig config;
    config.volumeResolution = 96;
    config.pyramidIterations = {6, 4, 3};

    std::vector<FrameResult> reference;
    {
        KFusion kf(config, seq.intrinsics);
        kf.setPose(seq.groundTruth.pose(0));
        for (const auto &frame : seq.frames)
            reference.push_back(kf.processFrame(frame.depthMm));
    }

    for (const std::string volume : {"dense", "sparse"}) {
        for (const std::string &name : kernelBackendNames()) {
            SCOPED_TRACE(volume + " " + name);
            KFusionConfig cfg = config;
            cfg.kernelBackend = name;
            cfg.volumeBackend = volume;
            KFusion kf(cfg, seq.intrinsics);
            kf.setPose(seq.groundTruth.pose(0));
            for (size_t f = 0; f < seq.frames.size(); ++f) {
                SCOPED_TRACE(f);
                const FrameResult result =
                    kf.processFrame(seq.frames[f].depthMm);
                for (int r = 0; r < 4; ++r)
                    for (int c = 0; c < 4; ++c)
                        ASSERT_EQ(result.pose(r, c),
                                  reference[f].pose(r, c))
                            << "element (" << r << ", " << c << ")";
                // Raycast items are the ray-march step counts.
                for (size_t k = 0; k < kNumKernels; ++k) {
                    const auto id = static_cast<KernelId>(k);
                    EXPECT_EQ(result.work.itemsFor(id),
                              reference[f].work.itemsFor(id))
                        << kernelName(id);
                    EXPECT_EQ(result.work.skippedFor(id),
                              reference[f].work.skippedFor(id))
                        << kernelName(id);
                    EXPECT_EQ(result.work.bytesFor(id),
                              reference[f].work.bytesFor(id))
                        << kernelName(id);
                }
            }
        }
    }
}

// --- free-space skip ---
//
// Both volumes skip the fetch of samples in free bricks. The
// reference is the same castRayCore with the NeverFree policy, so any
// difference in hits or steps is the skip's fault. Every fixture runs
// on the dense volume and on the sparse volume.

/** Metric depth of a sphere seen from @p camera_to_world (0 = miss). */
Image<float>
sphereDepth(const CameraIntrinsics &k, const Mat4f &camera_to_world,
            const Vec3f &center, float radius)
{
    Image<float> depth(k.width, k.height, 0.0f);
    const Vec3f c = camera_to_world.rigidInverse().transformPoint(center);
    for (size_t y = 0; y < k.height; ++y) {
        for (size_t x = 0; x < k.width; ++x) {
            const Vec3f d = k.rayDir(static_cast<float>(x) + 0.5f,
                                     static_cast<float>(y) + 0.5f);
            const float b = d.dot(c);
            const float disc = b * b - (c.squaredNorm() - radius * radius);
            if (disc < 0.0f)
                continue;
            const float t = b - std::sqrt(disc);
            if (t > 0.0f)
                depth(x, y) = t * d.z;
        }
    }
    return depth;
}

/** Views of the fused sphere: three around it, one from inside. */
std::vector<Mat4f>
sphereViews()
{
    const Vec3f up{0.0f, 1.0f, 0.0f};
    const Vec3f center{0.0f, 0.0f, 1.0f};
    return {
        Mat4f{},
        slambench::math::lookAt(Vec3f{0.7f, 0.2f, 0.1f}, center, up),
        slambench::math::lookAt(Vec3f{-0.6f, -0.3f, 0.2f}, center, up),
        slambench::math::lookAt(Vec3f{0.1f, 0.6f, 1.9f}, center, up),
    };
}

/**
 * Fuse a sphere of radius 0.35 m from every sphereViews() pose into a
 * volume of the skip fixtures' geometry (kSkipResolution = 60, not a
 * multiple of the brick edge: the last brick of each axis is partial).
 */
template <typename Volume>
void
fuseSphere(Volume &volume, const KernelBackend &backend, ThreadPool *pool)
{
    const auto k = CameraIntrinsics::fromFov(64, 48, 1.2f);
    WorkCounts counts;
    for (const Mat4f &pose : sphereViews())
        volume.integrate(
            sphereDepth(k, pose, Vec3f{0.0f, 0.0f, 1.0f}, 0.35f), k,
            pose, 0.1f, 100.0f, counts, pool, backend);
}

/**
 * The sphere fixture's geometry with three flat walls fused from
 * cameras looking along +z, +x and +y instead. Each wall's depth puts
 * the outer edge of its truncation band exactly on a brick face (and,
 * for the +z wall at z = 32, on a sparse block face of either block
 * size), so the first voxel layer past the face is the only one fused
 * below 1: the brick before the face is clean except for its apron.
 */
template <typename Volume>
void
fuseFaceWalls(Volume &volume, const KernelBackend &backend,
              ThreadPool *pool)
{
    const auto k = CameraIntrinsics::fromFov(48, 40, 0.8f);
    const float mu = 0.1f;
    const float vs = volume.voxelSize();
    const Vec3f o = volume.origin();
    struct Wall
    {
        Vec3f eye, forward, up;
        float face; ///< World coordinate of the face plane.
    };
    const Wall walls[] = {
        {{0.0f, 0.0f, 0.3f}, {0.0f, 0.0f, 1.0f}, {0.0f, 1.0f, 0.0f},
         o.z + 32.0f * vs},
        {{-0.9f, 0.1f, 1.0f}, {1.0f, 0.0f, 0.0f}, {0.0f, 1.0f, 0.0f},
         o.x + 24.0f * vs},
        {{0.1f, -0.9f, 1.0f}, {0.0f, 1.0f, 0.0f}, {0.0f, 0.0f, 1.0f},
         o.y + 40.0f * vs},
    };
    WorkCounts counts;
    for (const Wall &w : walls) {
        const float eye = w.eye.dot(w.forward);
        const Image<float> depth(k.width, k.height, w.face + mu - eye);
        volume.integrate(
            depth, k,
            slambench::math::lookAt(w.eye, w.eye + w.forward, w.up), mu,
            100.0f, counts, pool, backend);
    }
}

/** The skip fixtures' volume geometry. */
constexpr int kSkipResolution = 60;
const Vec3f kSkipOrigin{-1.0f, -1.0f, 0.0f};

/**
 * Build the fixture @p fuse (volume&) in the dense and the sparse
 * volume, and run @p check (volume&) on each.
 */
template <typename Fuse, typename Check>
void
forEachSkipVolume(const Fuse &fuse, const Check &check)
{
    {
        SCOPED_TRACE("dense");
        TsdfVolume volume(kSkipResolution, 2.0f, kSkipOrigin);
        fuse(volume);
        check(volume);
    }
    {
        SCOPED_TRACE("sparse");
        SparseTsdfVolume volume(kSkipResolution, 2.0f, kSkipOrigin);
        fuse(volume);
        check(volume);
    }
}

/** forEachSkipVolume over the sphere fixture, fused serially. */
template <typename Check>
void
forEachSphereVolume(const Check &check)
{
    forEachSkipVolume(
        [](auto &volume) { fuseSphere(volume, scalarKernelBackend(), nullptr); },
        check);
}

/** Fine step one voxel, coarse step about one brick (8 voxels). */
template <typename Volume>
RaycastParams
skipParams(const Volume &volume, float large_step)
{
    RaycastParams params;
    params.nearPlane = 0.0f;
    params.farPlane = 10.0f;
    params.step = volume.voxelSize();
    params.largeStep = large_step;
    return params;
}

/** castRayCore on @p volume with the NeverFree reference policy. */
template <typename Volume>
RayHit
marchNeverFree(const Volume &volume, const Vec3f &origin,
               const Vec3f &dir, const RaycastParams &params)
{
    RayHit ray;
    castRayCore(
        volume.origin(), volume.size(), origin, dir, params,
        [&](const Vec3f &p, bool &valid) { return volume.interp(p, valid); },
        NeverFree{}, ray);
    return ray;
}

/** One march with the free-brick skip, one without. */
struct SkipPair
{
    RayHit skip;
    RayHit reference;
};

template <typename Volume>
SkipPair
marchBoth(const Volume &volume, const Vec3f &origin, const Vec3f &dir,
          const RaycastParams &params)
{
    SkipPair pair;
    castRayCore(
        volume.origin(), volume.size(), origin, dir, params,
        [&](const Vec3f &p, bool &valid) { return volume.interp(p, valid); },
        [&](const Vec3f &p) { return volume.freeBricks().sampleIsFree(p); },
        pair.skip);
    pair.reference = marchNeverFree(volume, origin, dir, params);
    return pair;
}

/** Exact equality of everything a march reports. */
void
expectSameRay(const RayHit &got, const RayHit &want)
{
    ASSERT_EQ(got.found, want.found);
    ASSERT_EQ(got.steps, want.steps);
    if (want.found) {
        ASSERT_EQ(got.hit.x, want.hit.x);
        ASSERT_EQ(got.hit.y, want.hit.y);
        ASSERT_EQ(got.hit.z, want.hit.z);
    }
}

Vec3f
randomDir(Rng &rng)
{
    Vec3f d;
    do {
        d = Vec3f{static_cast<float>(rng.uniform(-1.0, 1.0)),
                  static_cast<float>(rng.uniform(-1.0, 1.0)),
                  static_cast<float>(rng.uniform(-1.0, 1.0))};
    } while (d.squaredNorm() < 0.01f || d.squaredNorm() > 1.0f);
    return d.normalized();
}

TEST(FreeSpaceSkip, RandomRaysOnFusedSphereMatchNeverFree)
{
    forEachSphereVolume([](const auto &volume) {
        Rng rng(71);
        for (float large : {0.075f, 0.25f}) {
            const RaycastParams params = skipParams(volume, large);
            int hits = 0;
            long long skipped = 0;
            for (int i = 0; i < 4000; ++i) {
                const Vec3f origin{
                    static_cast<float>(rng.uniform(-1.2, 1.2)),
                    static_cast<float>(rng.uniform(-1.2, 1.2)),
                    static_cast<float>(rng.uniform(-0.2, 2.2))};
                // Every other ray is aimed at the sphere.
                const Vec3f target =
                    Vec3f{0.0f, 0.0f, 1.0f} + randomDir(rng) * 0.3f;
                const Vec3f dir = i % 2 ? (target - origin).normalized()
                                        : randomDir(rng);
                const SkipPair r = marchBoth(volume, origin, dir, params);
                SCOPED_TRACE(i);
                expectSameRay(r.skip, r.reference);
                EXPECT_EQ(r.reference.skipped, 0);
                hits += r.skip.found;
                skipped += r.skip.skipped;
            }
            EXPECT_GT(hits, 1000);
            EXPECT_GT(skipped, 10000);
        }
    });
}

TEST(FreeSpaceSkip, CrossingRightAfterSkippedSampleRefetches)
{
    // A coarse step of three truncation bands jumps from a free
    // brick straight into the surface, so the crossing's f_t is the
    // skipped sample's, fetched again at its stored t.
    forEachSphereVolume([](const auto &volume) {
        const RaycastParams params = skipParams(volume, 0.3f);
        const Vec3f center{0.0f, 0.0f, 1.0f};
        Rng rng(72);
        int after_skip = 0;
        for (int i = 0; i < 3000; ++i) {
            // Rays from outside the sphere aimed near its center.
            const Vec3f origin = center + randomDir(rng) * 0.9f;
            const Vec3f target =
                center + randomDir(rng) *
                             static_cast<float>(rng.uniform(0.0, 0.3));
            const Vec3f dir = (target - origin).normalized();
            const SkipPair r = marchBoth(volume, origin, dir, params);
            SCOPED_TRACE(i);
            expectSameRay(r.skip, r.reference);
            if (!r.skip.found)
                continue;
            // Replay the skip march's decisions: was the sample before
            // the crossing skipped?
            std::vector<bool> decisions;
            RayHit replay;
            castRayCore(
                volume.origin(), volume.size(), origin, dir, params,
                [&](const Vec3f &p, bool &valid) {
                    return volume.interp(p, valid);
                },
                [&](const Vec3f &p) {
                    decisions.push_back(
                        volume.freeBricks().sampleIsFree(p));
                    return decisions.back();
                },
                replay);
            ASSERT_GE(decisions.size(), 2u);
            after_skip += decisions[decisions.size() - 2];
        }
        EXPECT_GT(after_skip, 100);
    });
}

template <typename Volume>
void
checkRaysAlongBrickFaces(const Volume &volume)
{
    const float vs = volume.voxelSize();
    const Vec3f o = volume.origin();
    const RaycastParams params = skipParams(volume, 0.075f);
    const int bricks = volume.freeBricks().bricksPerEdge();
    int hits = 0;
    long long skipped = 0;
    for (int bx = 1; bx < bricks; ++bx) {
        for (int by = 1; by < bricks; ++by) {
            // The face plane x = bx * kBrickEdge * vs puts the stencil
            // base at x0 = bx * kBrickEdge - 1.
            const float fx = o.x + static_cast<float>(bx * kBrickEdge) * vs;
            const float fy = o.y + static_cast<float>(by * kBrickEdge) * vs;
            const Vec3f along[] = {
                {0.0f, 0.0f, 1.0f},
                Vec3f{0.0f, 0.05f, 1.0f}.normalized(),
                Vec3f{0.05f, 0.0f, 1.0f}.normalized(),
            };
            for (const Vec3f &dir : along) {
                const SkipPair r = marchBoth(
                    volume, Vec3f{fx, fy, o.z - 0.5f}, dir, params);
                SCOPED_TRACE(testing::Message()
                             << "bx " << bx << " by " << by);
                expectSameRay(r.skip, r.reference);
                hits += r.skip.found;
                skipped += r.skip.skipped;
            }
            // Along y, in the x face plane and a z face plane.
            const float fz =
                o.z + static_cast<float>(by * kBrickEdge) * vs;
            const SkipPair r =
                marchBoth(volume, Vec3f{fx, o.y - 0.5f, fz},
                          Vec3f{0.0f, 1.0f, 0.0f}, params);
            expectSameRay(r.skip, r.reference);
            hits += r.skip.found;
        }
    }
    EXPECT_GT(hits, 10);
    EXPECT_GT(skipped, 1000);
}

TEST(FreeSpaceSkip, RaysAlongBrickFacesMatchNeverFree)
{
    // Rays in the planes between bricks: every stencil straddles two
    // bricks, so a flag that ignored the +x/+y/+z apron voxel would
    // skip a fetch that reads the surface. The face walls put
    // surface voxels on exactly those apron layers.
    forEachSphereVolume(
        [](const auto &volume) { checkRaysAlongBrickFaces(volume); });
    forEachSkipVolume(
        [](auto &volume) { fuseFaceWalls(volume, scalarKernelBackend(), nullptr); },
        [](const auto &volume) { checkRaysAlongBrickFaces(volume); });
}

TEST(FreeSpaceSkip, RaysLeavingTheVolumeMatchNeverFree)
{
    // Origins inside the volume, far plane beyond it: the last
    // samples' stencils fall off the far faces, where the predicate
    // answers "free" for out-of-bounds samples.
    forEachSphereVolume([](const auto &volume) {
        const RaycastParams params = skipParams(volume, 0.075f);
        Rng rng(73);
        long long skipped = 0;
        for (int i = 0; i < 3000; ++i) {
            const Vec3f origin{
                static_cast<float>(rng.uniform(-0.95, 0.95)),
                static_cast<float>(rng.uniform(-0.95, 0.95)),
                static_cast<float>(rng.uniform(0.05, 1.95))};
            const SkipPair r =
                marchBoth(volume, origin, randomDir(rng), params);
            SCOPED_TRACE(i);
            expectSameRay(r.skip, r.reference);
            skipped += r.skip.skipped;
        }
        EXPECT_GT(skipped, 10000);
    });
}

/**
 * Packets of rays fanned from one origin through every backend's
 * castRays on @p volume: each lane must match the scalar backend and
 * the NeverFree march. Lanes enter, leave and skip free bricks at
 * different iterations, some hit the surface, some miss the volume,
 * and short packets leave lanes unused. With @p min_skipped > 0 and
 * an accelerated simd backend, each non-scalar backend must skip more
 * than @p min_skipped fetches at each coarse step.
 */
template <typename Volume>
void
checkPacketsMatchNeverFree(const Volume &volume, uint64_t seed,
                           int packets, long long min_skipped)
{
    const KernelBackend &scalar = scalarKernelBackend();
    Rng rng(seed);
    for (const std::string &name : kernelBackendNames()) {
        const KernelBackend *backend = findKernelBackend(name);
        SCOPED_TRACE(name);
        for (float large : {0.075f, 0.3f}) {
            SCOPED_TRACE(large);
            const RaycastParams params = skipParams(volume, large);
            long long skipped = 0;
            for (int packet = 0; packet < packets; ++packet) {
                const Vec3f origin{
                    static_cast<float>(rng.uniform(-1.5, 1.5)),
                    static_cast<float>(rng.uniform(-1.5, 1.5)),
                    static_cast<float>(rng.uniform(-0.5, 1.0))};
                const Vec3f aim = (Vec3f{0.0f, 0.0f, 1.0f} - origin)
                                      .normalized();
                const size_t n = 1 + static_cast<size_t>(packet) %
                                         kRayPacketWidth;
                Vec3f dirs[kRayPacketWidth];
                for (size_t l = 0; l < n; ++l)
                    dirs[l] = (aim + randomDir(rng) * 0.6f).normalized();
                RayHit got[kRayPacketWidth], want[kRayPacketWidth];
                backend->castRays(volume, origin, dirs, n, params, got);
                scalar.castRays(volume, origin, dirs, n, params, want);
                for (size_t l = 0; l < n; ++l) {
                    SCOPED_TRACE(testing::Message()
                                 << "packet " << packet << " lane " << l);
                    expectSameRay(got[l], want[l]);
                    expectSameRay(got[l], marchNeverFree(volume, origin,
                                                         dirs[l], params));
                    skipped += got[l].skipped;
                }
            }
            if (backend != &scalar && min_skipped > 0 &&
                simdBackendIsAccelerated()) {
                EXPECT_GT(skipped, min_skipped);
            }
        }
    }
}

TEST(FreeSpaceSkip, PacketsWithMixedFreeLanesMatchScalar)
{
    forEachSphereVolume([](const auto &volume) {
        checkPacketsMatchNeverFree(volume, 74, 600, 10000);
    });
}

/**
 * Every flagged brick and its +x/+y/+z apron hold tsdf == 1.
 *
 * @return the flagged bricks.
 */
template <typename Volume>
int
checkFlagInvariant(const Volume &volume)
{
    const FreeBrickGrid &grid = volume.freeBricks();
    const int res = volume.resolution();
    const int nb = grid.bricksPerEdge();
    const auto hi = [res](int b) {
        return std::min((b + 1) * kBrickEdge, res - 1);
    };
    int flagged = 0;
    for (int bx = 0; bx < nb; ++bx) {
        for (int by = 0; by < nb; ++by) {
            for (int bz = 0; bz < nb; ++bz) {
                if (!grid.brickFree(bx, by, bz))
                    continue;
                ++flagged;
                for (int x = bx * kBrickEdge; x <= hi(bx); ++x)
                    for (int y = by * kBrickEdge; y <= hi(by); ++y)
                        for (int z = bz * kBrickEdge; z <= hi(bz); ++z)
                            EXPECT_EQ(volume.voxelAt(x, y, z).tsdf, 1.0f)
                                << "brick (" << bx << ", " << by << ", "
                                << bz << ") voxel (" << x << ", " << y
                                << ", " << z << ")";
            }
        }
    }
    return flagged;
}

/** @return whether two grids hold the same flag bytes. */
bool
sameFlags(const FreeBrickGrid &a, const FreeBrickGrid &b)
{
    const int nb = a.bricksPerEdge();
    return nb == b.bricksPerEdge() &&
           std::memcmp(a.flags(), b.flags(),
                       static_cast<size_t>(nb) * nb * nb) == 0;
}

TEST(FreeSpaceSkip, FlagInvariantHoldsAfterPooledIntegrates)
{
    // Exhaustive: after multi-frame fusion on a pool, every flagged
    // brick and its +x/+y/+z apron hold tsdf == 1 exactly, for every
    // backend, both fixtures and both volumes, and the flags match
    // the serial fusion's.
    ThreadPool pool(3);
    for (const std::string &name : kernelBackendNames()) {
        SCOPED_TRACE(name);
        const KernelBackend &backend = *findKernelBackend(name);
        for (const bool walls : {false, true}) {
            SCOPED_TRACE(walls ? "face walls" : "sphere");
            const auto fuse = [&](auto &volume, ThreadPool *p) {
                if (walls)
                    fuseFaceWalls(volume, backend, p);
                else
                    fuseSphere(volume, backend, p);
            };
            forEachSkipVolume(
                [&](auto &volume) { fuse(volume, &pool); },
                [&](const auto &pooled) {
                    // The surfaces clear some bricks and leave most
                    // free.
                    const int nb = pooled.freeBricks().bricksPerEdge();
                    const int flagged = checkFlagInvariant(pooled);
                    EXPECT_GT(flagged, nb * nb * nb / 2);
                    EXPECT_LT(flagged, nb * nb * nb);
                    TsdfVolume serial(kSkipResolution, 2.0f, kSkipOrigin);
                    fuse(serial, nullptr);
                    EXPECT_TRUE(
                        sameFlags(pooled.freeBricks(), serial.freeBricks()));
                });
        }
    }
}

TEST(FreeSpaceSkip, SparseGridEqualsDenseGridAfterPooledIntegrates)
{
    // The flags depend only on voxel values, which the volumes share
    // bit for bit, so the sparse grid must be the dense grid's bytes.
    ThreadPool pool(3);
    const auto k = CameraIntrinsics::fromFov(48, 40, 1.1f);
    for (const std::string &name : kernelBackendNames()) {
        SCOPED_TRACE(name);
        const KernelBackend &backend = *findKernelBackend(name);
        TsdfVolume dense(kSkipResolution, 2.0f, kSkipOrigin);
        SparseTsdfVolume sparse(kSkipResolution, 2.0f, kSkipOrigin);
        fuseSphere(dense, backend, &pool);
        fuseSphere(sparse, backend, &pool);
        EXPECT_TRUE(sameFlags(sparse.freeBricks(), dense.freeBricks()));
        fuseFaceWalls(dense, backend, &pool);
        fuseFaceWalls(sparse, backend, &pool);
        EXPECT_TRUE(sameFlags(sparse.freeBricks(), dense.freeBricks()));
        // Random depth from random poses touches block faces along
        // every axis at every offset.
        uint64_t seed = 91;
        for (const Mat4f &pose : sphereViews()) {
            const Image<float> depth = makeDepth(k, seed++);
            WorkCounts counts;
            dense.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                            &pool, backend);
            sparse.integrate(depth, k, pose, 0.1f, 100.0f, counts,
                             &pool, backend);
        }
        EXPECT_TRUE(sameFlags(sparse.freeBricks(), dense.freeBricks()));
        EXPECT_GT(checkFlagInvariant(sparse), 0);
        sparse.reset();
        TsdfVolume fresh(kSkipResolution, 2.0f, kSkipOrigin);
        EXPECT_TRUE(sameFlags(sparse.freeBricks(), fresh.freeBricks()));
    }
}

TEST(FreeSpaceSkip, SparseBlockFaceVoxelClearsBrickBelow)
{
    // The +z face wall fuses voxel layer z = 32 below 1 and leaves
    // z = 24..31 at 1. Layer 32 is local z = 0 of a sparse block,
    // where the column kernel cannot mark brick 3 below it; brick 3
    // holds that layer as its apron, so integrate must clear it
    // anyway.
    SparseTsdfVolume volume(kSkipResolution, 2.0f, kSkipOrigin);
    fuseFaceWalls(volume, scalarKernelBackend(), nullptr);
    const FreeBrickGrid &grid = volume.freeBricks();
    int face_voxels = 0;
    for (int x = 0; x < kSkipResolution; ++x) {
        for (int y = 0; y < kSkipResolution; ++y) {
            if (volume.voxelAt(x, y, 32).tsdf == 1.0f)
                continue;
            bool brick_clean = true;
            for (int z = 24; z < 32; ++z)
                brick_clean &= volume.voxelAt(x, y, z).tsdf == 1.0f;
            if (!brick_clean)
                continue;
            ++face_voxels;
            ASSERT_FALSE(grid.brickFree(x >> kBrickShift,
                                        y >> kBrickShift, 3))
                << "voxel (" << x << ", " << y << ", 32)";
        }
    }
    EXPECT_GT(face_voxels, 100);
}

TEST(FreeSpaceSkip, AtClearsFlagsAndResetRestoresThem)
{
    TsdfVolume volume(60, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    const FreeBrickGrid &grid = volume.freeBricks();
    const int nb = grid.bricksPerEdge();
    const auto count_free = [&] {
        int n = 0;
        for (int bx = 0; bx < nb; ++bx)
            for (int by = 0; by < nb; ++by)
                for (int bz = 0; bz < nb; ++bz)
                    n += grid.brickFree(bx, by, bz);
        return n;
    };
    ASSERT_EQ(count_free(), nb * nb * nb);
    // Voxel (8, 16, 3) sits on the low x face of brick 1 and the low
    // y face of brick 2, so it is also apron of bricks 0 (x) and 1
    // (y): four bricks lose their flag.
    volume.at(8, 16, 3).tsdf = -0.5f;
    for (int bx = 0; bx < nb; ++bx)
        for (int by = 0; by < nb; ++by)
            for (int bz = 0; bz < nb; ++bz)
                EXPECT_EQ(grid.brickFree(bx, by, bz),
                          !(bx <= 1 && by >= 1 && by <= 2 && bz == 0))
                    << bx << ", " << by << ", " << bz;
    // The predicate honours the cleared brick.
    const float vs = volume.voxelSize();
    const Vec3f in_cleared = volume.origin() + Vec3f{8.6f, 16.6f, 3.6f} * vs;
    EXPECT_FALSE(grid.sampleIsFree(in_cleared));
    EXPECT_TRUE(grid.sampleIsFree(volume.origin() +
                                  Vec3f{40.6f, 40.6f, 40.6f} * vs));
    EXPECT_TRUE(grid.sampleIsFree(volume.origin() - Vec3f::all(vs)));
    volume.reset();
    EXPECT_EQ(count_free(), nb * nb * nb);
    EXPECT_EQ(volume.voxelAt(8, 16, 3).tsdf, 1.0f);
}

// --- render reuse ---

TEST(RenderReuse, ModelRenderAtRaycastPoseMatchesMarchPooled)
{
    // renderModel at the pose and compute intrinsics of the frame's
    // raycast shades from raycast's normal map; the pixels and the
    // RenderVolume work must equal a fresh march's.
    slambench::dataset::SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = 5;
    spec.renderRgb = false;
    spec.seed = 43;
    const auto seq = slambench::dataset::generateSequence(spec);

    KFusionConfig config;
    config.volumeResolution = 96;
    config.pyramidIterations = {6, 4, 3};
    KFusion kf(config, seq.intrinsics, Implementation::Threaded, 3);
    kf.setPose(seq.groundTruth.pose(0));
    RaycastParams params;
    params.nearPlane = config.nearPlane;
    params.farPlane = config.farPlane;
    params.step = config.voxelSize();
    params.largeStep = std::max(0.75f * config.mu, params.step);
    for (const auto &frame : seq.frames) {
        const FrameResult result = kf.processFrame(frame.depthMm);
        ASSERT_TRUE(result.raycast);
        const CameraIntrinsics k = kf.computeIntrinsics();
        Image<slambench::support::Rgb8> reused, marched;
        kf.renderModel(reused, kf.pose(), &k);
        WorkCounts march_work;
        std::visit(
            [&](const auto &volume) {
                renderVolumeKernel(marched, volume, k, kf.pose(), params,
                                   march_work, nullptr,
                                   kf.kernelBackend());
            },
            kf.volume());
        ASSERT_EQ(reused.size(), marched.size());
        for (size_t i = 0; i < reused.size(); ++i) {
            ASSERT_EQ(reused[i].r, marched[i].r) << "pixel " << i;
            ASSERT_EQ(reused[i].g, marched[i].g);
            ASSERT_EQ(reused[i].b, marched[i].b);
        }
        const WorkCounts &charged = kf.frameWork().back();
        EXPECT_EQ(charged.itemsFor(KernelId::RenderVolume),
                  march_work.itemsFor(KernelId::RenderVolume));
        EXPECT_EQ(charged.bytesFor(KernelId::RenderVolume),
                  march_work.bytesFor(KernelId::RenderVolume));
        EXPECT_GT(charged.itemsFor(KernelId::RenderVolume), 0.0);
    }
}

} // namespace
