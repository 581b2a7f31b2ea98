/**
 * @file
 * Tests for the frame-to-frame ICP odometry baseline and the
 * cross-system comparison invariants the SLAMBench harness relies
 * on.
 */

#include <gtest/gtest.h>

#include "core/benchmark.hpp"
#include "core/odometry.hpp"
#include "core/slam_system.hpp"
#include "devices/fleet.hpp"

namespace {

using namespace slambench;
using namespace slambench::core;
using dataset::Sequence;
using dataset::SequenceSpec;

Sequence
makeSequence(size_t frames, dataset::TrajectoryPreset preset =
                                dataset::TrajectoryPreset::OrbitA)
{
    SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = frames;
    spec.renderRgb = false;
    spec.trajectory = preset;
    return generateSequence(spec);
}

TEST(Odometry, NameIsStable)
{
    OdometrySystem system;
    EXPECT_EQ(system.name(), "icp-odometry");
}

TEST(Odometry, TracksShortSequence)
{
    const Sequence seq = makeSequence(8);
    OdometrySystem system;
    const BenchmarkResult result = runBenchmark(system, seq);
    EXPECT_EQ(result.frames, 8u);
    EXPECT_GT(result.trackedFraction(), 0.9);
    EXPECT_LT(result.ate.maxAte, 0.05);
}

TEST(Odometry, WorkCountsExcludeVolumeKernels)
{
    const Sequence seq = makeSequence(4);
    OdometrySystem system;
    const BenchmarkResult result = runBenchmark(system, seq);
    EXPECT_DOUBLE_EQ(
        result.totalWork.itemsFor(kfusion::KernelId::Integrate), 0.0);
    EXPECT_DOUBLE_EQ(
        result.totalWork.itemsFor(kfusion::KernelId::Raycast), 0.0);
    EXPECT_GT(
        result.totalWork.itemsFor(kfusion::KernelId::Track), 0.0);
    EXPECT_GT(result.totalWork.itemsFor(
                  kfusion::KernelId::BilateralFilter),
              0.0);
}

TEST(Odometry, DriftsMoreThanKFusionOnLongerRuns)
{
    const Sequence seq = makeSequence(25);

    kfusion::KFusionConfig kf_config;
    kf_config.volumeResolution = 96;
    kf_config.pyramidIterations = {6, 4, 3};
    KFusionSystem kfusion_system(kf_config);
    OdometrySystem odometry_system;

    const BenchmarkResult kf = runBenchmark(kfusion_system, seq);
    const BenchmarkResult odo = runBenchmark(odometry_system, seq);
    ASSERT_GT(kf.trackedFraction(), 0.9);
    ASSERT_GT(odo.trackedFraction(), 0.9);
    // Frame-to-model tracking must accumulate less error than pure
    // frame-to-frame odometry (the reason KinectFusion exists).
    EXPECT_LT(kf.ate.rmse, odo.ate.rmse);
}

TEST(Odometry, CheaperThanKFusionOnDevice)
{
    const Sequence seq = makeSequence(6);
    kfusion::KFusionConfig kf_config;
    kf_config.volumeResolution = 128;
    KFusionSystem kfusion_system(kf_config);
    OdometrySystem odometry_system;

    const BenchmarkResult kf = runBenchmark(kfusion_system, seq);
    const BenchmarkResult odo = runBenchmark(odometry_system, seq);
    const auto xu3 = devices::odroidXu3();
    EXPECT_LT(devices::simulateRun(xu3, odo.frameWork).totalSeconds,
              devices::simulateRun(xu3, kf.frameWork).totalSeconds);
}

TEST(Odometry, ComputeSizeRatioReducesWork)
{
    const Sequence seq = makeSequence(4);
    OdometryConfig c1, c2;
    c2.computeSizeRatio = 2;
    OdometrySystem s1(c1), s2(c2);
    const BenchmarkResult r1 = runBenchmark(s1, seq);
    const BenchmarkResult r2 = runBenchmark(s2, seq);
    EXPECT_LT(r2.totalWork.itemsFor(
                  kfusion::KernelId::BilateralFilter),
              r1.totalWork.itemsFor(
                  kfusion::KernelId::BilateralFilter));
}

TEST(Odometry, ReinitializeClearsState)
{
    const Sequence seq = makeSequence(3);
    OdometrySystem system;
    runBenchmark(system, seq);
    const BenchmarkResult again = runBenchmark(system, seq);
    EXPECT_EQ(again.frames, 3u);
    EXPECT_EQ(again.frameWork.size(), 3u);
    EXPECT_LT(again.ate.maxAte, 0.05);
}

TEST(Odometry, CheckCompatibilityNeedsFourPixelLevels)
{
    // Three levels need a compute image of at least 16x16: level 2 is
    // a quarter of it and must stay 4x4.
    const OdometryConfig config; // three levels, ratio 1
    const auto size = [](size_t w, size_t h) {
        return math::CameraIntrinsics::fromFov(w, h, 1.0f);
    };
    EXPECT_EQ(OdometrySystem::checkCompatibility(config, size(16, 16)),
              "");
    EXPECT_NE(OdometrySystem::checkCompatibility(config, size(15, 16)),
              "");
    EXPECT_NE(OdometrySystem::checkCompatibility(config, size(4, 4)),
              "");
    OdometryConfig coarse = config;
    coarse.computeSizeRatio = 2;
    EXPECT_NE(OdometrySystem::checkCompatibility(coarse, size(16, 16)),
              "");
    EXPECT_EQ(OdometrySystem::checkCompatibility(coarse, size(32, 32)),
              "");
}

/** FNV-1a over @p n bytes at @p bytes. */
void
fnv1a(uint64_t &h, const void *bytes, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(bytes);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 1099511628211ull;
}

TEST(Odometry, GoldenPosesAndWork)
{
    // Pins the odometry path bit for bit: every frame's pose and each
    // kernel's items and bytes (host seconds vary and stay out).
    const Sequence seq = makeSequence(8);
    OdometrySystem system;
    const BenchmarkResult result = runBenchmark(system, seq);
    ASSERT_EQ(result.estimatedPoses.size(), 8u);
    ASSERT_EQ(result.frameWork.size(), 8u);
    uint64_t h = 14695981039346656037ull;
    for (size_t f = 0; f < 8; ++f) {
        fnv1a(h, result.estimatedPoses[f].m,
              sizeof(result.estimatedPoses[f].m));
        fnv1a(h, result.frameWork[f].items.data(),
              sizeof(result.frameWork[f].items));
        fnv1a(h, result.frameWork[f].bytes.data(),
              sizeof(result.frameWork[f].bytes));
    }
    EXPECT_EQ(h, 0x548ed5fda8e8ca4eull) << std::hex << h;
}

TEST(Odometry, PolymorphicUseThroughInterface)
{
    const Sequence seq = makeSequence(3);
    std::unique_ptr<SlamSystem> system =
        std::make_unique<OdometrySystem>();
    const BenchmarkResult result = runBenchmark(*system, seq);
    EXPECT_EQ(result.frames, 3u);
}

} // namespace
