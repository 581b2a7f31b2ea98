/**
 * @file
 * End-to-end tests of the KFusion pipeline orchestrator: tracking
 * quality on short sequences, rate parameters, work accounting, and
 * the GUI render paths.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>

#include "dataset/generator.hpp"
#include "kfusion/pipeline.hpp"
#include "metrics/ate.hpp"
#include "support/metrics.hpp"

namespace {

using namespace slambench::kfusion;
using slambench::dataset::Sequence;
using slambench::dataset::SequenceSpec;
using slambench::math::Mat4f;
using slambench::support::Image;
using slambench::support::Rgb8;

Sequence
smallSequence(size_t frames, bool noise = true, uint64_t seed = 42)
{
    SequenceSpec spec;
    spec.width = 80;
    spec.height = 60;
    spec.numFrames = frames;
    spec.sensorNoise = noise;
    spec.renderRgb = false;
    spec.seed = seed;
    return generateSequence(spec);
}

KFusionConfig
smallConfig()
{
    KFusionConfig config;
    config.volumeResolution = 96;
    config.pyramidIterations = {6, 4, 3};
    return config;
}

TEST(Pipeline, TracksShortSequenceAccurately)
{
    const Sequence seq = smallSequence(10);
    KFusion kf(smallConfig(), seq.intrinsics);
    kf.setPose(seq.groundTruth.pose(0));

    std::vector<Mat4f> estimated;
    for (const auto &frame : seq.frames) {
        const FrameResult r = kf.processFrame(frame.depthMm);
        EXPECT_TRUE(r.tracking.tracked)
            << "frame " << r.frameIndex;
        estimated.push_back(r.pose);
    }
    const auto ate = slambench::metrics::computeAte(
        estimated, seq.groundTruth.poses(), false);
    EXPECT_LT(ate.maxAte, 0.02);
}

TEST(Pipeline, FrameCountAndWorkAccumulate)
{
    const Sequence seq = smallSequence(5);
    KFusion kf(smallConfig(), seq.intrinsics);
    kf.setPose(seq.groundTruth.pose(0));
    for (const auto &frame : seq.frames)
        kf.processFrame(frame.depthMm);
    EXPECT_EQ(kf.frameCount(), 5u);
    EXPECT_EQ(kf.frameWork().size(), 5u);
    EXPECT_GT(kf.totalWork().itemsFor(KernelId::BilateralFilter), 0.0);
    EXPECT_GT(kf.totalWork().itemsFor(KernelId::Integrate), 0.0);
    EXPECT_GT(kf.totalWork().totalHostSeconds(), 0.0);
}

TEST(Pipeline, IntegrationRateSkipsFrames)
{
    const Sequence seq = smallSequence(10);
    KFusionConfig config = smallConfig();
    config.integrationRate = 5;
    KFusion kf(config, seq.intrinsics);
    kf.setPose(seq.groundTruth.pose(0));
    size_t integrations = 0;
    for (const auto &frame : seq.frames) {
        const FrameResult r = kf.processFrame(frame.depthMm);
        integrations += r.integrated;
    }
    // Frames 0-3 always integrate (bootstrap); then only every 5th.
    EXPECT_EQ(integrations, 5u); // frames 0,1,2,3 and 5
}

TEST(Pipeline, TrackingRateSkipsIcp)
{
    const Sequence seq = smallSequence(6);
    KFusionConfig config = smallConfig();
    config.trackingRate = 2;
    KFusion kf(config, seq.intrinsics);
    kf.setPose(seq.groundTruth.pose(0));
    double track_items = 0.0;
    for (const auto &frame : seq.frames) {
        const FrameResult r = kf.processFrame(frame.depthMm);
        if (r.frameIndex % 2 == 1) {
            // Odd frames skip tracking entirely.
            EXPECT_DOUBLE_EQ(r.work.itemsFor(KernelId::Track), 0.0);
        }
        track_items += r.work.itemsFor(KernelId::Track);
    }
    EXPECT_GT(track_items, 0.0);
}

TEST(Pipeline, ComputeSizeRatioShrinksWork)
{
    const Sequence seq = smallSequence(4);
    KFusionConfig c1 = smallConfig();
    KFusionConfig c2 = smallConfig();
    c2.computeSizeRatio = 2;

    KFusion kf1(c1, seq.intrinsics), kf2(c2, seq.intrinsics);
    kf1.setPose(seq.groundTruth.pose(0));
    kf2.setPose(seq.groundTruth.pose(0));
    for (const auto &frame : seq.frames) {
        kf1.processFrame(frame.depthMm);
        kf2.processFrame(frame.depthMm);
    }
    EXPECT_LT(kf2.totalWork().itemsFor(KernelId::BilateralFilter),
              kf1.totalWork().itemsFor(KernelId::BilateralFilter) /
                  3.0);
    EXPECT_EQ(kf2.computeIntrinsics().width, 40u);
}

TEST(Pipeline, VolumeResolutionDrivesIntegrateWork)
{
    const Sequence seq = smallSequence(2);
    KFusionConfig c1 = smallConfig();
    c1.volumeResolution = 64;
    KFusionConfig c2 = smallConfig();
    c2.volumeResolution = 128;

    KFusion kf1(c1, seq.intrinsics), kf2(c2, seq.intrinsics);
    kf1.setPose(seq.groundTruth.pose(0));
    kf2.setPose(seq.groundTruth.pose(0));
    for (const auto &frame : seq.frames) {
        kf1.processFrame(frame.depthMm);
        kf2.processFrame(frame.depthMm);
    }
    // Visited + skipped reconstructs the naive res^3 sweep, which
    // scales exactly 8x between the two resolutions; the visited
    // share alone depends on how much of each volume the frustum
    // covers.
    const auto naive = [](const KFusion &kf) {
        return kf.totalWork().itemsFor(KernelId::Integrate) +
               kf.totalWork().skippedFor(KernelId::Integrate);
    };
    EXPECT_NEAR(naive(kf2) / naive(kf1), 8.0, 0.01);
    EXPECT_GT(kf2.totalWork().itemsFor(KernelId::Integrate),
              kf1.totalWork().itemsFor(KernelId::Integrate));
}

TEST(Pipeline, SequentialAndThreadedProduceSamePoses)
{
    const Sequence seq = smallSequence(5, /*noise=*/false);
    KFusion seq_kf(smallConfig(), seq.intrinsics,
                   Implementation::Sequential);
    KFusion par_kf(smallConfig(), seq.intrinsics,
                   Implementation::Threaded, 3);
    seq_kf.setPose(seq.groundTruth.pose(0));
    par_kf.setPose(seq.groundTruth.pose(0));
    for (const auto &frame : seq.frames) {
        const FrameResult a = seq_kf.processFrame(frame.depthMm);
        const FrameResult b = par_kf.processFrame(frame.depthMm);
        // The reduction order differs, so allow tiny numeric drift.
        EXPECT_NEAR((a.pose.translationPart() -
                     b.pose.translationPart())
                        .norm(),
                    0.0f, 1e-4f);
    }
}

TEST(Pipeline, RenderModelProducesImage)
{
    const Sequence seq = smallSequence(4);
    KFusion kf(smallConfig(), seq.intrinsics);
    kf.setPose(seq.groundTruth.pose(0));
    for (const auto &frame : seq.frames)
        kf.processFrame(frame.depthMm);

    Image<Rgb8> view;
    kf.renderModel(view, kf.pose());
    ASSERT_EQ(view.width(), seq.intrinsics.width);
    // Some pixels must be non-background.
    size_t lit = 0;
    for (size_t i = 0; i < view.size(); ++i)
        lit += !(view[i].r == 20 && view[i].g == 20 &&
                 view[i].b == 28);
    EXPECT_GT(lit, view.size() / 4);
    EXPECT_GT(kf.totalWork().itemsFor(KernelId::RenderVolume), 0.0);
}

TEST(Pipeline, RenderTrackShowsStatuses)
{
    const Sequence seq = smallSequence(3);
    KFusion kf(smallConfig(), seq.intrinsics);
    kf.setPose(seq.groundTruth.pose(0));
    for (const auto &frame : seq.frames)
        kf.processFrame(frame.depthMm);
    Image<Rgb8> track_view;
    kf.renderTrack(track_view);
    EXPECT_EQ(track_view.width(), kf.computeIntrinsics().width);
    size_t ok_pixels = 0;
    for (size_t i = 0; i < track_view.size(); ++i)
        ok_pixels += track_view[i].r == 128;
    EXPECT_GT(ok_pixels, 0u);
}

TEST(Pipeline, RaycastMapsAvailableAfterFirstFrame)
{
    const Sequence seq = smallSequence(2);
    KFusion kf(smallConfig(), seq.intrinsics);
    kf.setPose(seq.groundTruth.pose(0));
    kf.processFrame(seq.frames[0].depthMm);
    size_t hits = 0;
    const auto &vertex = kf.raycastVertex();
    for (size_t i = 0; i < vertex.size(); ++i)
        hits += vertex[i].squaredNorm() > 0.0f;
    EXPECT_GT(hits, vertex.size() / 4);
}

TEST(Pipeline, ResidencyGaugesReadTheHeldVolume)
{
    // The pipeline holds the volume config.volumeBackend names and
    // sets volume.blocks.{allocated,bytes} from its memoryStats()
    // after every integrate, whichever volume it is.
    namespace sm = slambench::support::metrics;
    sm::Gauge &allocated =
        sm::Registry::instance().gauge("volume.blocks.allocated");
    sm::Gauge &bytes = sm::Registry::instance().gauge("volume.blocks.bytes");
    const Sequence seq = smallSequence(1);
    for (const std::string volume : {"dense", "sparse"}) {
        SCOPED_TRACE(volume);
        KFusionConfig config = smallConfig();
        config.volumeBackend = volume;
        allocated.set(-1.0);
        bytes.set(-1.0);
        KFusion kf(config, seq.intrinsics);
        kf.setPose(seq.groundTruth.pose(0));
        ASSERT_TRUE(kf.processFrame(seq.frames[0].depthMm).integrated);

        VolumeMemoryStats stats;
        if (volume == "dense") {
            const auto *dense = std::get_if<TsdfVolume>(&kf.volume());
            ASSERT_NE(dense, nullptr);
            stats = dense->memoryStats();
            const uint64_t vr =
                static_cast<uint64_t>(config.volumeResolution);
            EXPECT_EQ(stats.bytes, vr * vr * vr * sizeof(Voxel));
            EXPECT_EQ(stats.allocatedBlocks, 0u);
        } else {
            const auto *sparse =
                std::get_if<SparseTsdfVolume>(&kf.volume());
            ASSERT_NE(sparse, nullptr);
            stats = sparse->memoryStats();
            EXPECT_GT(stats.allocatedBlocks, 0u);
        }
        EXPECT_EQ(allocated.value(),
                  static_cast<double>(stats.allocatedBlocks));
        EXPECT_EQ(bytes.value(), static_cast<double>(stats.bytes));
    }
}

TEST(PipelineConfig, ValidationCatchesBadValues)
{
    KFusionConfig config;
    config.computeSizeRatio = 3;
    EXPECT_FALSE(config.validate().empty());
    config = KFusionConfig{};
    config.mu = -1.0f;
    EXPECT_FALSE(config.validate().empty());
    config = KFusionConfig{};
    config.pyramidIterations.clear();
    EXPECT_FALSE(config.validate().empty());
    config = KFusionConfig{};
    config.integrationRate = 0;
    EXPECT_FALSE(config.validate().empty());
    config = KFusionConfig{};
    EXPECT_TRUE(config.validate().empty());
}

TEST(PipelineConfig, ToStringMentionsKeyParams)
{
    KFusionConfig config;
    const std::string s = config.toString();
    EXPECT_NE(s.find("vr=256"), std::string::npos);
    EXPECT_NE(s.find("mu=0.1"), std::string::npos);
}

TEST(PipelineConfig, VoxelSizeConsistent)
{
    KFusionConfig config;
    config.volumeSize = 4.8f;
    config.volumeResolution = 256;
    EXPECT_FLOAT_EQ(config.voxelSize(), 4.8f / 256.0f);
}

TEST(WorkCounts, MergeAddsEverything)
{
    WorkCounts a, b;
    a.addItems(KernelId::Track, 10.0);
    a.addBytes(KernelId::Track, 100.0);
    b.addItems(KernelId::Track, 5.0);
    b.addHostSeconds(KernelId::Track, 0.25);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.itemsFor(KernelId::Track), 15.0);
    EXPECT_DOUBLE_EQ(a.bytesFor(KernelId::Track), 100.0);
    EXPECT_DOUBLE_EQ(a.hostSecondsFor(KernelId::Track), 0.25);
}

TEST(WorkCounts, KernelNamesAreUniqueAndStable)
{
    std::set<std::string> names;
    for (size_t k = 0; k < kNumKernels; ++k)
        names.insert(kernelName(static_cast<KernelId>(k)));
    EXPECT_EQ(names.size(), kNumKernels);
    EXPECT_EQ(std::string(kernelName(KernelId::Integrate)),
              "integrate");
}

} // namespace
