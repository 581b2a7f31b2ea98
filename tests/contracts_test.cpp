/**
 * @file
 * Contract tests: the documented failure behavior of the public API.
 * panic() paths (internal invariant violations) abort; fatal() paths
 * (user errors) exit(1). Both are death tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "dataset/generator.hpp"
#include "hypermapper/param_space.hpp"
#include "kfusion/pipeline.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "support/csv.hpp"
#include "support/stats.hpp"

namespace {

using namespace slambench;

TEST(Contracts, CsvTooManyCellsPanics)
{
    EXPECT_DEATH(
        {
            std::ostringstream out;
            support::CsvWriter csv(out, {"only"});
            csv.beginRow().cell("a").cell("b");
        },
        "more cells than header");
}

TEST(Contracts, CsvShortRowPanics)
{
    // The whole writer lives inside the death statement: its
    // destructor also flushes (and would re-panic in the parent).
    EXPECT_DEATH(
        {
            std::ostringstream out;
            support::CsvWriter csv(out, {"a", "b"});
            csv.beginRow().cell("only one");
            csv.endRow();
        },
        "fewer cells");
}

TEST(Contracts, HistogramRejectsBadRange)
{
    EXPECT_DEATH(support::Histogram(1.0, 1.0, 4), "hi must be > lo");
    EXPECT_DEATH(support::Histogram(0.0, 1.0, 0), "bins");
}

TEST(Contracts, MlDatasetRowSizeMismatchPanics)
{
    ml::Dataset data(3);
    EXPECT_DEATH(data.addRow({1.0, 2.0}, 0.0),
                 "feature count mismatch");
}

TEST(Contracts, UnfittedTreePredictPanics)
{
    ml::DecisionTree tree;
    EXPECT_DEATH(tree.predict({1.0}), "not fitted");
}

TEST(Contracts, UnfittedForestPredictPanics)
{
    ml::RandomForest forest;
    EXPECT_DEATH(forest.predict({1.0}), "not fitted");
}

TEST(Contracts, EmptyForestFitPanics)
{
    ml::RandomForest forest;
    ml::Dataset empty(1);
    support::Rng rng(1);
    EXPECT_DEATH(forest.fit(empty, ml::ForestOptions{}, rng),
                 "empty dataset");
}

TEST(Contracts, UnknownParameterNameIsFatal)
{
    hypermapper::ParameterSpace space;
    space.addReal("x", 0.0, 1.0, 0.5);
    EXPECT_EXIT(space.indexOf("nope"),
                ::testing::ExitedWithCode(1), "unknown parameter");
}

TEST(Contracts, EmptyOrdinalIsFatal)
{
    hypermapper::ParameterSpace space;
    EXPECT_EXIT(space.addOrdinal("o", {}, 0.0),
                ::testing::ExitedWithCode(1), "needs values");
}

TEST(Contracts, UnsortedOrdinalIsFatal)
{
    hypermapper::ParameterSpace space;
    EXPECT_EXIT(space.addOrdinal("o", {2.0, 1.0}, 1.0),
                ::testing::ExitedWithCode(1), "must ascend");
}

TEST(Contracts, InvalidKFusionConfigIsFatal)
{
    kfusion::KFusionConfig config;
    config.computeSizeRatio = 5; // not a power of two
    const auto k = math::CameraIntrinsics::fromFov(64, 48, 1.0f);
    EXPECT_EXIT(kfusion::KFusion(config, k),
                ::testing::ExitedWithCode(1), "invalid configuration");
}

TEST(Contracts, OversizedRatioForTinyImagesIsFatal)
{
    kfusion::KFusionConfig config;
    config.computeSizeRatio = 8;
    const auto k = math::CameraIntrinsics::fromFov(32, 24, 1.0f);
    EXPECT_EXIT(kfusion::KFusion(config, k),
                ::testing::ExitedWithCode(1), "too small");
}

TEST(Contracts, DegenerateSequenceSpecIsFatal)
{
    // Each bad field fails before anything is rendered; none is
    // silently coerced (a speedup <= 0 used to mean 1x).
    const auto expect_fatal = [](const char *what, auto mutate,
                                 const char *message) {
        dataset::SequenceSpec spec;
        spec.width = 8;
        spec.height = 6;
        spec.numFrames = 1;
        mutate(spec);
        EXPECT_EXIT(dataset::generateSequence(spec),
                    ::testing::ExitedWithCode(1), message)
            << what;
    };
    using Spec = dataset::SequenceSpec;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    expect_fatal("width 0", [](Spec &s) { s.width = 0; }, "image size");
    expect_fatal("height 0", [](Spec &s) { s.height = 0; }, "image size");
    expect_fatal("0 frames", [](Spec &s) { s.numFrames = 0; },
                 "numFrames");
    expect_fatal("fps 0", [](Spec &s) { s.fps = 0.0; }, "fps");
    expect_fatal("fps -30", [](Spec &s) { s.fps = -30.0; }, "fps");
    expect_fatal("fps nan", [nan](Spec &s) { s.fps = nan; }, "fps");
    expect_fatal("fps inf", [inf](Spec &s) { s.fps = inf; }, "fps");
    expect_fatal("speedup 0", [](Spec &s) { s.trajectorySpeedup = 0.0; },
                 "trajectorySpeedup");
    expect_fatal("speedup -2",
                 [](Spec &s) { s.trajectorySpeedup = -2.0; },
                 "trajectorySpeedup");
    expect_fatal("speedup nan",
                 [nan](Spec &s) { s.trajectorySpeedup = nan; },
                 "trajectorySpeedup");
    expect_fatal("speedup inf",
                 [inf](Spec &s) { s.trajectorySpeedup = inf; },
                 "trajectorySpeedup");
    expect_fatal("hfov 0", [](Spec &s) { s.hfovRad = 0.0f; }, "hfovRad");
    expect_fatal("hfov pi",
                 [](Spec &s) { s.hfovRad = static_cast<float>(M_PI); },
                 "hfovRad");
    expect_fatal("hfov nan",
                 [](Spec &s) {
                     s.hfovRad = std::numeric_limits<float>::quiet_NaN();
                 },
                 "hfovRad");
}

TEST(Contracts, ValidSequenceSpecRenders)
{
    // The bounds above are exclusive only where the spec says so.
    dataset::SequenceSpec spec;
    spec.width = 1;
    spec.height = 1;
    spec.numFrames = 1;
    spec.hfovRad = 3.1f;
    spec.trajectorySpeedup = 1e-3;
    EXPECT_EQ(dataset::generateSequence(spec).frames.size(), 1u);
}

TEST(Contracts, CheckCompatibilityReturnsTextNotDeath)
{
    // The query form must NOT terminate; that is its purpose.
    kfusion::KFusionConfig config;
    config.computeSizeRatio = 8;
    const auto k = math::CameraIntrinsics::fromFov(32, 24, 1.0f);
    const std::string problem =
        kfusion::KFusion::checkCompatibility(config, k);
    EXPECT_FALSE(problem.empty());
    config.computeSizeRatio = 1;
    EXPECT_TRUE(
        kfusion::KFusion::checkCompatibility(config, k).empty());
}

} // namespace
