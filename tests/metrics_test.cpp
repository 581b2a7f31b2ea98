/**
 * @file
 * Tests for the accuracy (ATE) and timing metrics.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "math/se3.hpp"
#include "metrics/ate.hpp"
#include "metrics/timing.hpp"
#include "support/rng.hpp"

namespace {

using namespace slambench::metrics;
using slambench::math::Mat3d;
using slambench::math::Mat4d;
using slambench::math::Mat4f;
using slambench::math::Vec3d;
using slambench::support::Rng;

std::vector<Vec3d>
randomCloud(Rng &rng, size_t n)
{
    std::vector<Vec3d> pts;
    pts.reserve(n);
    for (size_t i = 0; i < n; ++i)
        pts.push_back({rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2)});
    return pts;
}

// --- alignRigid ---

TEST(AlignRigid, IdentityForMatchingSets)
{
    Rng rng(1);
    const auto pts = randomCloud(rng, 30);
    const Mat4d t = alignRigid(pts, pts);
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            EXPECT_NEAR(t(r, c), r == c ? 1.0 : 0.0, 1e-9);
}

class AlignRigidRecovers : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(AlignRigidRecovers, RandomRigidTransform)
{
    Rng rng(GetParam());
    const auto source = randomCloud(rng, 50);
    const Mat3d rot = slambench::math::expSo3(
        Vec3d{rng.normal(), rng.normal(), rng.normal()}.normalized() *
        rng.uniform(0.0, 3.0));
    const Vec3d trans{rng.uniform(-5, 5), rng.uniform(-5, 5),
                      rng.uniform(-5, 5)};
    const Mat4d truth = Mat4d::fromRt(rot, trans);

    std::vector<Vec3d> target;
    for (const Vec3d &p : source)
        target.push_back(truth.transformPoint(p));

    const Mat4d estimated = alignRigid(source, target);
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            EXPECT_NEAR(estimated(r, c), truth(r, c), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignRigidRecovers,
                         ::testing::Values(2, 3, 5, 7, 11, 13, 17));

TEST(AlignRigid, NoisyCorrespondencesStillClose)
{
    Rng rng(23);
    const auto source = randomCloud(rng, 200);
    const Mat4d truth =
        Mat4d::fromRt(slambench::math::rotationY(0.7), {1, 2, 3});
    std::vector<Vec3d> target;
    for (const Vec3d &p : source) {
        Vec3d q = truth.transformPoint(p);
        q += Vec3d{rng.normal(0, 0.01), rng.normal(0, 0.01),
                   rng.normal(0, 0.01)};
        target.push_back(q);
    }
    const Mat4d estimated = alignRigid(source, target);
    EXPECT_NEAR((estimated.translationPart() -
                 truth.translationPart())
                    .norm(),
                0.0, 0.02);
}

// --- computeAte ---

TEST(Ate, ZeroForIdenticalTrajectories)
{
    Rng rng(31);
    std::vector<Mat4f> traj;
    for (int i = 0; i < 20; ++i)
        traj.push_back(Mat4f::translation(
            {static_cast<float>(i) * 0.1f, 0.0f, 0.0f}));
    const AteResult ate = computeAte(traj, traj, false);
    EXPECT_DOUBLE_EQ(ate.maxAte, 0.0);
    EXPECT_DOUBLE_EQ(ate.rmse, 0.0);
    EXPECT_EQ(ate.frames, 20u);
}

TEST(Ate, ConstantOffsetReportedUnaligned)
{
    std::vector<Mat4f> gt, est;
    for (int i = 0; i < 10; ++i) {
        gt.push_back(Mat4f::translation(
            {static_cast<float>(i), 0.0f, 0.0f}));
        est.push_back(Mat4f::translation(
            {static_cast<float>(i), 0.5f, 0.0f}));
    }
    const AteResult raw = computeAte(est, gt, false);
    EXPECT_NEAR(raw.maxAte, 0.5, 1e-6);
    EXPECT_NEAR(raw.meanAte, 0.5, 1e-6);
    // With alignment the offset disappears.
    const AteResult aligned = computeAte(est, gt, true);
    EXPECT_NEAR(aligned.maxAte, 0.0, 1e-6);
}

TEST(Ate, StatisticsAreConsistent)
{
    Rng rng(37);
    std::vector<Mat4f> gt, est;
    for (int i = 0; i < 50; ++i) {
        const float x = static_cast<float>(i) * 0.05f;
        gt.push_back(Mat4f::translation({x, 0, 0}));
        est.push_back(Mat4f::translation(
            {x + static_cast<float>(rng.normal(0, 0.02)), 0, 0}));
    }
    const AteResult ate = computeAte(est, gt, false);
    EXPECT_GE(ate.maxAte, ate.rmse);
    EXPECT_GE(ate.rmse, ate.meanAte * 0.99);
    EXPECT_EQ(ate.perFrame.size(), 50u);
    double max_err = 0.0;
    for (double e : ate.perFrame)
        max_err = std::max(max_err, e);
    EXPECT_DOUBLE_EQ(max_err, ate.maxAte);
}

TEST(Ate, MedianIsRobustToOneOutlier)
{
    std::vector<Mat4f> gt(21), est(21);
    est[10] = Mat4f::translation({5.0f, 0.0f, 0.0f}); // one outlier
    const AteResult ate = computeAte(est, gt, false);
    EXPECT_NEAR(ate.medianAte, 0.0, 1e-9);
    EXPECT_NEAR(ate.maxAte, 5.0, 1e-5);
}

TEST(Ate, MedianAveragesMiddlePairForEvenLength)
{
    // Per-frame errors 1,2,3,10 -> median is (2+3)/2 = 2.5 (the TUM
    // evaluate_ate convention), not the upper-middle element 3.
    std::vector<Vec3d> gt(4, Vec3d{}), est(4, Vec3d{});
    est[0] = {1.0, 0.0, 0.0};
    est[1] = {2.0, 0.0, 0.0};
    est[2] = {3.0, 0.0, 0.0};
    est[3] = {10.0, 0.0, 0.0};
    const AteResult ate = computeAtePositions(est, gt, false);
    EXPECT_DOUBLE_EQ(ate.medianAte, 2.5);
}

TEST(Ate, MedianIsMiddleElementForOddLength)
{
    std::vector<Vec3d> gt(3, Vec3d{}), est(3, Vec3d{});
    est[0] = {1.0, 0.0, 0.0};
    est[1] = {7.0, 0.0, 0.0};
    est[2] = {2.0, 0.0, 0.0};
    const AteResult ate = computeAtePositions(est, gt, false);
    EXPECT_DOUBLE_EQ(ate.medianAte, 2.0);
}

TEST(Ate, MedianOfTwoFramesIsTheirMean)
{
    std::vector<Vec3d> gt(2, Vec3d{}), est(2, Vec3d{});
    est[0] = {1.0, 0.0, 0.0};
    est[1] = {3.0, 0.0, 0.0};
    const AteResult ate = computeAtePositions(est, gt, false);
    EXPECT_DOUBLE_EQ(ate.medianAte, 2.0);
}

TEST(Ate, EmptyTrajectoriesAreHandled)
{
    const AteResult ate = computeAte({}, {}, false);
    EXPECT_EQ(ate.frames, 0u);
    EXPECT_DOUBLE_EQ(ate.maxAte, 0.0);
}

// --- RPE ---

TEST(Rpe, ZeroForIdenticalTrajectories)
{
    std::vector<Mat4f> traj;
    for (int i = 0; i < 10; ++i)
        traj.push_back(Mat4f::translation(
            {static_cast<float>(i) * 0.1f, 0.0f, 0.0f}));
    const RpeResult rpe = computeRpe(traj, traj, 1);
    EXPECT_EQ(rpe.pairs, 9u);
    EXPECT_NEAR(rpe.translationRmse, 0.0, 1e-7);
    EXPECT_NEAR(rpe.rotationRmse, 0.0, 1e-6);
}

TEST(Rpe, ConstantOffsetIsInvisible)
{
    // A constant rigid offset between trajectories does not affect
    // relative motion: RPE must be ~0 where ATE is large.
    std::vector<Mat4f> gt, est;
    const Mat4f offset = Mat4f::translation({5.0f, -2.0f, 1.0f});
    for (int i = 0; i < 12; ++i) {
        const Mat4f pose = Mat4f::translation(
            {static_cast<float>(i) * 0.05f, 0.0f, 0.0f});
        gt.push_back(pose);
        est.push_back(offset * pose);
    }
    const RpeResult rpe = computeRpe(est, gt, 1);
    EXPECT_NEAR(rpe.translationRmse, 0.0, 1e-6);
    const AteResult ate = computeAte(est, gt, false);
    EXPECT_GT(ate.maxAte, 1.0);
}

TEST(Rpe, DetectsPerFrameDrift)
{
    // Estimated trajectory drifts 1 mm per frame along x.
    std::vector<Mat4f> gt(20), est;
    for (int i = 0; i < 20; ++i)
        est.push_back(Mat4f::translation(
            {static_cast<float>(i) * 0.001f, 0.0f, 0.0f}));
    const RpeResult rpe = computeRpe(est, gt, 1);
    EXPECT_NEAR(rpe.translationRmse, 0.001, 1e-6);
    EXPECT_NEAR(rpe.translationMax, 0.001, 1e-6);
}

TEST(Rpe, DeltaScalesTheInterval)
{
    std::vector<Mat4f> gt(20), est;
    for (int i = 0; i < 20; ++i)
        est.push_back(Mat4f::translation(
            {static_cast<float>(i) * 0.001f, 0.0f, 0.0f}));
    const RpeResult rpe5 = computeRpe(est, gt, 5);
    EXPECT_NEAR(rpe5.translationRmse, 0.005, 1e-6);
    EXPECT_EQ(rpe5.pairs, 15u);
}

TEST(Rpe, RotationErrorMeasured)
{
    std::vector<Mat4f> gt(10), est;
    for (int i = 0; i < 10; ++i) {
        // 0.01 rad of extra yaw per frame.
        est.push_back(Mat4f::fromRt(
            slambench::math::rotationY(0.01f * static_cast<float>(i)),
            {0, 0, 0}));
    }
    const RpeResult rpe = computeRpe(est, gt, 1);
    EXPECT_NEAR(rpe.rotationRmse, 0.01, 1e-5);
}

TEST(Rpe, TooFewFramesIsSafe)
{
    std::vector<Mat4f> one(1);
    const RpeResult rpe = computeRpe(one, one, 1);
    EXPECT_EQ(rpe.pairs, 0u);
    EXPECT_DOUBLE_EQ(rpe.translationRmse, 0.0);
}

// --- timing ---

TEST(Timing, SummaryStatistics)
{
    const std::vector<double> frames{0.01, 0.02, 0.03, 0.04};
    const TimingSummary s = summarizeTiming(frames);
    EXPECT_EQ(s.frameSeconds.count(), 4u);
    EXPECT_NEAR(s.frameSeconds.mean(), 0.025, 1e-12);
    EXPECT_NEAR(s.totalSeconds, 0.1, 1e-12);
    EXPECT_NEAR(s.meanFps(), 40.0, 1e-9);
    EXPECT_NEAR(s.worstFps(), 25.0, 1e-9);
    EXPECT_GT(s.p95Seconds, 0.03);
}

TEST(Timing, EmptyIsSafe)
{
    const TimingSummary s = summarizeTiming({});
    EXPECT_DOUBLE_EQ(s.meanFps(), 0.0);
    EXPECT_DOUBLE_EQ(s.totalSeconds, 0.0);
}

TEST(Timing, DescribeMentionsFps)
{
    const TimingSummary s = summarizeTiming({0.1, 0.1});
    const std::string text = describeTiming(s);
    EXPECT_NE(text.find("10.0 FPS"), std::string::npos);
    EXPECT_NE(text.find("2 frames"), std::string::npos);
}

} // namespace

// --- support::metrics registry, histogram, and run report ---

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace sm = slambench::support::metrics;

TEST(MetricsRegistry, CounterGaugeBasics)
{
    sm::Counter &counter =
        sm::Registry::instance().counter("test.basics.counter");
    counter.reset();
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);

    sm::Gauge &gauge =
        sm::Registry::instance().gauge("test.basics.gauge");
    gauge.reset();
    gauge.set(1.5);
    gauge.setMax(0.5); // lower: ignored
    EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
    gauge.setMax(2.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
}

TEST(MetricsRegistry, HandlesAreStableAcrossReset)
{
    sm::Counter &before =
        sm::Registry::instance().counter("test.stable.counter");
    before.add(7);
    sm::Registry::instance().resetValues();
    EXPECT_EQ(before.value(), 0u);
    sm::Counter &after =
        sm::Registry::instance().counter("test.stable.counter");
    EXPECT_EQ(&before, &after);
}

TEST(MetricsRegistry, ConcurrentCounterIncrementsAreExact)
{
    slambench::support::ThreadPool pool(4);
    sm::Counter &counter =
        sm::Registry::instance().counter("test.concurrent.counter");
    counter.reset();
    constexpr size_t kIncrements = 100000;
    pool.parallelFor(0, kIncrements,
                     [&](size_t) { counter.add(1); });
    EXPECT_EQ(counter.value(), kIncrements);
}

TEST(MetricsRegistry, ConcurrentHistogramRecordsAreExact)
{
    slambench::support::ThreadPool pool(4);
    sm::LatencyHistogram &histogram =
        sm::Registry::instance().histogram("test.concurrent.hist");
    histogram.reset();
    constexpr size_t kSamples = 20000;
    pool.parallelFor(0, kSamples, [&](size_t i) {
        histogram.record(1e-3 * (1.0 + static_cast<double>(i % 7)));
    });
    EXPECT_EQ(histogram.count(), kSamples);
    uint64_t bucket_total = 0;
    for (size_t i = 0; i < histogram.numBuckets(); ++i)
        bucket_total += histogram.bucketCount(i);
    EXPECT_EQ(bucket_total, kSamples);
    EXPECT_NEAR(histogram.sum(), histogram.mean() * kSamples, 1e-6);
}

TEST(LatencyHistogram, BucketsAreContiguous)
{
    sm::LatencyHistogram histogram;
    EXPECT_DOUBLE_EQ(histogram.bucketLo(0), 0.0);
    for (size_t i = 0; i + 1 < histogram.numBuckets(); ++i) {
        EXPECT_DOUBLE_EQ(histogram.bucketHi(i),
                         histogram.bucketLo(i + 1))
            << "gap between buckets " << i << " and " << i + 1;
        EXPECT_LT(histogram.bucketLo(i), histogram.bucketHi(i));
    }
    EXPECT_TRUE(std::isinf(
        histogram.bucketHi(histogram.numBuckets() - 1)));
    EXPECT_NEAR(histogram.bucketLo(1), 1e-7, 1e-18);
}

TEST(LatencyHistogram, BoundaryValuesLandInTheRightBuckets)
{
    sm::LatencyHistogram histogram;
    histogram.record(0.0);    // underflow
    histogram.record(-1.0);   // negative: underflow, not a crash
    histogram.record(1e-9);   // below the first bounded bucket
    histogram.record(1e9);    // beyond the last bounded bucket
    EXPECT_EQ(histogram.bucketCount(0), 3u);
    EXPECT_EQ(histogram.bucketCount(histogram.numBuckets() - 1), 1u);
    EXPECT_EQ(histogram.count(), 4u);

    // A value safely inside a middle bucket is counted exactly once,
    // in a bucket whose range contains it.
    sm::LatencyHistogram mid;
    const double sample = 1.5e-3;
    mid.record(sample);
    size_t hits = 0;
    for (size_t i = 0; i < mid.numBuckets(); ++i) {
        if (mid.bucketCount(i) == 0)
            continue;
        ++hits;
        EXPECT_LE(mid.bucketLo(i), sample);
        EXPECT_GT(mid.bucketHi(i), sample);
    }
    EXPECT_EQ(hits, 1u);
}

TEST(LatencyHistogram, StatsAndQuantilesBehave)
{
    sm::LatencyHistogram histogram;
    EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
    EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);

    for (int i = 1; i <= 100; ++i)
        histogram.record(1e-3 * i); // 1ms .. 100ms
    EXPECT_EQ(histogram.count(), 100u);
    EXPECT_DOUBLE_EQ(histogram.min(), 1e-3);
    EXPECT_DOUBLE_EQ(histogram.max(), 0.1);
    EXPECT_NEAR(histogram.mean(), 0.0505, 1e-12);

    const double p50 = histogram.quantile(0.50);
    const double p90 = histogram.quantile(0.90);
    const double p99 = histogram.quantile(0.99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, histogram.max());
    EXPECT_GE(p50, histogram.min());
    // Bucketed quantiles are coarse; half-a-bucket (~17%) accuracy.
    EXPECT_NEAR(p50, 0.050, 0.017);
    EXPECT_NEAR(p90, 0.090, 0.030);
}

TEST(LatencyHistogram, TopPopulatedBucketTracksTail)
{
    sm::LatencyHistogram histogram;
    // Empty histogram: every sample would be "the tail" (>= is
    // trivially false against numBuckets()... check the sentinel).
    EXPECT_EQ(histogram.highestPopulatedBucket(),
              histogram.numBuckets());

    histogram.record(1e-3);
    histogram.record(2e-3);
    histogram.record(0.5); // the tail sample
    const size_t top = histogram.highestPopulatedBucket();
    EXPECT_EQ(top, histogram.bucketIndexFor(0.5));
    // The tail-retention predicate: the slow sample is in the top
    // populated bucket, the fast ones are not.
    EXPECT_GE(histogram.bucketIndexFor(0.5), top);
    EXPECT_LT(histogram.bucketIndexFor(1e-3), top);
    EXPECT_LT(histogram.bucketIndexFor(2e-3), top);

    // A new slower sample moves the top bucket up.
    histogram.record(10.0);
    EXPECT_GT(histogram.highestPopulatedBucket(), top);
    // Overflow samples land in (and define) the last bucket.
    histogram.record(1e9);
    EXPECT_EQ(histogram.highestPopulatedBucket(),
              histogram.numBuckets() - 1);
}

// Minimal recursive-descent JSON reader for the round-trip test.
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &
    at(const std::string &key) const
    {
        static const JsonValue missing;
        const auto it = object.find(key);
        return it == object.end() ? missing : it->second;
    }
};

class JsonReader
{
  public:
    explicit JsonReader(std::string text) : text_(std::move(text)) {}

    bool
    parse(JsonValue &out)
    {
        pos_ = 0;
        const bool ok = parseValue(out);
        skipSpace();
        return ok && pos_ == text_.size();
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\' && pos_ < text_.size()) {
                const char esc = text_[pos_++];
                switch (esc) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'u':
                    pos_ += 4; // tests only emit ASCII escapes
                    c = '?';
                    break;
                default: c = esc;
                }
            }
            out += c;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{') {
            out.type = JsonValue::Type::Object;
            ++pos_;
            skipSpace();
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipSpace();
                std::string key;
                if (!parseString(key))
                    return false;
                skipSpace();
                if (text_[pos_] != ':')
                    return false;
                ++pos_;
                JsonValue child;
                if (!parseValue(child))
                    return false;
                out.object.emplace(std::move(key), std::move(child));
                skipSpace();
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return false;
            }
        }
        if (c == '[') {
            out.type = JsonValue::Type::Array;
            ++pos_;
            skipSpace();
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                JsonValue child;
                if (!parseValue(child))
                    return false;
                out.array.push_back(std::move(child));
                skipSpace();
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return false;
            }
        }
        if (c == '"') {
            out.type = JsonValue::Type::String;
            return parseString(out.text);
        }
        if (literal("true")) {
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.type = JsonValue::Type::Bool;
            return true;
        }
        if (literal("null"))
            return true;
        out.type = JsonValue::Type::Number;
        char *end = nullptr;
        out.number = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_)
            return false;
        pos_ = static_cast<size_t>(end - text_.c_str());
        return true;
    }

    std::string text_;
    size_t pos_ = 0;
};

TEST(RunReport, JsonRoundTripParses)
{
    const std::string json_path =
        ::testing::TempDir() + "metrics_roundtrip.json";
    const std::string csv_path =
        ::testing::TempDir() + "metrics_roundtrip.csv";
    sm::RunSession session(json_path, csv_path, "metrics_test");
    ASSERT_TRUE(session.active());
    session.setParam("vr", "256");
    session.setParam("csr", "1");
    session.setSummary("speedup", 2.5);
    for (int i = 0; i < 5; ++i) {
        sm::FrameTelemetry t;
        t.label = "unit \"quoted\" label";
        t.frame = static_cast<uint64_t>(i);
        t.wallSeconds = 0.010 + 0.001 * i;
        t.ateMeters = 0.001 * i;
        t.tracked = true;
        t.integrated = (i % 2) == 0;
        session.addFrame(t);
    }
    EXPECT_EQ(session.frameCount(), 5u);

    std::ostringstream os;
    session.writeJson(os);

    JsonValue root;
    ASSERT_TRUE(JsonReader(os.str()).parse(root))
        << "unparseable report:\n"
        << os.str();
    ASSERT_EQ(root.type, JsonValue::Type::Object);

    EXPECT_EQ(root.at("schema").text, "slambench-run-report");
    EXPECT_EQ(root.at("schema_version").number,
              sm::RunSession::kSchemaVersion);
    EXPECT_EQ(root.at("generator").text, "metrics_test");
    EXPECT_FALSE(root.at("git_describe").text.empty());
    EXPECT_EQ(root.at("config").at("vr").text, "256");

    const JsonValue &run = root.at("run");
    EXPECT_EQ(run.at("frames").number, 5.0);
    EXPECT_EQ(run.at("tracked_frames").number, 5.0);
    EXPECT_EQ(run.at("integrated_frames").number, 3.0);
    EXPECT_GT(run.at("peak_rss_bytes").number, 0.0);

    const JsonValue &summary = root.at("summary");
    EXPECT_NEAR(summary.at("frame_wall_seconds_mean").number, 0.012,
                1e-9);
    EXPECT_NEAR(summary.at("ate_max_m").number, 0.004, 1e-9);
    EXPECT_DOUBLE_EQ(summary.at("tracked_fraction").number, 1.0);
    EXPECT_DOUBLE_EQ(summary.at("speedup").number, 2.5);

    // Every histogram's bucket counts must sum to its count and its
    // sum must reconcile with mean * count.
    for (const auto &[name, histogram] :
         root.at("histograms").object) {
        const double count = histogram.at("count").number;
        double bucket_total = 0.0;
        for (const JsonValue &bucket :
             histogram.at("buckets").array) {
            ASSERT_EQ(bucket.array.size(), 3u) << name;
            bucket_total += bucket.array[2].number;
        }
        EXPECT_DOUBLE_EQ(bucket_total, count) << name;
        EXPECT_NEAR(histogram.at("sum").number,
                    histogram.at("mean").number * count,
                    1e-9 * (1.0 + std::abs(
                                      histogram.at("sum").number)))
            << name;
    }

    // CSV export: header plus one row per frame, quoting preserved.
    std::ostringstream cs;
    session.writeFramesCsv(cs);
    std::vector<std::string> lines;
    std::istringstream ls(cs.str());
    for (std::string line; std::getline(ls, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 6u);
    EXPECT_EQ(lines[0],
              "label,frame,wall_ms,preprocess_ms,track_ms,"
              "integrate_ms,raycast_ms,ate_m,tracked,integrated,"
              "sim_joules,rss_peak_bytes,sim_seconds");
    EXPECT_NE(lines[1].find("\"unit \"\"quoted\"\" label\""),
              std::string::npos);

    session.finish(); // writes the temp files; also idempotent
    session.finish();
}

TEST(RunReport, InactiveSessionRecordsNothing)
{
    sm::RunSession session;
    EXPECT_FALSE(session.active());
    sm::FrameTelemetry t;
    session.addFrame(t);
    session.setParam("vr", "64");
    session.setSummary("x", 1.0);
    EXPECT_EQ(session.frameCount(), 0u);
    session.finish(); // no-op, no crash
}

TEST(RunReport, StreamedCsvEqualsWriteFramesCsvWithKernelColumns)
{
    // The streamed --frames-csv file and writeFramesCsv() are one
    // table, kernel columns included: sim_seconds, then
    // kernel_<name>_ms (host seconds x 1e3) per kernel name, then
    // kernel_<name>_items; a row without kernel values reads 0.
    const std::string csv_path =
        ::testing::TempDir() + "metrics_kernel_columns.csv";
    std::string written;
    {
        sm::RunSession session("", csv_path, "metrics_test",
                               {"alpha", "beta"});
        sm::FrameTelemetry t;
        t.simSeconds = 0.125;
        t.kernelSeconds = {0.25, 0.5};
        t.kernelItems = {7.0, 3.0};
        session.addFrame(t);
        sm::FrameTelemetry bare;
        bare.frame = 1;
        session.addFrame(bare);
        std::ostringstream os;
        session.writeFramesCsv(os);
        written = os.str();
    }
    std::ifstream in(csv_path);
    std::stringstream streamed;
    streamed << in.rdbuf();
    std::remove(csv_path.c_str());
    EXPECT_EQ(streamed.str(), written);

    std::vector<std::string> lines;
    std::istringstream ls(written);
    for (std::string line; std::getline(ls, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0],
              "label,frame,wall_ms,preprocess_ms,track_ms,"
              "integrate_ms,raycast_ms,ate_m,tracked,integrated,"
              "sim_joules,rss_peak_bytes,sim_seconds,"
              "kernel_alpha_ms,kernel_beta_ms,"
              "kernel_alpha_items,kernel_beta_items");
    EXPECT_EQ(lines[1], "run,0,0,0,0,0,0,0,0,0,0,0,0.125,250,500,7,3");
    EXPECT_EQ(lines[2], "run,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0");
}

TEST(RunReport, ProcessStatsAreSane)
{
    EXPECT_GT(sm::peakRssBytes(), 0.0);
    EXPECT_GE(sm::processCpuSeconds(), 0.0);
    const uint64_t a = slambench::metrics::now_ns();
    const uint64_t b = slambench::metrics::now_ns();
    EXPECT_GE(b, a);
}
