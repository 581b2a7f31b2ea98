/**
 * @file
 * Tests for the framework layer: the SlamSystem interface, the
 * benchmark loop, configuration binding, and experiment glue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/benchmark.hpp"
#include "core/cli_options.hpp"
#include "core/config_binding.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/slam_system.hpp"
#include "devices/fleet.hpp"
#include "support/slo_watchdog.hpp"
#include "support/telemetry_server.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

/** Name KernelId test parameters by kernelName(). */
void
PrintTo(KernelId id, std::ostream *os)
{
    *os << kernelName(id);
}

} // namespace slambench::kfusion

namespace {

using namespace slambench::core;
using slambench::dataset::Sequence;
using slambench::dataset::SequenceSpec;
using slambench::devices::DeviceModel;
using slambench::devices::odroidXu3;
using slambench::hypermapper::ParameterSpace;
using slambench::hypermapper::Point;
using slambench::kfusion::KFusionConfig;

Sequence
tinySequence(size_t frames = 6)
{
    SequenceSpec spec;
    spec.width = 64;
    spec.height = 48;
    spec.numFrames = frames;
    spec.renderRgb = false;
    return generateSequence(spec);
}

KFusionConfig
tinyConfig()
{
    KFusionConfig config;
    config.volumeResolution = 64;
    config.pyramidIterations = {5, 3, 2};
    return config;
}

// --- KFusionSystem / benchmark loop ---

TEST(KFusionSystem, NameReflectsImplementation)
{
    KFusionSystem seq(tinyConfig());
    EXPECT_EQ(seq.name(), "kfusion-sequential");
    KFusionSystem par(tinyConfig(),
                      slambench::kfusion::Implementation::Threaded);
    EXPECT_EQ(par.name(), "kfusion-threaded");
}

TEST(Benchmark, RunsAndCollectsAllMetrics)
{
    const Sequence seq = tinySequence();
    KFusionSystem system(tinyConfig());
    const BenchmarkResult result = runBenchmark(system, seq);

    EXPECT_EQ(result.frames, 6u);
    EXPECT_EQ(result.estimatedPoses.size(), 6u);
    EXPECT_EQ(result.frameWork.size(), 6u);
    EXPECT_GT(result.trackedFraction(), 0.8);
    EXPECT_LT(result.ate.maxAte, 0.05);
    EXPECT_GT(result.hostTiming.totalSeconds, 0.0);
    EXPECT_GT(result.totalWork.itemsFor(
                  slambench::kfusion::KernelId::Integrate),
              0.0);
    // Aligned ATE is computed by default and is never worse than 2x
    // the raw ATE on a healthy run.
    EXPECT_GT(result.ateAligned.frames, 0u);
}

TEST(Benchmark, RenderingRateChargesRenderVolume)
{
    const Sequence seq = tinySequence(5);
    KFusionConfig config = tinyConfig();
    config.renderingRate = 2;
    KFusionSystem system(config);
    const BenchmarkResult result = runBenchmark(system, seq);
    // Frames 0, 2, 4 render.
    size_t rendered_frames = 0;
    for (const auto &work : result.frameWork)
        rendered_frames +=
            work.itemsFor(
                slambench::kfusion::KernelId::RenderVolume) > 0.0;
    EXPECT_EQ(rendered_frames, 3u);
}

TEST(Benchmark, MaxAteSloRetainsEveryFrameTrace)
{
    // Flag-only retention (rate 0) and nothing armed but a max-ATE
    // threshold every tracked frame breaches: the bench must keep
    // those frames' request traces as SLO breaches, as serve does.
    // Frame 0 starts at the ground-truth pose (ATE exactly 0), so it
    // breaches nothing and its trace is dropped.
    namespace telemetry = slambench::support::telemetry;
    namespace trace = slambench::support::trace;
    telemetry::SloThresholds thresholds;
    thresholds.maxAteMeters = 1e-12;
    telemetry::SloWatchdog::instance().configure(thresholds);
    trace::RequestTraceOptions trace_options;
    trace_options.sampleRate = 0.0;
    auto &tracer = trace::RequestTracer::instance();
    tracer.configure(trace_options);

    const Sequence seq = tinySequence(3);
    KFusionSystem system(tinyConfig());
    const BenchmarkResult result = runBenchmark(system, seq);
    const uint64_t started = tracer.tracesStarted();
    const std::vector<trace::RetainedTrace> retained =
        tracer.retainedSnapshot();

    tracer.disarm();
    tracer.clear();
    telemetry::SloWatchdog::instance().reset();

    EXPECT_EQ(started, 3u);
    EXPECT_EQ(result.ate.perFrame[0], 0.0);
    ASSERT_EQ(retained.size(), 2u);
    for (const trace::RetainedTrace &trace : retained) {
        EXPECT_NE(trace.frame, 0u);
        EXPECT_TRUE(trace.retention.sloBreach) << trace.frame;
        EXPECT_GT(result.ate.perFrame[trace.frame],
                  thresholds.maxAteMeters)
            << trace.frame;
    }
}

TEST(Benchmark, FrameRowsMatchEndOfRunMetrics)
{
    // The rows completeFrame() builds during the run agree with what
    // the run computes at its end: the live ATE is the unaligned
    // per-frame ATE bit for bit, and the phase split and integrate
    // flag come from each frame's WorkCounts.
    const Sequence seq = tinySequence(6);
    KFusionConfig config = tinyConfig();
    config.integrationRate = 2;
    KFusionSystem system(config);
    const BenchmarkResult result = runBenchmark(system, seq);
    ASSERT_EQ(result.frameRows.size(), 6u);
    for (size_t f = 0; f < result.frameRows.size(); ++f) {
        const auto &row = result.frameRows[f];
        const auto &work = result.frameWork[f];
        EXPECT_EQ(row.frame, f);
        EXPECT_EQ(row.ateMeters, result.ate.perFrame[f]) << f;
        EXPECT_EQ(row.wallSeconds, result.frameSeconds[f]);
        EXPECT_EQ(row.integrated,
                  work.itemsFor(
                      slambench::kfusion::KernelId::Integrate) > 0.0)
            << f;
        EXPECT_EQ(row.integrateSeconds,
                  work.hostSecondsFor(
                      slambench::kfusion::KernelId::Integrate));
        EXPECT_GT(row.preprocessSeconds, 0.0) << f;
        EXPECT_GT(row.rssPeakBytes, 0.0);
    }
    // ir=2 integrates frames 0-3 (bootstrap) and 4; frame 5 skips.
    EXPECT_FALSE(result.frameRows[5].integrated);
    EXPECT_EQ(result.frameRows[5].integrateSeconds, 0.0);
}

TEST(Benchmark, FrameRowsCarryEveryKernelsWork)
{
    // Each row holds its frame's WorkCounts per kernel bit for bit,
    // and the phase fields are sums over the kernel groups.
    using slambench::kfusion::KernelId;
    const Sequence seq = tinySequence(4);
    KFusionSystem system(tinyConfig());
    const BenchmarkResult result = runBenchmark(system, seq);
    ASSERT_EQ(result.frameRows.size(), 4u);
    const auto sum = [](const std::vector<double> &seconds,
                        std::initializer_list<KernelId> ids) {
        double total = 0.0;
        for (const KernelId id : ids)
            total += seconds[static_cast<size_t>(id)];
        return total;
    };
    for (size_t f = 0; f < result.frameRows.size(); ++f) {
        const auto &row = result.frameRows[f];
        const auto &work = result.frameWork[f];
        ASSERT_EQ(row.kernelSeconds.size(),
                  slambench::kfusion::kNumKernels);
        ASSERT_EQ(row.kernelItems.size(),
                  slambench::kfusion::kNumKernels);
        for (size_t k = 0; k < slambench::kfusion::kNumKernels; ++k) {
            EXPECT_EQ(row.kernelSeconds[k], work.hostSeconds[k]) << k;
            EXPECT_EQ(row.kernelItems[k], work.items[k]) << k;
        }
        EXPECT_EQ(row.preprocessSeconds,
                  sum(row.kernelSeconds,
                      {KernelId::Mm2Meters, KernelId::BilateralFilter,
                       KernelId::HalfSample, KernelId::Depth2Vertex,
                       KernelId::Vertex2Normal}));
        EXPECT_EQ(row.trackSeconds,
                  sum(row.kernelSeconds, {KernelId::Track,
                                          KernelId::Reduce,
                                          KernelId::Solve}));
        EXPECT_EQ(row.integrateSeconds,
                  sum(row.kernelSeconds, {KernelId::Integrate}));
        EXPECT_EQ(row.raycastSeconds,
                  sum(row.kernelSeconds,
                      {KernelId::Raycast, KernelId::RenderVolume}));
        // The device cost is appendRunTelemetry's to add.
        EXPECT_EQ(row.simSeconds, 0.0);
        EXPECT_EQ(row.simJoules, 0.0);
    }
}

/** The always-on per-kernel time series of one kernel. */
class KernelSecondsFamily
    : public ::testing::TestWithParam<slambench::kfusion::KernelId>
{
  protected:
    static slambench::support::metrics::LatencyHistogram &
    histogram(slambench::kfusion::KernelId id)
    {
        return slambench::support::metrics::Registry::instance()
            .histogram(slambench::support::telemetry::labeledMetricName(
                "pipeline.kernel_seconds", "kernel",
                slambench::kfusion::kernelName(id)));
    }
};

TEST_P(KernelSecondsFamily, RecordsEveryFrameTheKernelRan)
{
    // completeFrame() records the frame's WorkCounts host seconds of
    // each kernel that ran (items > 0), with no tracer armed: ir=2
    // skips integration on frame 5, which must add no zero sample.
    const size_t k = static_cast<size_t>(GetParam());
    auto &family = histogram(GetParam());
    family.reset();
    const Sequence seq = tinySequence(6);
    KFusionConfig config = tinyConfig();
    config.integrationRate = 2;
    KFusionSystem system(config);
    const BenchmarkResult result = runBenchmark(system, seq);
    ASSERT_EQ(result.frameWork.size(), 6u);

    uint64_t frames_ran = 0;
    double seconds = 0.0;
    for (const auto &work : result.frameWork) {
        if (work.items[k] > 0.0) {
            ++frames_ran;
            seconds += work.hostSeconds[k];
        }
    }
    EXPECT_GT(frames_ran, 0u);
    EXPECT_EQ(family.count(), frames_ran);
    EXPECT_EQ(family.sum(), seconds);
    if (GetParam() == slambench::kfusion::KernelId::Integrate) {
        EXPECT_EQ(frames_ran, 5u);
    }
}

std::vector<slambench::kfusion::KernelId>
everyKernel()
{
    std::vector<slambench::kfusion::KernelId> ids;
    for (size_t k = 0; k < slambench::kfusion::kNumKernels; ++k)
        ids.push_back(static_cast<slambench::kfusion::KernelId>(k));
    return ids;
}

INSTANTIATE_TEST_SUITE_P(
    EveryKernel, KernelSecondsFamily, ::testing::ValuesIn(everyKernel()),
    [](const ::testing::TestParamInfo<slambench::kfusion::KernelId>
           &info) {
        return std::string(slambench::kfusion::kernelName(info.param));
    });

// --- config binding ---

TEST(ConfigBinding, SpaceIsTheAlgorithmicParametersPlusImplementation)
{
    // The paper's ten algorithmic parameters and the kernel
    // implementation; the map data structure moves no objective, so
    // it is not a dimension.
    const ParameterSpace space = kfusionParameterSpace();
    const std::vector<std::string> expected = {
        "compute_size_ratio", "icp_threshold",    "mu",
        "integration_rate",   "volume_resolution", "pyramid_level0",
        "pyramid_level1",     "pyramid_level2",    "tracking_rate",
        "rendering_rate",     "implementation"};
    std::vector<std::string> names;
    for (size_t i = 0; i < space.size(); ++i)
        names.push_back(space.param(i).name);
    EXPECT_EQ(names, expected);
    // Defaults decode to the default KFusionConfig.
    const KFusionConfig config =
        pointToConfig(space, space.defaultPoint());
    const KFusionConfig reference;
    EXPECT_EQ(config.computeSizeRatio, reference.computeSizeRatio);
    EXPECT_EQ(config.volumeResolution, reference.volumeResolution);
    EXPECT_EQ(config.integrationRate, reference.integrationRate);
    EXPECT_EQ(config.pyramidIterations, reference.pyramidIterations);
    EXPECT_FLOAT_EQ(config.mu, reference.mu);
    EXPECT_EQ(config.modeledImplementation,
              reference.modeledImplementation);
    EXPECT_EQ(config.kernelBackend, reference.kernelBackend);
    EXPECT_EQ(config.volumeBackend, reference.volumeBackend);
}

TEST(ConfigBinding, RoundTripThroughPoint)
{
    const ParameterSpace space = kfusionParameterSpace();
    KFusionConfig config;
    config.computeSizeRatio = 4;
    config.volumeResolution = 96;
    config.mu = 0.15f;
    config.integrationRate = 7;
    config.pyramidIterations = {8, 4, 2};
    config.trackingRate = 2;
    config.renderingRate = 6;
    config.modeledImplementation = 1;
    config.kernelBackend = "scalar";
    const Point p = configToPoint(space, config);
    const KFusionConfig decoded = pointToConfig(space, p);
    EXPECT_EQ(decoded.computeSizeRatio, 4);
    EXPECT_EQ(decoded.volumeResolution, 96);
    EXPECT_NEAR(decoded.mu, 0.15f, 1e-6f);
    EXPECT_EQ(decoded.integrationRate, 7);
    EXPECT_EQ(decoded.pyramidIterations,
              (std::vector<int>{8, 4, 2}));
    EXPECT_EQ(decoded.trackingRate, 2);
    EXPECT_EQ(decoded.renderingRate, 6);
    EXPECT_EQ(decoded.modeledImplementation, 1);
    // The host backend is no dimension: the point does not carry it.
    EXPECT_EQ(decoded.kernelBackend, KFusionConfig{}.kernelBackend);
}

TEST(ConfigBinding, ImplementationAxisIsTheModeledImplementation)
{
    // The DSE's implementation ordinal is modeledImplementation: one
    // level per row of the modeled speedup table. It never picks the
    // host backend, and the host backend never encodes into it.
    const ParameterSpace space = kfusionParameterSpace();
    const size_t axis = space.indexOf("implementation");
    ASSERT_EQ(space.param(axis).values.size(),
              static_cast<size_t>(
                  slambench::kfusion::kNumModeledImplementations));
    for (int i = 0; i < slambench::kfusion::kNumModeledImplementations;
         ++i) {
        EXPECT_EQ(space.param(axis).values[static_cast<size_t>(i)],
                  static_cast<double>(i));
        Point p = space.defaultPoint();
        p[axis] = static_cast<double>(i);
        const KFusionConfig decoded = pointToConfig(space, p);
        EXPECT_EQ(decoded.modeledImplementation, i);
        EXPECT_EQ(decoded.kernelBackend, KFusionConfig{}.kernelBackend);
    }
    for (const std::string backend : {"auto", "scalar", "simd"}) {
        KFusionConfig config;
        config.kernelBackend = backend;
        EXPECT_EQ(configToPoint(space, config)[axis], 0.0) << backend;
    }
}

TEST(ConfigBinding, RandomPointsSampleEveryModeledImplementation)
{
    // Uniform sampling reaches every modeled implementation and
    // nothing else (no ordinal decodes outside the table).
    const ParameterSpace space = kfusionParameterSpace();
    slambench::support::Rng rng(5);
    std::vector<int> seen;
    for (int i = 0; i < 200; ++i) {
        const int implementation =
            pointToConfig(space, space.sample(rng)).modeledImplementation;
        if (std::find(seen.begin(), seen.end(), implementation) ==
            seen.end())
            seen.push_back(implementation);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<int>{0, 1}));
}

TEST(ConfigBinding, RandomPointsAlwaysValidate)
{
    const ParameterSpace space = kfusionParameterSpace();
    slambench::support::Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const KFusionConfig config =
            pointToConfig(space, space.sample(rng));
        EXPECT_TRUE(config.validate().empty())
            << config.toString() << ": " << config.validate();
    }
}

// --- experiment glue ---

TEST(Experiment, VolumeBytes)
{
    KFusionConfig config;
    config.volumeResolution = 64;
    EXPECT_DOUBLE_EQ(volumeBytes(config), 64.0 * 64 * 64 * 8);
}

TEST(Experiment, EvaluateConfigOnDeviceProducesObjectives)
{
    const Sequence seq = tinySequence();
    const EvaluatedConfig record =
        evaluateConfigOnDevice(tinyConfig(), seq, odroidXu3());
    EXPECT_TRUE(record.valid);
    EXPECT_GT(record.simulated.meanFrameSeconds, 0.0);
    EXPECT_GT(record.simulated.meanWatts, 0.0);
    EXPECT_GE(record.ate.maxAte, 0.0);
    EXPECT_GT(record.trackedFraction, 0.9);
}

TEST(Experiment, KernelBackendMovesNoResult)
{
    // Every backend is bit-exact, so the host backend a DSE point
    // runs on changes neither its work nor its modeled device run.
    const Sequence seq = tinySequence(4);
    KFusionConfig scalar = tinyConfig();
    scalar.kernelBackend = "scalar";
    KFusionConfig simd = tinyConfig();
    simd.kernelBackend = "simd";
    const EvaluatedConfig a =
        evaluateConfigOnDevice(scalar, seq, odroidXu3());
    const EvaluatedConfig b =
        evaluateConfigOnDevice(simd, seq, odroidXu3());
    EXPECT_EQ(a.config.kernelBackend, "scalar");
    EXPECT_EQ(b.config.kernelBackend, "simd");
    EXPECT_EQ(a.ate.perFrame, b.ate.perFrame);
    EXPECT_EQ(a.simulated.frameSeconds, b.simulated.frameSeconds);
    EXPECT_EQ(a.simulated.totalJoules, b.simulated.totalJoules);
    EXPECT_EQ(a.simulated.pacedWatts, b.simulated.pacedWatts);
}

TEST(Experiment, ModeledImplementationMovesOnlyModeledRuntime)
{
    // The modeled implementation is read only by the device model:
    // the host run (work, accuracy) is the same for every ordinal,
    // while the simulated runtime follows the speedup table.
    const Sequence seq = tinySequence(4);
    KFusionConfig reference = tinyConfig();
    reference.modeledImplementation = 0;
    KFusionConfig vectorized = tinyConfig();
    vectorized.modeledImplementation = 1;
    const EvaluatedConfig a =
        evaluateConfigOnDevice(reference, seq, odroidXu3());
    const EvaluatedConfig b =
        evaluateConfigOnDevice(vectorized, seq, odroidXu3());
    ASSERT_EQ(a.bench.frameWork.size(), b.bench.frameWork.size());
    for (size_t f = 0; f < a.bench.frameWork.size(); ++f) {
        EXPECT_EQ(a.bench.frameWork[f].items, b.bench.frameWork[f].items)
            << "frame " << f;
        EXPECT_EQ(a.bench.frameWork[f].skipped,
                  b.bench.frameWork[f].skipped)
            << "frame " << f;
    }
    EXPECT_EQ(a.ate.maxAte, b.ate.maxAte);
    EXPECT_EQ(a.ate.perFrame, b.ate.perFrame);
    EXPECT_NE(a.simulated.meanFrameSeconds,
              b.simulated.meanFrameSeconds);
}

TEST(Experiment, ModeledSpeedupFactorsArePinned)
{
    // The device models scale each kernel's rate by these factors, so
    // any change moves every DSE objective; recalibrating them is a
    // deliberate change that must update this table too. The table
    // is the same on every host.
    using slambench::kfusion::KernelId;
    for (size_t k = 0; k < slambench::kfusion::kNumKernels; ++k) {
        const auto id = static_cast<KernelId>(k);
        EXPECT_EQ(modeledKernelSpeedup(0, id), 1.0)
            << slambench::kfusion::kernelName(id);
        double expected = 1.0;
        switch (id) {
          case KernelId::Integrate: expected = 0.80; break;
          case KernelId::Raycast: expected = 2.60; break;
          case KernelId::RenderVolume: expected = 2.60; break;
          case KernelId::Reduce: expected = 2.70; break;
          default: break;
        }
        EXPECT_EQ(modeledKernelSpeedup(1, id), expected)
            << slambench::kfusion::kernelName(id);
    }
}

TEST(Experiment, OutOfTableImplementationIsInvalid)
{
    KFusionConfig config = tinyConfig();
    for (const int implementation :
         {-1, slambench::kfusion::kNumModeledImplementations}) {
        config.modeledImplementation = implementation;
        EXPECT_NE(config.validate().find("modeledImplementation"),
                  std::string::npos)
            << implementation;
        EXPECT_FALSE(
            evaluateConfigOnDevice(config, tinySequence(2), odroidXu3())
                .valid)
            << implementation;
    }
}

TEST(Experiment, MemoryBudgetInvalidatesHugeVolumes)
{
    const Sequence seq = tinySequence(2);
    DeviceModel small_device = odroidXu3();
    small_device.memoryBudgetBytes = 1e6; // 1 MB: nothing fits
    const EvaluatedConfig record =
        evaluateConfigOnDevice(tinyConfig(), seq, small_device);
    EXPECT_FALSE(record.valid);
}

TEST(Experiment, DseEvaluatorMatchesDirectEvaluation)
{
    const Sequence seq = tinySequence();
    const ParameterSpace space = kfusionParameterSpace();
    std::vector<EvaluatedConfig> log;
    auto evaluator =
        makeDseEvaluator(space, seq, odroidXu3(), {}, &log);

    Point p = space.defaultPoint();
    p[space.indexOf("volume_resolution")] = 64;
    const auto outcome = evaluator(p);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(outcome.objectives.size(),
              static_cast<size_t>(kNumObjectives));
    EXPECT_NEAR(outcome.objectives[kObjRuntime],
                log[0].simulated.meanFrameSeconds, 1e-12);
    EXPECT_NEAR(outcome.objectives[kObjMaxAte], log[0].ate.maxAte,
                1e-12);
    EXPECT_NEAR(outcome.objectives[kObjWatts],
                log[0].simulated.pacedWatts, 1e-12);
}

TEST(Experiment, ReplayOnFleetComputesSpeedups)
{
    const Sequence seq = tinySequence(4);

    KFusionConfig default_config = tinyConfig();
    default_config.volumeResolution = 128;
    KFusionConfig tuned_config = tinyConfig();
    tuned_config.computeSizeRatio = 2;
    tuned_config.volumeResolution = 64;
    tuned_config.integrationRate = 4;

    KFusionSystem default_system(default_config);
    KFusionSystem tuned_system(tuned_config);
    const BenchmarkResult default_run =
        runBenchmark(default_system, seq);
    const BenchmarkResult tuned_run = runBenchmark(tuned_system, seq);

    const auto fleet = slambench::devices::mobileFleet(20, 7);
    const auto entries = replayOnFleet(
        fleet, default_run.frameWork, volumeBytes(default_config),
        tuned_run.frameWork, volumeBytes(tuned_config));
    ASSERT_EQ(entries.size(), 20u);
    for (const FleetEntry &e : entries) {
        if (e.ranDefault && e.ranTuned) {
            EXPECT_GT(e.speedup, 1.0) << e.device;
            EXPECT_LT(e.speedup, 100.0) << e.device;
        }
    }
}

/** A CSV table as header names plus rows of cells (no quoting). */
struct CsvTable
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    /** @return the index of column @p name (header.size() if absent). */
    size_t
    column(const std::string &name) const
    {
        return static_cast<size_t>(
            std::find(header.begin(), header.end(), name) -
            header.begin());
    }
};

CsvTable
parseCsv(const std::string &text)
{
    CsvTable table;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        std::vector<std::string> cells;
        std::istringstream fields(line);
        for (std::string cell; std::getline(fields, cell, ',');)
            cells.push_back(cell);
        if (table.header.empty())
            table.header = std::move(cells);
        else
            table.rows.push_back(std::move(cells));
    }
    return table;
}

/** @return @p result's rows as appendRunTelemetry writes them. */
CsvTable
telemetryTable(const BenchmarkResult &result,
               const DeviceModel *device)
{
    const std::string path =
        ::testing::TempDir() + "core_test_frames.csv";
    std::ostringstream out;
    {
        slambench::support::metrics::RunSession session(
            "", path, "core_test", kernelColumnNames());
        appendRunTelemetry(session, "run", result, device);
        session.writeFramesCsv(out);
    }
    std::remove(path.c_str());
    return parseCsv(out.str());
}

TEST(Report, KernelColumnNamesFollowKernelIdOrder)
{
    const std::vector<std::string> names = kernelColumnNames();
    ASSERT_EQ(names.size(), slambench::kfusion::kNumKernels);
    for (size_t k = 0; k < names.size(); ++k)
        EXPECT_EQ(names[k],
                  slambench::kfusion::kernelName(
                      static_cast<slambench::kfusion::KernelId>(k)));
}

TEST(Report, RunTelemetryModelsEachFrameOnTheDevice)
{
    // sim_seconds / sim_joules are the device model applied to the
    // frame's own WorkCounts, bit for bit (no running-sum deltas).
    const Sequence seq = tinySequence(4);
    KFusionSystem system(tinyConfig());
    const BenchmarkResult result = runBenchmark(system, seq);
    const DeviceModel xu3 = odroidXu3();
    const CsvTable table = telemetryTable(result, &xu3);
    const size_t seconds_col = table.column("sim_seconds");
    const size_t joules_col = table.column("sim_joules");
    ASSERT_LT(seconds_col, table.header.size());
    ASSERT_LT(joules_col, table.header.size());
    ASSERT_EQ(table.rows.size(), 4u);
    for (size_t f = 0; f < table.rows.size(); ++f) {
        const auto &work = result.frameWork[f];
        EXPECT_GT(xu3.frameSeconds(work), 0.0);
        EXPECT_EQ(std::stod(table.rows[f][seconds_col]),
                  xu3.frameSeconds(work))
            << f;
        EXPECT_EQ(std::stod(table.rows[f][joules_col]),
                  xu3.frameJoules(work))
            << f;
    }
}

TEST(Report, RunTelemetryWithoutDeviceModelsNothing)
{
    const Sequence seq = tinySequence(3);
    KFusionSystem system(tinyConfig());
    const BenchmarkResult result = runBenchmark(system, seq);
    const CsvTable table = telemetryTable(result, nullptr);
    ASSERT_EQ(table.rows.size(), 3u);
    for (const auto &row : table.rows) {
        EXPECT_EQ(row[table.column("sim_seconds")], "0");
        EXPECT_EQ(row[table.column("sim_joules")], "0");
    }
}

TEST(Report, PowerGaugesHoldTheRunsRunningSums)
{
    const Sequence seq = tinySequence(4);
    KFusionSystem system(tinyConfig());
    const BenchmarkResult result = runBenchmark(system, seq);
    const DeviceModel xu3 = odroidXu3();
    double joules = 0.0;
    double seconds = 0.0;
    for (const auto &work : result.frameWork) {
        joules += xu3.frameJoules(work);
        seconds += xu3.frameSeconds(work);
    }
    auto &registry = slambench::support::metrics::Registry::instance();
    registry.gauge("power.sim_joules").set(-1.0);
    registry.gauge("power.sim_watts").set(-1.0);
    telemetryTable(result, &xu3);
    EXPECT_EQ(registry.gauge("power.sim_joules").value(), joules);
    EXPECT_EQ(registry.gauge("power.sim_watts").value(),
              joules / seconds);
}

TEST(Report, SummaryMentionsKeyMetrics)
{
    const Sequence seq = tinySequence(3);
    KFusionSystem system(tinyConfig());
    const BenchmarkResult result = runBenchmark(system, seq);
    const std::string text =
        summarizeRun(result, odroidXu3(), system.name());
    EXPECT_NE(text.find("kfusion-sequential"), std::string::npos);
    EXPECT_NE(text.find("max ATE"), std::string::npos);
    EXPECT_NE(text.find("odroid-xu3"), std::string::npos);
    EXPECT_NE(text.find("integrate"), std::string::npos);
}

TEST(Observability, FramesCsvHasThePinnedHeader)
{
    // The 12 phase/accuracy/energy columns, sim_seconds, then one
    // kernel_<name>_ms and one kernel_<name>_items per KernelId.
    const std::string path =
        ::testing::TempDir() + "core_test_observability.csv";
    slambench::support::Options options("core_test", "observability");
    addObservabilityOptions(options);
    ASSERT_EQ(options.parse({"--frames-csv", path}), "");
    {
        Observability observability(options, "core_test");
        ASSERT_TRUE(observability.metrics.active());
        const Sequence seq = tinySequence(2);
        KFusionSystem system(tinyConfig());
        appendRunTelemetry(observability.metrics, "run",
                           runBenchmark(system, seq));
    }
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    const CsvTable table = parseCsv(text.str());
    const std::vector<std::string> pinned{
        "label", "frame", "wall_ms", "preprocess_ms", "track_ms",
        "integrate_ms", "raycast_ms", "ate_m", "tracked", "integrated",
        "sim_joules", "rss_peak_bytes", "sim_seconds",
        "kernel_mm2meters_ms", "kernel_bilateral_filter_ms",
        "kernel_half_sample_ms", "kernel_depth2vertex_ms",
        "kernel_vertex2normal_ms", "kernel_track_ms",
        "kernel_reduce_ms", "kernel_solve_ms", "kernel_integrate_ms",
        "kernel_raycast_ms", "kernel_render_volume_ms",
        "kernel_mm2meters_items", "kernel_bilateral_filter_items",
        "kernel_half_sample_items", "kernel_depth2vertex_items",
        "kernel_vertex2normal_items", "kernel_track_items",
        "kernel_reduce_items", "kernel_solve_items",
        "kernel_integrate_items", "kernel_raycast_items",
        "kernel_render_volume_items"};
    EXPECT_EQ(pinned.size(), 35u);
    EXPECT_EQ(table.header, pinned);
    ASSERT_EQ(table.rows.size(), 2u);
    for (const auto &row : table.rows)
        EXPECT_EQ(row.size(), pinned.size());
}

/** An output flag of the observability group, pointed at a file in
 *  a directory that does not exist. */
class ObservabilityOutputPath : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ObservabilityOutputPath, MissingDirectoryExitsTwoBeforeAnyFrame)
{
    // A forked child of this multi-threaded test process would exit
    // through the global pool's destructor; re-execute instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    slambench::support::Options options("core_test", "observability");
    addObservabilityOptions(options);
    ASSERT_EQ(options.parse({GetParam(), "/nonexistent/d/out"}), "");
    // Reaching the frame loop would exit 0.
    EXPECT_EXIT(
        {
            Observability observability(options, "core_test");
            std::exit(0);
        },
        ::testing::ExitedWithCode(2),
        std::string(GetParam()) + ": cannot write");
}

INSTANTIATE_TEST_SUITE_P(EveryOutputFlag, ObservabilityOutputPath,
                         ::testing::Values("--frames-csv",
                                           "--metrics-json", "--trace",
                                           "--crash-dump"));

TEST(Experiment, UntrackableRunIsInvalid)
{
    // A configuration that cannot track: zero ICP iterations at
    // every level makes the pipeline open-loop; with a moving camera
    // ATE grows but the run stays "tracked" -- instead use a tiny
    // tracked-fraction threshold trick: demand an impossible 1.1.
    const Sequence seq = tinySequence(3);
    DseObjectiveOptions options;
    options.minTrackedFraction = 1.1;
    const EvaluatedConfig record = evaluateConfigOnDevice(
        tinyConfig(), seq, odroidXu3(), options);
    EXPECT_FALSE(record.valid);
}

} // namespace
