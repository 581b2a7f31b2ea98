/**
 * @file
 * The SLAMBench-style command-line harness: pick a dataset, a SLAM
 * system, a configuration, and a device model entirely from flags,
 * run the benchmark, and print the metric triple. Mirrors the flag
 * set of the original `kfusion-benchmark` binaries.
 *
 * Examples:
 *   slambench_cli --frames 60
 *   slambench_cli --scene office --trajectory b --vr 128 --csr 2
 *   slambench_cli --system odometry --dump-trajectory est.txt
 *   slambench_cli --vr 64 --ir 8 --mu 0.16 --pyramid 4,3,2 \
 *                 --dump-mesh map.obj --align
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/benchmark.hpp"
#include "core/cli_options.hpp"
#include "core/odometry.hpp"
#include "core/report.hpp"
#include "core/slam_system.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "kfusion/mesh.hpp"
#include "metrics/reconstruction.hpp"
#include "support/logging.hpp"

int
main(int argc, char **argv)
{
    using namespace slambench;
    using support::OptionType;

    support::Options options(
        "slambench_cli",
        "benchmark a SLAM system on a synthetic RGB-D sequence");
    options.section("dataset").add({
        {"--scene", OptionType::String, "living-room",
         "living-room|office", "synthetic scene"},
        {"--trajectory", OptionType::String, "a", "",
         "camera path: a (orbit), b (sweep) or c (close-up)", "NAME"},
        {"--frames", OptionType::Integer, "40", "1..",
         "frames to synthesize"},
        {"--width", OptionType::Integer, "320", "1..", "image width"},
        {"--height", OptionType::Integer, "240", "1..",
         "image height"},
        {"--no-noise", OptionType::Flag, "", "",
         "disable the sensor model"},
        {"--seed", OptionType::Integer, "42", "0..",
         "sensor noise seed"},
    });
    options.section("system").add({
        {"--system", OptionType::String, "kfusion", "kfusion|odometry",
         "SLAM system"},
        {"--impl", OptionType::String, "sequential",
         "sequential|threaded", "kernel implementation"},
    });
    core::addDseThreadsOption(options);
    options.section("kfusion configuration (SLAMBench flags)").add({
        {"--csr", OptionType::Integer, "1", "1|2|4|8",
         "compute-size ratio"},
        {"--icp", OptionType::Real, "1e-05", "",
         "ICP convergence threshold"},
        {"--mu", OptionType::Real, "0.1", "", "TSDF truncation, meters"},
        {"--ir", OptionType::Integer, "2", "1..2147483647",
         "integration rate"},
        {"--vr", OptionType::Integer, "256", "16..1024",
         "volume resolution (voxels/edge)"},
        {"--vs", OptionType::Real, "4.8", "", "volume size, meters"},
        {"--pyramid", OptionType::List, "10,5,4", "0..100",
         "ICP iterations per pyramid level, finest first"},
        {"--tr", OptionType::Integer, "1", "1..2147483647",
         "tracking rate"},
        {"--rr", OptionType::Integer, "4", "1..2147483647",
         "rendering rate"},
    });
    core::addKernelOptions(options);
    options.section("outputs").add({
        {"--align", OptionType::Flag, "", "",
         "also report rigidly aligned ATE"},
        {"--log", OptionType::String, "", "",
         "per-frame metric log (CSV)"},
        {"--dump-trajectory", OptionType::String, "", "",
         "estimated trajectory (TUM)"},
        {"--dump-groundtruth", OptionType::String, "", "",
         "ground truth (TUM)"},
        {"--dump-mesh", OptionType::String, "", "",
         "reconstructed map (.obj; --system kfusion only)"},
    });
    core::addObservabilityOptions(options);
    options.parseOrExit(argc, argv);

    // --- Dataset ---
    dataset::SequenceSpec spec;
    if (options.string("--scene") == "office")
        spec.scene = dataset::SceneId::Office;
    const std::string &trajectory = options.string("--trajectory");
    if (!dataset::parsePreset(trajectory, spec.trajectory))
        options.fail("--trajectory: unknown preset '" + trajectory +
                     "' (want a|b|c)");
    spec.numFrames = static_cast<size_t>(options.integer("--frames"));
    spec.width = static_cast<size_t>(options.integer("--width"));
    spec.height = static_cast<size_t>(options.integer("--height"));
    spec.sensorNoise = !options.flag("--no-noise");
    spec.seed = static_cast<uint64_t>(options.integer("--seed"));
    spec.renderRgb = false;

    // --- Configuration ---
    kfusion::KFusionConfig config;
    config.computeSizeRatio = static_cast<int>(options.integer("--csr"));
    config.icpThreshold = static_cast<float>(options.real("--icp"));
    config.mu = static_cast<float>(options.real("--mu"));
    config.integrationRate = static_cast<int>(options.integer("--ir"));
    config.volumeResolution = static_cast<int>(options.integer("--vr"));
    config.volumeSize = static_cast<float>(options.real("--vs"));
    config.pyramidIterations.assign(options.list("--pyramid").begin(),
                                    options.list("--pyramid").end());
    config.trackingRate = static_cast<int>(options.integer("--tr"));
    config.renderingRate = static_cast<int>(options.integer("--rr"));
    core::applyKernelOptions(options, config);

    const std::string &system_name = options.string("--system");
    if (options.given("--dump-mesh") && system_name != "kfusion")
        options.fail("--dump-mesh requires --system kfusion");
    const kfusion::Implementation impl =
        options.string("--impl") == "threaded"
            ? kfusion::Implementation::Threaded
            : kfusion::Implementation::Sequential;

    core::Observability observability(options, "slambench_cli");
    support::metrics::RunSession &metrics_session = observability.metrics;

    std::printf("generating %zu frames (%zux%zu, %s, trajectory "
                "%s)...\n",
                spec.numFrames, spec.width, spec.height,
                options.string("--scene").c_str(), trajectory.c_str());
    const dataset::Sequence sequence = generateSequence(spec);

    // --- System ---
    std::unique_ptr<core::SlamSystem> system;
    core::KFusionSystem *kfusion_system = nullptr;
    if (system_name == "kfusion") {
        // --dse-threads sizes the Threaded kernels' pool here.
        auto kf = std::make_unique<core::KFusionSystem>(
            config, impl,
            static_cast<size_t>(options.integer("--dse-threads")));
        kfusion_system = kf.get();
        system = std::move(kf);
    } else {
        core::OdometryConfig odo;
        odo.computeSizeRatio = config.computeSizeRatio;
        odo.pyramidIterations = config.pyramidIterations;
        odo.icpThreshold = config.icpThreshold;
        system = std::make_unique<core::OdometrySystem>(odo);
    }

    std::printf("running %s (%s)...\n", system->name().c_str(),
                config.toString().c_str());
    core::addConfigParams(metrics_session, config);
    core::BenchmarkOptions benchmark_options;
    benchmark_options.alignedAte = options.flag("--align");
    const core::BenchmarkResult result =
        core::runBenchmark(*system, sequence, benchmark_options);

    // --- Report ---
    std::printf("\ntracked    : %zu/%zu frames\n",
                result.trackedFrames, result.frames);
    std::printf("accuracy   : max ATE %.4f m | mean %.4f m | RMSE "
                "%.4f m\n",
                result.ate.maxAte, result.ate.meanAte,
                result.ate.rmse);
    if (benchmark_options.alignedAte)
        std::printf("aligned    : max ATE %.4f m | RMSE %.4f m\n",
                    result.ateAligned.maxAte, result.ateAligned.rmse);
    std::printf("drift      : RPE %.5f m/frame, %.5f rad/frame\n",
                result.rpe.translationRmse,
                result.rpe.rotationRmse);
    std::printf("host speed : %s\n",
                metrics::describeTiming(result.hostTiming).c_str());

    const auto xu3 = devices::odroidXu3();
    const auto sim = devices::simulateRun(xu3, result.frameWork);
    std::printf("odroid-xu3 : %.1f ms/frame (%.1f FPS) | %.2f W "
                "paced, %.2f W batch\n",
                sim.meanFrameSeconds * 1e3, sim.meanFps,
                sim.pacedWatts, sim.meanWatts);

    core::appendRunTelemetry(metrics_session, system_name, result,
                             &xu3);
    metrics_session.setSummary("sim_frame_seconds_mean",
                               sim.meanFrameSeconds);
    metrics_session.setSummary("sim_watts_paced", sim.pacedWatts);

    // --- Optional artifacts ---
    if (const std::string &path = options.string("--log");
        !path.empty()) {
        std::ofstream log(path);
        if (log) {
            core::writeFrameLog(log, result, xu3);
            support::logInfo() << "wrote " << path;
        }
    }
    if (const std::string &path = options.string("--dump-trajectory");
        !path.empty()) {
        dataset::Trajectory estimated;
        for (size_t i = 0; i < result.estimatedPoses.size(); ++i)
            estimated.append(result.estimatedPoses[i],
                             sequence.groundTruth.timestamp(i));
        if (estimated.saveTum(path))
            std::printf("wrote %s\n", path.c_str());
    }
    if (const std::string &path = options.string("--dump-groundtruth");
        !path.empty()) {
        if (sequence.groundTruth.saveTum(path))
            std::printf("wrote %s\n", path.c_str());
    }
    if (const std::string &path = options.string("--dump-mesh");
        !path.empty()) {
        const kfusion::TriangleMesh mesh =
            kfusion::extractMesh(kfusion_system->pipeline().volume());
        if (mesh.saveObj(path)) {
            const auto recon = metrics::computeReconstructionError(
                mesh, dataset::makeScene(spec.scene), 5);
            std::printf("wrote %s (%zu triangles, surface RMSE "
                        "%.4f m)\n",
                        path.c_str(), mesh.triangleCount(), recon.rmse);
        }
    }
    metrics_session.finish();
    return 0;
}
