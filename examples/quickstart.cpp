/**
 * @file
 * Quickstart: generate a synthetic living-room RGB-D sequence, run
 * the KinectFusion pipeline on it, and print the SLAMBench metric
 * triple (speed, accuracy, simulated power on the Odroid-XU3).
 *
 * Usage: quickstart [frames] [width] [height]
 */

#include <cstdio>

#include "core/benchmark.hpp"
#include "core/slam_system.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "support/logging.hpp"
#include "support/options.hpp"

int
main(int argc, char **argv)
{
    using namespace slambench;

    // The pipeline needs at least an 8x8 compute image.
    const std::vector<long> args = support::parsePositionalsOrExit(
        argc, argv,
        {{"frames", 40, 1}, {"width", 160, 8}, {"height", 120, 8}});
    const auto frames = static_cast<size_t>(args[0]);
    const auto width = static_cast<size_t>(args[1]);
    const auto height = static_cast<size_t>(args[2]);

    // 1. Generate the dataset (the ICL-NUIM stand-in).
    dataset::SequenceSpec spec;
    spec.name = "living_room-orbit-a";
    spec.numFrames = frames;
    spec.width = width;
    spec.height = height;
    spec.renderRgb = false; // depth-only is enough for SLAM
    std::printf("generating %zu frames of %s at %zux%zu...\n",
                spec.numFrames, spec.name.c_str(), spec.width,
                spec.height);
    const dataset::Sequence sequence = generateSequence(spec);

    // 2. Configure and run the SLAM system.
    kfusion::KFusionConfig config;
    config.volumeResolution = 128; // quick-run default
    core::KFusionSystem system(config);
    std::printf("running %s (%s)...\n", system.name().c_str(),
                config.toString().c_str());
    const core::BenchmarkResult result =
        core::runBenchmark(system, sequence);

    // 3. Report the metric triple.
    std::printf("\n--- results ---\n");
    std::printf("tracked      : %zu/%zu frames\n", result.trackedFrames,
                result.frames);
    std::printf("accuracy     : max ATE %.4f m, mean %.4f m, RMSE %.4f "
                "m (aligned max %.4f m)\n",
                result.ate.maxAte, result.ate.meanAte, result.ate.rmse,
                result.ateAligned.maxAte);
    std::printf("host speed   : %s\n",
                metrics::describeTiming(result.hostTiming).c_str());

    const devices::DeviceModel xu3 = devices::odroidXu3();
    const devices::SimulatedRun sim =
        devices::simulateRun(xu3, result.frameWork);
    std::printf("odroid-xu3   : %.1f ms/frame (%.2f FPS), %.2f W "
                "simulated\n",
                sim.meanFrameSeconds * 1e3, sim.meanFps,
                sim.meanWatts);

    std::printf("\nper-kernel work (totals):\n");
    for (size_t k = 0; k < kfusion::kNumKernels; ++k) {
        const auto id = static_cast<kfusion::KernelId>(k);
        std::printf("  %-16s %12.0f items  %10.1f MB  host %7.2f ms\n",
                    kfusion::kernelName(id),
                    result.totalWork.itemsFor(id),
                    result.totalWork.bytesFor(id) / 1e6,
                    result.totalWork.hostSecondsFor(id) * 1e3);
    }
    return 0;
}
