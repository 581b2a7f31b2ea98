/**
 * @file
 * Example: replay a tuned configuration across the simulated phone
 * fleet (the crowdsourced-Android scenario). Shows how per-frame
 * work counts recorded from one pipeline run are re-timed on many
 * device models without rerunning the SLAM system.
 *
 * Usage: mobile_fleet [devices] [frames]
 */

#include <cstdio>

#include "core/benchmark.hpp"
#include "core/experiment.hpp"
#include "core/slam_system.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "support/options.hpp"
#include "support/stats.hpp"

int
main(int argc, char **argv)
{
    using namespace slambench;

    const std::vector<long> args = support::parsePositionalsOrExit(
        argc, argv, {{"devices", 20, 1}, {"frames", 12, 1}});
    const auto devices_count = static_cast<size_t>(args[0]);
    const auto frames = static_cast<size_t>(args[1]);

    dataset::SequenceSpec spec;
    spec.width = 160;
    spec.height = 120;
    spec.numFrames = frames;
    spec.renderRgb = false;
    const dataset::Sequence sequence = generateSequence(spec);

    // Default and tuned configurations (see bench_common.hpp for the
    // provenance of the tuned one).
    kfusion::KFusionConfig default_config;
    default_config.volumeResolution = 128; // scaled for example speed
    kfusion::KFusionConfig tuned_config;
    tuned_config.computeSizeRatio = 2;
    tuned_config.volumeResolution = 64;
    tuned_config.integrationRate = 8;
    tuned_config.mu = 0.16f;
    tuned_config.pyramidIterations = {4, 3, 2};
    tuned_config.renderingRate = 8;

    std::printf("running default and tuned configurations on the "
                "host (%zu frames)...\n",
                frames);
    core::KFusionSystem default_system(default_config);
    core::KFusionSystem tuned_system(tuned_config);
    const auto default_run =
        core::runBenchmark(default_system, sequence);
    const auto tuned_run = core::runBenchmark(tuned_system, sequence);

    const auto fleet = devices::mobileFleet(devices_count, 2018);
    const auto entries = core::replayOnFleet(
        fleet, default_run.frameWork,
        core::volumeBytes(default_config), tuned_run.frameWork,
        core::volumeBytes(tuned_config));

    std::printf("\n%-22s %-10s %12s %12s %9s\n", "device", "class",
                "default(ms)", "tuned(ms)", "speedup");
    support::RunningStat speedups;
    for (const auto &e : entries) {
        if (!e.ranDefault) {
            std::printf("%-22s %-10s %12s %12.2f %9s\n",
                        e.device.c_str(), e.deviceClass.c_str(),
                        "OOM", e.tunedSeconds * 1e3, "-");
            continue;
        }
        std::printf("%-22s %-10s %12.2f %12.2f %8.2fx\n",
                    e.device.c_str(), e.deviceClass.c_str(),
                    e.defaultSeconds * 1e3, e.tunedSeconds * 1e3,
                    e.speedup);
        speedups.add(e.speedup);
    }
    std::printf("\nspeedup across the fleet: min %.2fx, mean %.2fx, "
                "max %.2fx\n",
                speedups.min(), speedups.mean(), speedups.max());
    return 0;
}
