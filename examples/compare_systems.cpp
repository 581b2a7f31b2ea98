/**
 * @file
 * Example: comparing two SLAM systems under the same harness — the
 * core promise of SLAMBench. Runs dense KinectFusion (frame-to-model
 * tracking against a TSDF map) and the drift-prone frame-to-frame
 * ICP odometry baseline on the same sequence, reporting the metric
 * triple side by side.
 *
 * Usage: compare_systems [frames]
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "core/benchmark.hpp"
#include "core/odometry.hpp"
#include "core/slam_system.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "support/options.hpp"

int
main(int argc, char **argv)
{
    using namespace slambench;

    const auto frames = static_cast<size_t>(
        support::parsePositionalsOrExit(argc, argv,
                                        {{"frames", 40, 1}})[0]);

    dataset::SequenceSpec spec;
    spec.width = 160;
    spec.height = 120;
    spec.numFrames = frames;
    spec.renderRgb = false;
    const dataset::Sequence sequence = generateSequence(spec);

    kfusion::KFusionConfig kf_config;
    kf_config.volumeResolution = 128;

    std::vector<std::unique_ptr<core::SlamSystem>> systems;
    systems.push_back(
        std::make_unique<core::KFusionSystem>(kf_config));
    systems.push_back(std::make_unique<core::OdometrySystem>());

    const auto xu3 = devices::odroidXu3();
    std::printf("%-20s %10s %10s %10s %8s %9s\n", "system",
                "maxATE(m)", "rmse(m)", "xu3 ms/f", "xu3 W",
                "tracked");
    for (auto &system : systems) {
        const core::BenchmarkResult result =
            core::runBenchmark(*system, sequence);
        const devices::SimulatedRun sim =
            devices::simulateRun(xu3, result.frameWork);
        std::printf("%-20s %10.4f %10.4f %10.2f %8.2f %8.0f%%\n",
                    system->name().c_str(), result.ate.maxAte,
                    result.ate.rmse, sim.meanFrameSeconds * 1e3,
                    sim.pacedWatts,
                    result.trackedFraction() * 100.0);
    }
    std::printf("\nframe-to-model (kfusion) should show visibly "
                "lower drift than frame-to-frame odometry,\nat the "
                "price of the TSDF volume's memory and compute.\n");
    return 0;
}
