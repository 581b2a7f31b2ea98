/**
 * @file
 * FIG3 — reproduces the paper's Fig. 3: the OpenCL KinectFusion
 * configuration tuned for the Odroid-XU3 replayed on 83 simulated
 * phones/tablets; for each device the speed-up of the tuned
 * configuration over the device's default-configuration run.
 *
 * Output: fig3_devices.csv (one row per device) and the speed-up
 * histogram on stdout (the right pane of the paper's figure).
 *
 * Options: see --help (--frames, --devices, --seed).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "support/csv.hpp"
#include "support/stats.hpp"

int
main(int argc, char **argv)
{
    using namespace slambench;
    using namespace slambench::bench;

    using support::OptionType;
    support::Options options(
        "bench_fig3_mobile",
        "FIG3: tuned-vs-default speed-up across a simulated fleet");
    options.section("workload").add({
        {"--frames", OptionType::Integer, "30", "1..",
         "frames of the canonical sequence"},
        {"--devices", OptionType::Integer, "83", "1..",
         "simulated fleet size"},
        {"--seed", OptionType::Integer, "2018", "0..", "fleet seed"},
    });
    core::addKernelOptions(options);
    core::addObservabilityOptions(options);
    options.parseOrExit(argc, argv);

    // --backend and --volume apply to both runs: the implementation
    // axis is orthogonal to the tuned-vs-default algorithmic
    // comparison.
    kfusion::KFusionConfig default_config = defaultConfig();
    kfusion::KFusionConfig tuned_config = tunedConfig();
    core::applyKernelOptions(options, default_config);
    core::applyKernelOptions(options, tuned_config);
    core::Observability observability(options, "fig3_mobile");
    support::metrics::RunSession &metrics_session = observability.metrics;
    const auto frames = static_cast<size_t>(options.integer("--frames"));
    const auto device_count =
        static_cast<size_t>(options.integer("--devices"));
    const auto seed = static_cast<uint64_t>(options.integer("--seed"));

    std::printf("FIG3: tuned-vs-default speed-up on %zu simulated "
                "devices (%zu frames)\n",
                device_count, frames);

    const dataset::Sequence sequence =
        generateSequence(canonicalWorkload(frames));

    // One pipeline run per configuration; device models replay the
    // recorded per-frame work (this mirrors how the Android app ran
    // the same workload everywhere).
    // The report's config object records the tuned configuration
    // (the artifact Fig. 3 ships); both runs' frames are appended
    // below under their own labels.
    core::addConfigParams(metrics_session, tuned_config);
    std::printf("default: %s\n", default_config.toString().c_str());
    std::printf("tuned  : %s\n", tuned_config.toString().c_str());

    const core::BenchmarkResult default_run =
        runConfig(default_config, sequence);
    const core::BenchmarkResult tuned_run =
        runConfig(tuned_config, sequence);
    std::printf("host runs done: default ate %.4f m, tuned ate "
                "%.4f m\n",
                default_run.ate.maxAte, tuned_run.ate.maxAte);

    const auto fleet = devices::mobileFleet(device_count, seed);
    const auto entries = core::replayOnFleet(
        fleet, default_run.frameWork,
        core::volumeBytes(default_config), tuned_run.frameWork,
        core::volumeBytes(tuned_config));

    // --- CSV ---
    {
        std::ofstream out("fig3_devices.csv");
        support::CsvWriter csv(
            out, {"device", "class", "default_ms_per_frame",
                  "tuned_ms_per_frame", "speedup", "ran_default",
                  "ran_tuned"});
        for (const auto &e : entries) {
            csv.beginRow()
                .cell(e.device)
                .cell(e.deviceClass)
                .cell(e.defaultSeconds * 1e3)
                .cell(e.tunedSeconds * 1e3)
                .cell(e.speedup)
                .cell(e.ranDefault ? "1" : "0")
                .cell(e.ranTuned ? "1" : "0");
        }
        csv.endRow();
        support::logInfo() << "wrote fig3_devices.csv ("
                           << csv.rowCount() << " rows)";
    }

    // --- Histogram (the paper's right pane, 0..14x bins) ---
    support::Histogram histogram(0.0, 16.0, 16);
    support::RunningStat speedups;
    size_t failed = 0;
    for (const auto &e : entries) {
        if (!e.ranDefault || !e.ranTuned) {
            ++failed;
            continue;
        }
        histogram.add(e.speedup);
        speedups.add(e.speedup);
    }
    std::printf("\nspeed-up distribution over %zu devices "
                "(%zu could not run the default volume):\n%s",
                entries.size(), failed,
                histogram.toAscii(48).c_str());
    std::printf("\nspeed-up: min %.2fx, median-ish mean %.2fx, max "
                "%.2fx\n",
                speedups.min(), speedups.mean(), speedups.max());

    // Real-time attainment with the tuned configuration.
    size_t realtime = 0;
    for (const auto &e : entries)
        realtime += e.ranTuned && e.tunedSeconds > 0.0 &&
                    e.tunedSeconds <= 1.0 / 25.0;
    std::printf("devices reaching the real-time range (>=25 FPS) "
                "with the tuned config: %zu/%zu\n",
                realtime, entries.size());

    // --- Machine-readable run report ---
    const auto xu3 = devices::odroidXu3();
    core::appendRunTelemetry(metrics_session, "default", default_run,
                             &xu3);
    core::appendRunTelemetry(metrics_session, "tuned", tuned_run,
                             &xu3);
    metrics_session.setSummary("fleet_devices",
                               static_cast<double>(entries.size()));
    metrics_session.setSummary("speedup_mean", speedups.mean());
    metrics_session.setSummary("speedup_max", speedups.max());
    metrics_session.setSummary("realtime_devices",
                               static_cast<double>(realtime));
    metrics_session.finish();
    return 0;
}
