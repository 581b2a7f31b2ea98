/**
 * @file
 * FIG1 — reproduces the content of the paper's Fig. 1 (the SLAMBench
 * GUI): the RGB and depth input panes, the tracking-status pane, the
 * reconstructed-model pane, and the live metric readouts (speed,
 * power, accuracy).
 *
 * Output: four PPM images written to the working directory plus the
 * GUI side-panel numbers printed as text, with an ASCII preview of
 * the depth and model panes.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "kfusion/mesh.hpp"
#include "metrics/ate.hpp"
#include "metrics/reconstruction.hpp"
#include "metrics/timing.hpp"
#include "support/image.hpp"

int
main(int argc, char **argv)
{
    using namespace slambench;
    using namespace slambench::bench;

    support::Options options(
        "bench_fig1_pipeline",
        "FIG1: the SLAMBench GUI panes and metric readouts");
    options.section("workload").add({
        {"--frames", support::OptionType::Integer, "45", "1..",
         "frames of the canonical sequence"},
    });
    core::addKernelOptions(options);
    core::addObservabilityOptions(options);
    options.parseOrExit(argc, argv);

    kfusion::KFusionConfig config = defaultConfig();
    core::applyKernelOptions(options, config);
    core::Observability observability(options, "fig1_pipeline");
    support::metrics::RunSession &metrics_session = observability.metrics;
    const auto frames = static_cast<size_t>(options.integer("--frames"));

    dataset::SequenceSpec spec = canonicalWorkload(frames);
    spec.renderRgb = true; // the GUI shows the RGB pane
    std::printf("FIG1: SLAMBench GUI panes, %zu frames of %s\n",
                spec.numFrames, spec.name.c_str());
    const dataset::Sequence sequence = generateSequence(spec);

    core::addConfigParams(metrics_session, config);
    kfusion::KFusion pipeline(config, sequence.intrinsics);
    pipeline.setPose(sequence.groundTruth.pose(0));

    size_t tracked = 0;
    std::vector<math::Mat4f> poses;
    core::BenchmarkResult run;
    for (size_t i = 0; i < sequence.frames.size(); ++i) {
        const uint64_t start_ns = slambench::metrics::now_ns();
        const kfusion::FrameResult r =
            pipeline.processFrame(sequence.frames[i].depthMm);
        core::FrameOutcome outcome;
        outcome.frame = i;
        outcome.liveFrame = i;
        outcome.wallSeconds =
            static_cast<double>(slambench::metrics::now_ns() -
                                start_ns) *
            1e-9;
        outcome.tracked = r.tracking.tracked;
        outcome.estimatedPose = r.pose;
        if (i < sequence.groundTruth.size())
            outcome.groundTruthPose = &sequence.groundTruth.pose(i);
        outcome.work = &r.work;
        core::completeFrame(outcome, &run.frameRows.emplace_back());
        run.frameSeconds.push_back(outcome.wallSeconds);
        tracked += r.tracking.tracked;
        poses.push_back(r.pose);
    }
    const metrics::AteResult ate = metrics::computeAte(
        poses, sequence.groundTruth.poses(), false);
    run.frames = sequence.frames.size();
    run.trackedFrames = tracked;
    run.estimatedPoses = poses;
    run.ate = ate;
    run.frameWork = pipeline.frameWork();
    run.totalWork = pipeline.totalWork();
    run.hostTiming = metrics::summarizeTiming(run.frameSeconds);

    // --- The four GUI panes ---
    const size_t last = sequence.frames.size() - 1;
    support::writePpm(sequence.frames[last].rgb, "fig1_rgb.ppm");

    support::Image<float> depth_m;
    kfusion::mm2metersKernel(depth_m, sequence.frames[last].depthMm,
                             1, nullptr);
    support::writePgm(depth_m, "fig1_depth.pgm", 0.0f, 4.5f);

    support::Image<support::Rgb8> track_pane;
    pipeline.renderTrack(track_pane);
    support::writePpm(track_pane, "fig1_track.ppm");

    support::Image<support::Rgb8> model_pane;
    pipeline.renderModel(model_pane, pipeline.pose());
    support::writePpm(model_pane, "fig1_model.ppm");

    support::logInfo() << "wrote fig1_rgb.ppm fig1_depth.pgm "
                          "fig1_track.ppm fig1_model.ppm";

    // --- ASCII previews (terminal stand-in for the GUI) ---
    std::printf("depth pane (near=dark, far=bright):\n%s\n",
                support::asciiArt(depth_m, 72, 0.5f, 4.0f).c_str());

    support::Image<float> model_gray(model_pane.width(),
                                     model_pane.height());
    for (size_t i = 0; i < model_pane.size(); ++i)
        model_gray[i] = static_cast<float>(model_pane[i].g);
    std::printf("model pane (shaded reconstruction):\n%s\n",
                support::asciiArt(model_gray, 72, 0.0f, 255.0f)
                    .c_str());

    // --- GUI side panel: per-kernel timings + metric triple ---
    const auto &work = pipeline.totalWork();
    std::printf("side panel / per-kernel host time:\n");
    for (size_t k = 0; k < kfusion::kNumKernels; ++k) {
        const auto id = static_cast<kfusion::KernelId>(k);
        std::printf("  %-16s %8.2f ms total, %12.0f work items\n",
                    kfusion::kernelName(id),
                    work.hostSecondsFor(id) * 1e3, work.itemsFor(id));
    }

    const devices::DeviceModel xu3 = devices::odroidXu3();
    const devices::SimulatedRun sim =
        devices::simulateRun(xu3, pipeline.frameWork());
    std::printf("\nmetric readouts (default configuration):\n");
    std::printf("  tracking   : %zu/%zu frames tracked\n", tracked,
                sequence.frames.size());
    std::printf("  speed      : %.1f ms/frame (%.2f FPS) on the "
                "simulated odroid-xu3\n",
                sim.meanFrameSeconds * 1e3, sim.meanFps);
    std::printf("  power      : %.2f W paced / %.2f W batch "
                "(simulated)\n",
                sim.pacedWatts, sim.meanWatts);
    std::printf("  accuracy   : max ATE %.4f m, mean %.4f m, RMSE "
                "%.4f m\n",
                ate.maxAte, ate.meanAte, ate.rmse);

    // Map quality: extract the mesh and measure its distance to the
    // true scene surfaces (the ICL-NUIM reconstruction metric).
    const kfusion::TriangleMesh mesh =
        kfusion::extractMesh(pipeline.volume());
    mesh.saveObj("fig1_model.obj");
    const auto recon = metrics::computeReconstructionError(
        mesh, dataset::livingRoomScene(), 5);
    std::printf("  map quality: %zu triangles, surface error mean "
                "%.4f m / RMSE %.4f m (fig1_model.obj)\n",
                mesh.triangleCount(), recon.meanAbs, recon.rmse);

    // --- Machine-readable run report ---
    core::appendRunTelemetry(metrics_session, "fig1", run, &xu3);
    metrics_session.setSummary("sim_frame_seconds_mean",
                               sim.meanFrameSeconds);
    metrics_session.setSummary("sim_watts_paced", sim.pacedWatts);
    metrics_session.setSummary("recon_rmse_m", recon.rmse);
    metrics_session.finish();
    return 0;
}
