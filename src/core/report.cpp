#include "core/report.hpp"

#include <sstream>

#include "kfusion/backend.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"

namespace slambench::core {

std::vector<std::string>
kernelColumnNames()
{
    std::vector<std::string> names;
    for (size_t k = 0; k < kfusion::kNumKernels; ++k)
        names.emplace_back(
            kfusion::kernelName(static_cast<kfusion::KernelId>(k)));
    return names;
}

std::string
summarizeRun(const BenchmarkResult &result,
             const devices::DeviceModel &device,
             const std::string &system_name)
{
    const devices::SimulatedRun sim =
        devices::simulateRun(device, result.frameWork);

    std::ostringstream out;
    out << "=== " << system_name << " ===\n";
    out << support::format(
        "frames      : %zu (%zu tracked, %.0f%%)\n", result.frames,
        result.trackedFrames, result.trackedFraction() * 100.0);
    out << support::format(
        "accuracy    : max ATE %.4f m | mean %.4f m | RMSE %.4f m\n",
        result.ate.maxAte, result.ate.meanAte, result.ate.rmse);
    out << support::format(
        "local drift : RPE %.5f m/frame | %.5f rad/frame\n",
        result.rpe.translationRmse, result.rpe.rotationRmse);
    out << support::format(
        "host        : %s\n",
        metrics::describeTiming(result.hostTiming).c_str());
    out << support::format(
        "%-12s: %.1f ms/frame (%.1f FPS) | %.2f W paced | %.2f W "
        "batch\n",
        device.name.c_str(), sim.meanFrameSeconds * 1e3, sim.meanFps,
        sim.pacedWatts, sim.meanWatts);
    out << "per-kernel work (items / bytes / host ms):\n";
    for (size_t k = 0; k < kfusion::kNumKernels; ++k) {
        const auto id = static_cast<kfusion::KernelId>(k);
        if (result.totalWork.itemsFor(id) == 0.0)
            continue;
        out << support::format(
            "  %-16s %14.0f %12.0f %10.2f\n", kfusion::kernelName(id),
            result.totalWork.itemsFor(id),
            result.totalWork.bytesFor(id),
            result.totalWork.hostSecondsFor(id) * 1e3);
    }
    return out.str();
}

namespace {

/** @return pyramid iterations as the `pyramid` param ("10,5,4"). */
std::string
pyramidParam(const std::vector<int> &pyramid_iterations)
{
    std::string pyramid;
    for (const int iters : pyramid_iterations) {
        if (!pyramid.empty())
            pyramid += ",";
        pyramid += std::to_string(iters);
    }
    return pyramid;
}

} // namespace

void
addConfigParams(support::metrics::RunSession &session,
                const kfusion::KFusionConfig &config)
{
    if (!session.active())
        return;
    session.setParam("csr",
                     std::to_string(config.computeSizeRatio));
    session.setParam("icp", support::format("%g", config.icpThreshold));
    session.setParam("mu", support::format("%g", config.mu));
    session.setParam("ir", std::to_string(config.integrationRate));
    session.setParam("vr", std::to_string(config.volumeResolution));
    session.setParam("vs", support::format("%g", config.volumeSize));
    session.setParam("pyramid", pyramidParam(config.pyramidIterations));
    session.setParam("tr", std::to_string(config.trackingRate));
    session.setParam("rr", std::to_string(config.renderingRate));
    // Record the *resolved* backend ("auto" dispatched to a concrete
    // name), so run reports from different hosts are comparable.
    const kfusion::KernelBackend *backend =
        kfusion::resolveKernelBackend(config.kernelBackend);
    session.setParam("kernel.backend",
                     backend ? backend->name() : config.kernelBackend);
}

void
addOdometryParams(support::metrics::RunSession &session,
                  const OdometryConfig &config)
{
    if (!session.active())
        return;
    session.setParam("csr",
                     std::to_string(config.computeSizeRatio));
    session.setParam("icp", support::format("%g", config.icpThreshold));
    session.setParam("pyramid", pyramidParam(config.pyramidIterations));
    session.setParam("kernel.backend", "scalar");
}

size_t
appendRunTelemetry(support::metrics::RunSession &session,
                   const std::string &label,
                   const BenchmarkResult &result,
                   const devices::DeviceModel *device)
{
    if (!session.active())
        return 0;
    auto &registry = support::metrics::Registry::instance();
    auto &wall_histogram = registry.histogram("frame_wall_seconds");
    auto &ate_histogram = registry.histogram("frame_ate_m");
    double joules = 0.0;
    double seconds = 0.0;
    for (size_t frame = 0; frame < result.frameRows.size();
         ++frame) {
        support::metrics::FrameTelemetry t = result.frameRows[frame];
        t.label = label;
        if (device) {
            const kfusion::WorkCounts &work = result.frameWork[frame];
            t.simJoules = device->frameJoules(work);
            t.simSeconds = device->frameSeconds(work);
            joules += t.simJoules;
            seconds += t.simSeconds;
        }
        wall_histogram.record(t.wallSeconds);
        ate_histogram.record(t.ateMeters);
        session.addFrame(t);
    }
    if (device && !result.frameRows.empty()) {
        registry.gauge("power.sim_joules").set(joules);
        if (seconds > 0.0)
            registry.gauge("power.sim_watts").set(joules / seconds);
    }
    registry.counter("runs_total").add(1);
    registry.gauge("peak_rss_bytes")
        .setMax(support::metrics::peakRssBytes());
    return result.frameRows.size();
}

} // namespace slambench::core
