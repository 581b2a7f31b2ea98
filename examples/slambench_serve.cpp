/**
 * @file
 * slambench_serve — the multi-session SLAM service: N independent
 * tenant sessions, each a full KinectFusion pipeline fed by a
 * simulated device stream (fleet device model x dataset generator),
 * frame-batch scheduled over a shared ThreadPool with admission
 * control / load shedding, per-tenant labels on /metrics and /runz,
 * and graceful drain on SIGTERM. See docs/SERVING.md.
 *
 * Examples:
 *   slambench_serve --serve-tenants 8 --serve-ticks 40 \
 *                   --telemetry-port 9090
 *   slambench_serve --telemetry-port 9090 \
 *                   --slo-queue-stall-ms 200       # run until SIGTERM
 *   slambench_serve --serve-ticks 30 --serve-stall-tick 10 \
 *                   --serve-stall-ms 300 --slo-queue-stall-ms 100 \
 *                   --serve-queue-hi 4              # watch shedding
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/cli_options.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "support/logging.hpp"

namespace {

using namespace slambench;

/** Drain target of the SIGTERM/SIGINT handler. */
std::atomic<serve::StreamScheduler *> g_scheduler{nullptr};

void
handleDrainSignal(int)
{
    // Async-signal-safe: requestDrain is one relaxed atomic store.
    if (auto *scheduler =
            g_scheduler.load(std::memory_order_relaxed))
        scheduler->requestDrain();
}

} // namespace

int
main(int argc, char **argv)
{
    using support::OptionType;
    support::Options options(
        "slambench_serve",
        "multi-session SLAM service (docs/SERVING.md)");
    options.section("service").add({
        {"--serve-tenants", OptionType::Integer, "8", "1..",
         "concurrent tenant sessions"},
        {"--serve-ticks", OptionType::Integer, "0", "0..",
         "scheduling ticks to run (0 = run until SIGTERM)"},
        core::threadCountOption(
            "--serve-threads",
            "scheduler pool workers (0 = hardware concurrency)"),
    });
    options.section("admission control (load shedding)").add({
        {"--serve-queue-hi", OptionType::Integer, "64", "1..",
         "engage shedding at this peak pool queue depth"},
        {"--serve-queue-lo", OptionType::Integer, "4", "0..",
         "clearing requires peak queue depth <= N"},
        {"--serve-p99-ms", OptionType::Real, "0", "0..",
         "engage when smoothed frame p99 exceeds X ms (0 = off)"},
        {"--serve-clear-ticks", OptionType::Integer, "3",
         "1..2147483647",
         "consecutive healthy ticks before shedding clears"},
        {"--serve-max-tenant-mb", OptionType::Real, "0", "0..",
         "engage when a tenant's TSDF volume reaches X MiB (0 = off; "
         "pair with --volume sparse)"},
    });
    options.section("fault injection (tests)").add({
        {"--serve-stall-tick", OptionType::Integer, "0", "0..",
         "flood the pool with sleeping blockers at tick N (0 = off)"},
        {"--serve-stall-ms", OptionType::Real, "0", "0..",
         "blocker sleep, milliseconds"},
    });
    options.section("tenant streams").add({
        {"--frames", OptionType::Integer, "16", "1..",
         "frames per rendered stream (streams wrap into new epochs)"},
        {"--width", OptionType::Integer, "160", "1..", "stream width"},
        {"--height", OptionType::Integer, "120", "1..",
         "stream height"},
        {"--seed", OptionType::Integer, "42", "0..",
         "base stream seed"},
        {"--fleet-seed", OptionType::Integer, "2018", "0..",
         "device-fleet seed"},
    });
    options.section("pipeline (per tenant)").add({
        {"--vr", OptionType::Integer, "64", "16..1024",
         "volume resolution"},
        {"--csr", OptionType::Integer, "2", "1|2|4|8",
         "compute-size ratio"},
    });
    core::addKernelOptions(options);
    core::addObservabilityOptions(options, /*profiling=*/false);
    options.parseOrExit(argc, argv);

    kfusion::KFusionConfig kfusion_config;
    kfusion_config.volumeResolution =
        static_cast<int>(options.integer("--vr"));
    kfusion_config.computeSizeRatio =
        static_cast<int>(options.integer("--csr"));
    core::applyKernelOptions(options, kfusion_config);
    core::checkKernelInput(
        options, kfusion_config,
        math::CameraIntrinsics::fromFov(
            static_cast<size_t>(options.integer("--width")),
            static_cast<size_t>(options.integer("--height")),
            dataset::SequenceSpec{}.hfovRad));

    // Belt and braces on top of the server's send(MSG_NOSIGNAL): no
    // stray SIGPIPE (a scraper gone mid-response, a closed log pipe)
    // may ever kill a long-running service.
    std::signal(SIGPIPE, SIG_IGN);

    const auto tenants =
        static_cast<size_t>(options.integer("--serve-tenants"));
    const auto ticks =
        static_cast<uint64_t>(options.integer("--serve-ticks"));

    // Run report: one frame row per processed frame, labeled with
    // the producing tenant's id. Request tracing: every frame through
    // the scheduler gets a TraceContext; tail-based retention keeps
    // SLO breaches, tracking losses, and top-bucket frames, plus a
    // sampled slice of normal traffic (docs/OBSERVABILITY.md
    // "Request tracing").
    core::Observability observability(options, "slambench_serve");
    support::metrics::RunSession &metrics_session = observability.metrics;

    // --- Tenant fleet ---
    const auto fleet = devices::mobileFleet(
        std::max<size_t>(tenants, 8),
        static_cast<uint64_t>(options.integer("--fleet-seed")));

    dataset::SequenceSpec base_spec;
    base_spec.numFrames =
        static_cast<size_t>(options.integer("--frames"));
    base_spec.width = static_cast<size_t>(options.integer("--width"));
    base_spec.height = static_cast<size_t>(options.integer("--height"));
    base_spec.renderRgb = false;
    const auto base_seed =
        static_cast<uint64_t>(options.integer("--seed"));

    std::printf("standing up %zu tenant sessions (%zux%zu, %zu "
                "frames/stream, vr=%d, csr=%d)...\n",
                tenants, base_spec.width, base_spec.height,
                base_spec.numFrames,
                kfusion_config.volumeResolution,
                kfusion_config.computeSizeRatio);

    static const dataset::TrajectoryPreset kPresets[] = {
        dataset::TrajectoryPreset::OrbitA,
        dataset::TrajectoryPreset::SweepB,
        dataset::TrajectoryPreset::CloseupC,
    };
    std::vector<std::unique_ptr<serve::TenantSession>> sessions;
    sessions.reserve(tenants);
    for (size_t i = 0; i < tenants; ++i) {
        serve::TenantConfig tenant;
        char id[24];
        std::snprintf(id, sizeof(id), "t%02u",
                      static_cast<unsigned>(i));
        tenant.id = id;
        tenant.device = fleet[i % fleet.size()];
        tenant.kfusion = kfusion_config;
        tenant.sequence = base_spec;
        tenant.sequence.trajectory = kPresets[i % 3];
        tenant.sequence.seed = base_seed + i;
        tenant.sequence.name =
            tenant.id + "-" + tenant.device.name;
        sessions.push_back(
            std::make_unique<serve::TenantSession>(tenant));
        metrics_session.setParam("tenant." + tenant.id + ".device",
                                 tenant.device.name);
    }

    serve::SchedulerOptions scheduler_options;
    scheduler_options.threads =
        static_cast<size_t>(options.integer("--serve-threads"));
    scheduler_options.admission.queueHiWatermark =
        static_cast<size_t>(options.integer("--serve-queue-hi"));
    scheduler_options.admission.queueLoWatermark =
        static_cast<size_t>(options.integer("--serve-queue-lo"));
    scheduler_options.admission.frameP99TargetSeconds =
        options.real("--serve-p99-ms") * 1e-3;
    scheduler_options.admission.clearAfterHealthyTicks =
        static_cast<int>(options.integer("--serve-clear-ticks"));
    scheduler_options.admission.maxTenantVolumeBytes =
        static_cast<uint64_t>(options.real("--serve-max-tenant-mb") *
                              (1 << 20));
    scheduler_options.stallAtTick =
        static_cast<uint64_t>(options.integer("--serve-stall-tick"));
    scheduler_options.stallMs = options.real("--serve-stall-ms");

    serve::StreamScheduler scheduler(std::move(sessions),
                                     scheduler_options);

    // Drain handler last, so it overrides the crash-dump handler the
    // TelemetryEndpoint installed for SIGTERM: for a service, TERM
    // is a routine drain request, not a crash.
    g_scheduler.store(&scheduler, std::memory_order_relaxed);
    struct sigaction drain_action;
    std::memset(&drain_action, 0, sizeof(drain_action));
    drain_action.sa_handler = handleDrainSignal;
    sigaction(SIGTERM, &drain_action, nullptr);
    sigaction(SIGINT, &drain_action, nullptr);

    if (ticks == 0)
        std::printf("serving until SIGTERM (pid %d)...\n",
                    static_cast<int>(getpid()));

    const uint64_t ran = scheduler.runLoop(ticks, &metrics_session);
    g_scheduler.store(nullptr, std::memory_order_relaxed);

    // --- Report ---
    const auto &admission = scheduler.admission();
    std::printf("\nserved %llu ticks: %llu frames processed, %llu "
                "shed (%llu shed episodes)\n",
                static_cast<unsigned long long>(ran),
                static_cast<unsigned long long>(
                    scheduler.framesProcessed()),
                static_cast<unsigned long long>(
                    scheduler.framesShed()),
                static_cast<unsigned long long>(
                    admission.engageCount()));
    std::printf("aggregate frame p99: %.2f ms%s\n",
                scheduler.aggregateFrameP99Seconds() * 1e3,
                admission.shedding() ? "  [still shedding]" : "");
    std::printf("%-6s %-22s %8s %6s %7s %8s\n", "tenant", "device",
                "frames", "shed", "epochs", "vol_mib");
    for (const auto &tenant : scheduler.sessions()) {
        std::printf("%-6s %-22s %8llu %6llu %7llu %8.1f\n",
                    tenant->id().c_str(),
                    tenant->device().name.c_str(),
                    static_cast<unsigned long long>(
                        tenant->framesProcessed()),
                    static_cast<unsigned long long>(
                        tenant->framesShed()),
                    static_cast<unsigned long long>(
                        tenant->epochs()),
                    static_cast<double>(tenant->volumeBytes()) /
                        (1 << 20));
    }

    metrics_session.setSummary("serve_ticks",
                               static_cast<double>(ran));
    metrics_session.setSummary(
        "serve_tenants", static_cast<double>(tenants));
    metrics_session.setSummary(
        "serve_frames_processed",
        static_cast<double>(scheduler.framesProcessed()));
    metrics_session.setSummary(
        "serve_frames_shed",
        static_cast<double>(scheduler.framesShed()));
    metrics_session.setSummary(
        "serve_shed_engaged",
        static_cast<double>(admission.engageCount()));
    metrics_session.setSummary(
        "serve_shed_cleared",
        static_cast<double>(admission.clearCount()));
    metrics_session.setSummary("serve_frame_p99_seconds",
                               scheduler.aggregateFrameP99Seconds());
    metrics_session.finish();
    return 0;
}
