#include "core/cli_options.hpp"

#include <unistd.h>

#include <filesystem>

#include "core/report.hpp"
#include "kfusion/backend.hpp"
#include "kfusion/pipeline.hpp"

namespace slambench::core {

using support::OptionType;

namespace {

support::LogLevel
applyLogOptions(const support::Options &options)
{
    if (options.flag("--quiet"))
        support::setLogLevel(support::LogLevel::Warn);
    else if (options.flag("--verbose"))
        support::setLogLevel(support::LogLevel::Debug);
    return support::logLevel();
}

support::telemetry::TelemetryOptions
telemetryOptions(const support::Options &options, const char *generator)
{
    support::telemetry::TelemetryOptions telemetry;
    if (options.given("--telemetry-port"))
        telemetry.port =
            static_cast<int>(options.integer("--telemetry-port"));
    telemetry.crashDumpPath = options.string("--crash-dump");
    telemetry.recorderSlots =
        static_cast<size_t>(options.integer("--recorder-slots"));
    telemetry.generator = generator;
    telemetry.slo.frameP99Seconds =
        options.real("--slo-frame-p99-ms") * 1e-3;
    telemetry.slo.maxAteMeters = options.real("--slo-max-ate");
    telemetry.slo.maxConsecutiveTrackingFailures =
        options.integer("--slo-max-lost");
    telemetry.slo.poolQueueStallSeconds =
        options.real("--slo-queue-stall-ms") * 1e-3;
    return telemetry;
}

support::trace::SessionOptions
sessionOptions(const support::Options &options)
{
    support::trace::SessionOptions session;
    if (options.declared("--trace"))
        session.timelinePath = options.string("--trace");
    session.requests = options.flag("--trace-requests") ||
                       options.given("--trace-sample-rate") ||
                       options.given("--trace-store");
    session.requestOptions.sampleRate =
        options.real("--trace-sample-rate");
    session.requestOptions.maxRetained =
        static_cast<size_t>(options.integer("--trace-store"));
    return session;
}

} // namespace

const support::Options &
checkOutputPaths(const support::Options &options)
{
    for (const char *flag :
         {"--trace", "--metrics-json", "--frames-csv", "--crash-dump"}) {
        if (!options.declared(flag) || !options.given(flag))
            continue;
        const std::filesystem::path path(options.string(flag));
        std::filesystem::path dir = path.parent_path();
        if (dir.empty())
            dir = ".";
        std::error_code ec;
        if (!std::filesystem::is_directory(dir, ec) ||
            ::access(dir.c_str(), W_OK) != 0)
            options.fail(std::string(flag) + ": cannot write '" +
                         path.string() + "' (directory '" +
                         dir.string() +
                         "' is missing or not writable)");
    }
    return options;
}

void
addObservabilityOptions(support::Options &options, bool profiling)
{
    options.section("observability (docs/OBSERVABILITY.md)");
    if (profiling)
        options.add({
            {"--trace", OptionType::String, "", "",
             "chrome://tracing span timeline (JSON)"},
        });
    options.add({
        {"--metrics-json", OptionType::String, "", "",
         "machine-readable run report (JSON)"},
        {"--frames-csv", OptionType::String, "", "",
         "per-frame table: phases, per-kernel ms and items, ATE, "
         "modeled s/J (CSV)"},
        {"--telemetry-port", OptionType::Integer, "", "0..65535",
         "serve /metrics, /healthz, /runz, /tracez on 127.0.0.1:N "
         "(0 = ephemeral)"},
        {"--crash-dump", OptionType::String, "", "",
         "fatal-signal flight-recorder dump (JSON)"},
        {"--recorder-slots", OptionType::Integer, "1024", "1..",
         "flight-recorder ring capacity (rounded up to a power of 2)"},
        {"--slo-frame-p99-ms", OptionType::Real, "0", "0..",
         "healthz SLO: frame-time p99 <= X ms (0 = off)"},
        {"--slo-max-ate", OptionType::Real, "0", "0..",
         "healthz SLO: per-frame ATE <= X m (0 = off)"},
        {"--slo-max-lost", OptionType::Integer, "0", "0..",
         "healthz SLO: <= N consecutive lost frames (0 = off)"},
        {"--slo-queue-stall-ms", OptionType::Real, "0", "0..",
         "healthz SLO: no pool queue stalled > X ms (0 = off)"},
        {"--trace-requests", OptionType::Flag, "", "",
         "per-frame request traces with tail-based retention "
         "(query /tracez)"},
        {"--trace-sample-rate", OptionType::Real, "0.01", "0..1",
         "retention probability for unflagged frames (implies "
         "--trace-requests)",
         "P"},
        {"--trace-store", OptionType::Integer, "256", "1..",
         "retained-trace ring size (implies --trace-requests)"},
        {"--quiet", OptionType::Flag, "", "",
         "warnings only (suppress INFO output-path lines)"},
        {"--verbose", OptionType::Flag, "", "", "DEBUG logging"},
    });
}

Observability::Observability(const support::Options &options,
                             const char *generator)
    : logLevel(applyLogOptions(checkOutputPaths(options))),
      telemetry(telemetryOptions(options, generator)),
      spans(sessionOptions(options)),
      metrics(options.string("--metrics-json"),
              options.string("--frames-csv"), generator,
              kernelColumnNames())
{
}

void
addKernelOptions(support::Options &options)
{
    const kfusion::KFusionConfig defaults;
    std::string backends;
    for (const std::string &name : kfusion::kernelBackendNames())
        backends += name + "|";
    options.section("kernel and volume backends");
    options.add({
        {"--backend", OptionType::String, defaults.kernelBackend,
         backends + "auto",
         "kernel backend (bit-exact; docs/KERNEL_BACKENDS.md)"},
        {"--volume", OptionType::String, defaults.volumeBackend,
         "dense|sparse", "TSDF map data structure (bit-identical)"},
    });
}

void
applyKernelOptions(const support::Options &options,
                   kfusion::KFusionConfig &config)
{
    config.kernelBackend = options.string("--backend");
    config.volumeBackend = options.string("--volume");
    const std::string problem = config.validate();
    if (!problem.empty())
        options.fail("invalid configuration: " + problem);
}

void
checkKernelInput(const support::Options &options,
                 const kfusion::KFusionConfig &config,
                 const math::CameraIntrinsics &input)
{
    const std::string problem =
        kfusion::KFusion::checkCompatibility(config, input);
    if (!problem.empty())
        options.fail("invalid configuration for " +
                     std::to_string(input.width) + "x" +
                     std::to_string(input.height) +
                     " input: " + problem);
}

support::OptionSpec
threadCountOption(std::string name, std::string help)
{
    return {std::move(name), OptionType::Integer, "0",
            "0.." + std::to_string(kMaxThreads), std::move(help)};
}

void
addDseThreadsOption(support::Options &options)
{
    options.add({threadCountOption(
        "--dse-threads",
        "worker threads (0 = hardware concurrency, 1 = serial)")});
}

} // namespace slambench::core
