#ifndef SLAMBENCH_CORE_CLI_OPTIONS_HPP
#define SLAMBENCH_CORE_CLI_OPTIONS_HPP

/**
 * @file
 * The option groups every benchmark binary shares, declared once on
 * top of support::Options: observability (profiling, run reports,
 * live telemetry, request tracing, log level), the kernel and volume
 * backends, and the DSE worker-thread count. Each binary adds only
 * its own extra rows.
 */

#include "kfusion/config.hpp"
#include "math/camera.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/options.hpp"
#include "support/telemetry_server.hpp"
#include "support/trace.hpp"

namespace slambench::core {

/**
 * Declare the observability group (docs/OBSERVABILITY.md): the run
 * report (`--metrics-json`, `--frames-csv`), live telemetry
 * (`--telemetry-port`, `--crash-dump`, `--recorder-slots`,
 * `--slo-*`), request tracing (`--trace-requests`,
 * `--trace-sample-rate`, `--trace-store`) and `--quiet`/`--verbose`.
 *
 * @param profiling Also declare the span timeline (`--trace`).
 */
void addObservabilityOptions(support::Options &options,
                             bool profiling = true);

/**
 * Fail (Options::fail, exit 2) when a given `--trace`,
 * `--metrics-json`, `--frames-csv` or `--crash-dump` path's directory
 * is missing or not writable, so a bad path costs no work and a crash
 * still finds somewhere to write its dump. Creates no file; flags
 * @p options does not declare are skipped.
 *
 * @return @p options, so a constructor can check first.
 */
const support::Options &checkOutputPaths(const support::Options &options);

/**
 * The sessions the observability group arms, in the order they must
 * start. Construct after parsing and keep alive for the whole run;
 * each is inert when none of its flags was given. The telemetry
 * endpoint starts first and so stops last: its crash dump then covers
 * the other sessions' shutdown writes (run report, trace export).
 */
struct Observability
{
    /**
     * Runs checkOutputPaths() before starting any session.
     *
     * @param generator Binary name stamped into reports and dumps.
     */
    Observability(const support::Options &options, const char *generator);

    /** Threshold set by `--quiet`/`--verbose`, applied first. */
    support::LogLevel logLevel;
    support::telemetry::TelemetryEndpoint telemetry;
    /** The span sinks: `--trace`, `--trace-*`. */
    support::trace::Session spans;
    /** The run report and the per-frame table, with one
     *  `kernel_<name>_*` column pair per KernelId. */
    support::metrics::RunSession metrics;
};

/**
 * Declare the kernel/volume group: `--backend`, `--volume`
 * (docs/KERNEL_BACKENDS.md, docs/ARCHITECTURE.md "The volume backend
 * axis"). All choices are bit-exact, so these move only the
 * performance and memory axes.
 */
void addKernelOptions(support::Options &options);

/**
 * Apply the kernel/volume group to @p config, then check the whole
 * configuration with KFusionConfig::validate(); a problem is a usage
 * error (exit 2).
 */
void applyKernelOptions(const support::Options &options,
                        kfusion::KFusionConfig &config);

/**
 * Check that @p config can run on input frames with intrinsics
 * @p input (KFusion::checkCompatibility: the compute image and every
 * pyramid level large enough); a problem is a usage error (exit 2),
 * raised before any input is synthesized.
 */
void checkKernelInput(const support::Options &options,
                      const kfusion::KFusionConfig &config,
                      const math::CameraIntrinsics &input);

/**
 * Largest worker-thread count any binary accepts (`--dse-threads`,
 * `--serve-threads`, the examples' thread arguments). A ThreadPool
 * starts every thread it is asked for, so a larger count is a usage
 * error, not a request.
 */
inline constexpr long kMaxThreads = 1024;

/**
 * The option row of a worker-thread count named @p name: an integer
 * in 0..kMaxThreads, default 0 (hardware concurrency).
 */
support::OptionSpec threadCountOption(std::string name, std::string help);

/**
 * Declare `--dse-threads N` (0..kMaxThreads): worker threads for
 * parallel evaluation (0 = hardware concurrency, 1 = serial). Any
 * value gives byte-identical results; only the wall clock changes.
 */
void addDseThreadsOption(support::Options &options);

} // namespace slambench::core

#endif // SLAMBENCH_CORE_CLI_OPTIONS_HPP
