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
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/options.hpp"
#include "support/pmu.hpp"
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
 * @param profiling Also declare per-kernel profiling (`--trace`,
 *     `--perf-csv`, `--pmu`).
 */
void addObservabilityOptions(support::Options &options,
                             bool profiling = true);

/**
 * The sessions the observability group arms, in the order they must
 * start. Construct after parsing and keep alive for the whole run;
 * each is inert when none of its flags was given.
 */
struct Observability
{
    /** @param generator Binary name stamped into reports and dumps. */
    Observability(const support::Options &options, const char *generator);

    /** Threshold set by `--quiet`/`--verbose`, applied first. */
    support::LogLevel logLevel;
    support::trace::Session trace;
    support::pmu::Session pmu;
    support::metrics::RunSession metrics;
    support::telemetry::TelemetryEndpoint telemetry;
    support::trace::RequestTraceSession requestTraces;
};

/**
 * Declare the kernel/volume group: `--backend`, `--volume`,
 * `--block-size`, `--pool-capacity` (docs/KERNEL_BACKENDS.md,
 * docs/ARCHITECTURE.md "Volume backends"). All choices are
 * bit-exact, so these move only the performance and memory axes.
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
 * Declare `--dse-threads N`: worker threads for parallel evaluation
 * (0 = hardware concurrency, 1 = serial). Any value gives
 * byte-identical results; only the wall clock changes.
 */
void addDseThreadsOption(support::Options &options);

} // namespace slambench::core

#endif // SLAMBENCH_CORE_CLI_OPTIONS_HPP
