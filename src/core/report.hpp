#ifndef SLAMBENCH_CORE_REPORT_HPP
#define SLAMBENCH_CORE_REPORT_HPP

/**
 * @file
 * SLAMBench-style run reporting: the rows of the per-frame table
 * (`--frames-csv`: per-kernel time and items, tracking state, pose
 * error, modeled device cost) and the human-readable summary block
 * the original benchmark binaries print at the end of a run.
 */

#include <string>
#include <vector>

#include "core/benchmark.hpp"
#include "core/odometry.hpp"
#include "devices/device_model.hpp"
#include "support/metrics.hpp"

namespace slambench::core {

/**
 * @return the kernelName() of every KernelId in enum order: the
 * kernel names a RunSession's per-frame table is built with, so its
 * `kernel_<name>_ms` / `kernel_<name>_items` columns line up with
 * FrameTelemetry's kernel vectors.
 */
std::vector<std::string> kernelColumnNames();

/**
 * Format the end-of-run summary block (the metric triple plus
 * per-kernel totals), mirroring the original SLAMBench output.
 *
 * @param result A finished benchmark run.
 * @param device Device model for simulated speed/power.
 * @param system_name Name of the SLAM system that produced it.
 * @return multi-line text.
 */
std::string summarizeRun(const BenchmarkResult &result,
                         const devices::DeviceModel &device,
                         const std::string &system_name);

/**
 * Record the explored pipeline parameters into a run-report session
 * (the `config` object of the JSON schema), using the SLAMBench flag
 * names (`csr`, `icp`, `mu`, `ir`, `vr`, `vs`, `pyramid`, `tr`,
 * `rr`).
 */
void addConfigParams(support::metrics::RunSession &session,
                     const kfusion::KFusionConfig &config);

/**
 * Record the parameters the odometry baseline uses (`csr`, `icp`,
 * `pyramid`, and `kernel.backend`, always "scalar"): addConfigParams
 * without the map and rate fields it ignores.
 */
void addOdometryParams(support::metrics::RunSession &session,
                       const OdometryConfig &config);

/**
 * Append every frame row of @p result to @p session (no-op when the
 * session is inactive), labeled @p label and with @p device's modeled
 * cost of the frame's work: `sim_joules` = frameJoules(work) and
 * `sim_seconds` = frameSeconds(work), both 0 without a device. Fold
 * the run into the process metrics registry: the `frame_wall_seconds`
 * / `frame_ate_m` histograms, the run counters the report's
 * `histograms` section is built from, and (with a device) the
 * `power.sim_joules` / `power.sim_watts` gauges of the run's running
 * energy and time sums.
 *
 * @return number of frames appended.
 */
size_t appendRunTelemetry(support::metrics::RunSession &session,
                          const std::string &label,
                          const BenchmarkResult &result,
                          const devices::DeviceModel *device =
                              nullptr);

} // namespace slambench::core

#endif // SLAMBENCH_CORE_REPORT_HPP
