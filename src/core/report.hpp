#ifndef SLAMBENCH_CORE_REPORT_HPP
#define SLAMBENCH_CORE_REPORT_HPP

/**
 * @file
 * SLAMBench-style run reporting: the per-frame metric log (one CSV
 * row per frame: kernel times, tracking state, pose error) and the
 * human-readable summary block the original benchmark binaries
 * print at the end of a run.
 */

#include <ostream>
#include <string>

#include "core/benchmark.hpp"
#include "devices/device_model.hpp"
#include "support/metrics.hpp"

namespace slambench::core {

/**
 * Write the per-frame log: frame index, host kernel times, work
 * items for the dominant kernels, per-frame ATE, and the simulated
 * device frame time.
 *
 * @param out Destination stream.
 * @param result A finished benchmark run.
 * @param device Device model used for the simulated column.
 * @return number of rows written.
 */
size_t writeFrameLog(std::ostream &out, const BenchmarkResult &result,
                     const devices::DeviceModel &device);

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
 * Append every frame row of @p result to @p session (no-op when the
 * session is inactive), labeled @p label and with the modeled energy
 * of @p device's simulated power monitor (0 J without one), and fold
 * the run into the process metrics registry (`frame_wall_seconds` /
 * `frame_ate_m` histograms and the run counters the report's
 * `histograms` section is built from).
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
