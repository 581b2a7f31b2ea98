#ifndef SLAMBENCH_CORE_EXPERIMENT_HPP
#define SLAMBENCH_CORE_EXPERIMENT_HPP

/**
 * @file
 * Glue for the paper's experiments: the DSE objective function
 * (configuration -> simulated runtime / Max ATE / power on a target
 * device) and helpers to replay a run across device fleets.
 */

#include <functional>
#include <vector>

#include "core/benchmark.hpp"
#include "core/config_binding.hpp"
#include "devices/device_model.hpp"
#include "hypermapper/drivers.hpp"

namespace slambench::core {

/** Objective vector layout produced by the evaluator. */
enum ObjectiveIndex : size_t {
    kObjRuntime = 0, ///< Mean simulated seconds/frame on the device.
    kObjMaxAte = 1,  ///< Max ATE, meters.
    kObjWatts = 2,   ///< Camera-paced simulated power, watts.
    kNumObjectives = 3,
};

/** What one DSE evaluation produced (kept for reporting). */
struct EvaluatedConfig
{
    kfusion::KFusionConfig config;
    devices::SimulatedRun simulated;
    metrics::AteResult ate;
    double trackedFraction = 0.0;
    bool valid = false;
    /**
     * The full benchmark run behind the objectives (per-frame work,
     * times, tracking flags). Empty (frames == 0) when the
     * configuration was rejected before running. Feeds per-frame
     * telemetry into run reports.
     */
    BenchmarkResult bench;
};

/** Options of the DSE objective. */
struct DseObjectiveOptions
{
    /** Runs whose tracked fraction falls below this are invalid. */
    double minTrackedFraction = 0.9;
    /**
     * Volume memory (resolution^3 * 8 bytes) above the device budget
     * makes the configuration invalid (it would not run).
     */
    bool enforceMemoryBudget = true;
};

/**
 * Build the HyperMapper evaluator for the paper's DSE: run the full
 * pipeline on @p sequence and report simulated objectives on
 * @p device.
 *
 * The returned callable owns copies of everything it needs and is
 * safe to call repeatedly and concurrently (the parallel DSE drivers
 * evaluate batches on a thread pool; the shared @p log is guarded
 * internally and fills in completion order); every call runs the
 * complete SLAM pipeline (no caching, evaluations are deterministic
 * anyway).
 *
 * @param space Design space (kfusionParameterSpace()).
 * @param sequence Workload.
 * @param device Target device model.
 * @param options Validity rules.
 * @param[out] log When non-null, every evaluation's detail record is
 *                 appended in completion order. With the parallel DSE
 *                 drivers (threads > 1) that order is nondeterministic
 *                 and thread-count dependent — do not rely on index
 *                 alignment with the evaluation sequence.
 */
hypermapper::Evaluator
makeDseEvaluator(const hypermapper::ParameterSpace &space,
                 const dataset::Sequence &sequence,
                 const devices::DeviceModel &device,
                 const DseObjectiveOptions &options = {},
                 std::vector<EvaluatedConfig> *log = nullptr);

/**
 * Run one configuration end-to-end and simulate it on one device.
 *
 * @param config Pipeline configuration.
 * @param sequence Workload.
 * @param device Target device model.
 * @return full detail record (valid flag per the default options).
 */
EvaluatedConfig evaluateConfigOnDevice(
    const kfusion::KFusionConfig &config,
    const dataset::Sequence &sequence,
    const devices::DeviceModel &device,
    const DseObjectiveOptions &options = {});

/**
 * Evaluator over several sequences: each configuration runs on every
 * sequence and the reported objectives are the worst case (runtime
 * and power: mean across sequences; Max ATE: max across sequences;
 * invalid if any run is invalid). The companion studies tune over
 * multiple trajectories for exactly this robustness.
 *
 * @param space Design space.
 * @param sequences Workloads; must stay alive while the evaluator
 *                  is used.
 * @param device Target device model.
 * @param options Validity rules.
 */
hypermapper::Evaluator makeMultiSequenceEvaluator(
    const hypermapper::ParameterSpace &space,
    const std::vector<dataset::Sequence> &sequences,
    const devices::DeviceModel &device,
    const DseObjectiveOptions &options = {});

/** One device's entry in the Fig. 3 readout. */
struct FleetEntry
{
    std::string device;
    std::string deviceClass;
    double defaultSeconds = 0.0; ///< Mean frame seconds, default cfg.
    double tunedSeconds = 0.0;   ///< Mean frame seconds, tuned cfg.
    double speedup = 0.0;        ///< defaultSeconds / tunedSeconds.
    bool ranDefault = true;      ///< Default cfg fit in memory.
    bool ranTuned = true;        ///< Tuned cfg fit in memory.
};

/**
 * Replay two recorded runs (default and tuned per-frame work) across
 * a device fleet, producing the Fig. 3 speed-up table.
 *
 * @param fleet Device models.
 * @param default_run Per-frame work of the default configuration.
 * @param default_volume_bytes TSDF bytes of the default config.
 * @param tuned_run Per-frame work of the tuned configuration.
 * @param tuned_volume_bytes TSDF bytes of the tuned config.
 */
std::vector<FleetEntry> replayOnFleet(
    const std::vector<devices::DeviceModel> &fleet,
    const std::vector<kfusion::WorkCounts> &default_run,
    double default_volume_bytes,
    const std::vector<kfusion::WorkCounts> &tuned_run,
    double tuned_volume_bytes);

/**
 * Factor the device models apply to kernel @p id's itemsPerSecond
 * under modeled implementation @p implementation
 * (KFusionConfig::modeledImplementation; 0 = reference kernels,
 * 1 = vectorized kernels). Throws std::out_of_range outside [0,
 * kfusion::kNumModeledImplementations).
 */
double modeledKernelSpeedup(int implementation, kfusion::KernelId id);

/** @return TSDF volume footprint in bytes for a configuration. */
double volumeBytes(const kfusion::KFusionConfig &config);

} // namespace slambench::core

#endif // SLAMBENCH_CORE_EXPERIMENT_HPP
