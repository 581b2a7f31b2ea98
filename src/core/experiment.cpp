#include "core/experiment.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <mutex>

#include "support/logging.hpp"

namespace slambench::core {

namespace {

/**
 * Per-kernel factors the device models apply to each kernel's
 * itemsPerSecond, one row per modeled implementation
 * (KFusionConfig::modeledImplementation): row 0 the reference
 * kernels, row 1 the vectorized ones. The table is the same on every
 * host; which backend the host pipeline ran never enters it.
 *
 * Row 1 holds the simd backend's per-kernel items_per_second ratios
 * versus scalar, as recorded in BENCH_kernels.json (single core,
 * AVX2; docs/KERNEL_BACKENDS.md has the calibration procedure).
 * Integrate's 0.80 is that file's ratio, from a build where the
 * scalar sweep's early-outs beat the vector gathers; ROADMAP item 5
 * measured the opposite at -O3 (simd integrate faster).
 * Recalibration waits for the item-1 ledger, since any change here
 * moves every DSE objective; for the same reason BilateralFilter
 * stays 1.0 although its AVX2 row is measured faster. RenderVolume
 * shares the marchImage core with Raycast and inherits its factor.
 *
 * Only the compute term of the roofline moves: vectorization does
 * not raise memory bandwidth, so memory-bound kernels see little
 * simulated gain, exactly like on hardware. joulesPerItem is not
 * scaled: a vector unit retires the same arithmetic per item, so
 * energy per item is modeled as implementation-invariant.
 */
constexpr std::array<std::array<double, kfusion::kNumKernels>,
                     kfusion::kNumModeledImplementations>
    kModeledSpeedups{{
        // mm2meters, bilateral_filter, half_sample, depth2vertex,
        // vertex2normal, track, reduce, solve, integrate, raycast,
        // render_volume (KernelId order)
        {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
        {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.70, 1.0, 0.80, 2.60, 2.60},
    }};
static_assert(kfusion::kNumKernels == 11,
              "kModeledSpeedups needs one column per kernel");

} // namespace

double
modeledKernelSpeedup(int implementation, kfusion::KernelId id)
{
    return kModeledSpeedups.at(static_cast<size_t>(implementation))
        .at(static_cast<size_t>(id));
}

double
volumeBytes(const kfusion::KFusionConfig &config)
{
    const double r = static_cast<double>(config.volumeResolution);
    return r * r * r * static_cast<double>(sizeof(kfusion::Voxel));
}

EvaluatedConfig
evaluateConfigOnDevice(const kfusion::KFusionConfig &config,
                       const dataset::Sequence &sequence,
                       const devices::DeviceModel &device,
                       const DseObjectiveOptions &options)
{
    EvaluatedConfig record;
    record.config = config;

    if (options.enforceMemoryBudget &&
        volumeBytes(config) > device.memoryBudgetBytes) {
        // The configuration does not fit on the device at all.
        record.valid = false;
        return record;
    }

    if (!kfusion::KFusion::checkCompatibility(config,
                                              sequence.intrinsics)
             .empty()) {
        // The configuration cannot run on this input size (e.g. the
        // compute-size ratio shrinks the image below the minimum).
        record.valid = false;
        return record;
    }

    KFusionSystem system(config);
    BenchmarkOptions bench_options;
    bench_options.alignedAte = false;
    record.bench = runBenchmark(system, sequence, bench_options);

    record.ate = record.bench.ate;
    record.trackedFraction = record.bench.trackedFraction();
    // The host ran config.kernelBackend, which moves no result; the
    // device models the sampled implementation instead.
    devices::DeviceModel modeled = device;
    for (size_t k = 0; k < kfusion::kNumKernels; ++k)
        modeled.itemsPerSecond[k] *= modeledKernelSpeedup(
            config.modeledImplementation, static_cast<kfusion::KernelId>(k));
    record.simulated =
        devices::simulateRun(modeled, record.bench.frameWork);
    record.valid =
        record.trackedFraction >= options.minTrackedFraction &&
        std::isfinite(record.ate.maxAte);
    return record;
}

hypermapper::Evaluator
makeDseEvaluator(const hypermapper::ParameterSpace &space,
                 const dataset::Sequence &sequence,
                 const devices::DeviceModel &device,
                 const DseObjectiveOptions &options,
                 std::vector<EvaluatedConfig> *log)
{
    // The lambda copies the space and device; the sequence is large,
    // so callers must keep it alive (noted in the header docs). The
    // parallel DSE drivers invoke the evaluator concurrently, so the
    // shared log is guarded (records land in completion order).
    auto log_mutex = std::make_shared<std::mutex>();
    return [&sequence, space, device, options, log,
            log_mutex](const hypermapper::Point &point)
               -> hypermapper::EvaluationOutcome {
        const kfusion::KFusionConfig config =
            pointToConfig(space, point);
        const EvaluatedConfig record = evaluateConfigOnDevice(
            config, sequence, device, options);
        if (log) {
            std::lock_guard<std::mutex> lock(*log_mutex);
            log->push_back(record);
        }

        hypermapper::EvaluationOutcome outcome;
        outcome.valid = record.valid;
        outcome.objectives.assign(kNumObjectives, 0.0);
        outcome.objectives[kObjRuntime] =
            record.simulated.meanFrameSeconds;
        outcome.objectives[kObjMaxAte] = record.ate.maxAte;
        outcome.objectives[kObjWatts] = record.simulated.pacedWatts;
        return outcome;
    };
}

hypermapper::Evaluator
makeMultiSequenceEvaluator(const hypermapper::ParameterSpace &space,
                           const std::vector<dataset::Sequence> &sequences,
                           const devices::DeviceModel &device,
                           const DseObjectiveOptions &options)
{
    if (sequences.empty())
        support::fatal("makeMultiSequenceEvaluator: no sequences");
    return [&sequences, space, device,
            options](const hypermapper::Point &point)
               -> hypermapper::EvaluationOutcome {
        const kfusion::KFusionConfig config =
            pointToConfig(space, point);
        hypermapper::EvaluationOutcome outcome;
        outcome.valid = true;
        outcome.objectives.assign(kNumObjectives, 0.0);
        for (const dataset::Sequence &sequence : sequences) {
            const EvaluatedConfig record = evaluateConfigOnDevice(
                config, sequence, device, options);
            outcome.valid = outcome.valid && record.valid;
            outcome.objectives[kObjRuntime] +=
                record.simulated.meanFrameSeconds;
            outcome.objectives[kObjWatts] +=
                record.simulated.pacedWatts;
            outcome.objectives[kObjMaxAte] =
                std::max(outcome.objectives[kObjMaxAte],
                         record.ate.maxAte);
        }
        const double n = static_cast<double>(sequences.size());
        outcome.objectives[kObjRuntime] /= n;
        outcome.objectives[kObjWatts] /= n;
        return outcome;
    };
}

std::vector<FleetEntry>
replayOnFleet(const std::vector<devices::DeviceModel> &fleet,
              const std::vector<kfusion::WorkCounts> &default_run,
              double default_volume_bytes,
              const std::vector<kfusion::WorkCounts> &tuned_run,
              double tuned_volume_bytes)
{
    std::vector<FleetEntry> entries;
    entries.reserve(fleet.size());
    for (const devices::DeviceModel &device : fleet) {
        FleetEntry entry;
        entry.device = device.name;
        entry.deviceClass = devices::deviceClassName(device.deviceClass);
        entry.ranDefault =
            default_volume_bytes <= device.memoryBudgetBytes;
        entry.ranTuned = tuned_volume_bytes <= device.memoryBudgetBytes;
        if (entry.ranDefault) {
            entry.defaultSeconds =
                devices::simulateRun(device, default_run)
                    .meanFrameSeconds;
        }
        if (entry.ranTuned) {
            entry.tunedSeconds =
                devices::simulateRun(device, tuned_run)
                    .meanFrameSeconds;
        }
        if (entry.ranDefault && entry.ranTuned &&
            entry.tunedSeconds > 0.0) {
            entry.speedup = entry.defaultSeconds / entry.tunedSeconds;
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

} // namespace slambench::core
