#ifndef SLAMBENCH_KFUSION_WORK_COUNTERS_HPP
#define SLAMBENCH_KFUSION_WORK_COUNTERS_HPP

/**
 * @file
 * Deterministic work accounting for every pipeline kernel.
 *
 * SLAMBench measures wall time per kernel on each platform. This
 * reproduction additionally counts *work items* per kernel (pixels
 * filtered, ICP pixel-iterations, voxels touched, raycast steps...),
 * which device models translate into simulated time and energy for
 * platforms we do not have (Odroid-XU3, the 83 Android devices).
 * Work counts are exact and platform-independent, which makes every
 * figure in EXPERIMENTS.md bit-reproducible.
 */

#include <array>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "support/trace.hpp"

namespace slambench::kfusion {

/** Identifiers of the pipeline's compute kernels. */
enum class KernelId : size_t {
    Mm2Meters = 0,   ///< Depth unit conversion + subsampling.
    BilateralFilter, ///< Edge-preserving depth smoothing.
    HalfSample,      ///< Pyramid down-sampling.
    Depth2Vertex,    ///< Back-projection to a vertex map.
    Vertex2Normal,   ///< Normal map from vertex differences.
    Track,           ///< ICP correspondence + residual per pixel.
    Reduce,          ///< ICP normal-equation reduction.
    Solve,           ///< 6x6 solve + pose update.
    Integrate,       ///< TSDF fusion.
    Raycast,         ///< Surface extraction marching.
    RenderVolume,    ///< Visualization raycast (GUI path).
    Count,
};

/** Number of kernels tracked. */
constexpr size_t kNumKernels = static_cast<size_t>(KernelId::Count);

/** @return a short stable name for CSV output. */
const char *kernelName(KernelId id);

/** Work items and host time for all kernels over some interval. */
struct WorkCounts
{
    /** Abstract work items per kernel (kernel-specific unit). */
    std::array<double, kNumKernels> items{};
    /** Approximate memory traffic per kernel, bytes. */
    std::array<double, kNumKernels> bytes{};
    /** Host wall-clock seconds per kernel. */
    std::array<double, kNumKernels> hostSeconds{};
    /**
     * Work items *avoided* per kernel (same unit as items): voxels a
     * culled integration never visited, rays clipped before marching,
     * and so on. items + skipped equals the naive kernel's workload,
     * so optimization wins stay visible in reports without inflating
     * the device models' simulated time.
     */
    std::array<double, kNumKernels> skipped{};

    /** Add @p n work items to kernel @p id. */
    void
    addItems(KernelId id, double n)
    {
        items[static_cast<size_t>(id)] += n;
    }

    /** Add @p n bytes of memory traffic to kernel @p id. */
    void
    addBytes(KernelId id, double n)
    {
        bytes[static_cast<size_t>(id)] += n;
    }

    /** @return bytes for kernel @p id. */
    double
    bytesFor(KernelId id) const
    {
        return bytes[static_cast<size_t>(id)];
    }

    /** Add host time to kernel @p id. */
    void
    addHostSeconds(KernelId id, double s)
    {
        hostSeconds[static_cast<size_t>(id)] += s;
    }

    /** @return items for kernel @p id. */
    double
    itemsFor(KernelId id) const
    {
        return items[static_cast<size_t>(id)];
    }

    /** @return host seconds for kernel @p id. */
    double
    hostSecondsFor(KernelId id) const
    {
        return hostSeconds[static_cast<size_t>(id)];
    }

    /** Add @p n avoided work items to kernel @p id. */
    void
    addSkipped(KernelId id, double n)
    {
        skipped[static_cast<size_t>(id)] += n;
    }

    /** @return avoided work items for kernel @p id. */
    double
    skippedFor(KernelId id) const
    {
        return skipped[static_cast<size_t>(id)];
    }

    /** Component-wise accumulate. */
    void
    merge(const WorkCounts &other)
    {
        for (size_t i = 0; i < kNumKernels; ++i) {
            items[i] += other.items[i];
            bytes[i] += other.bytes[i];
            hostSeconds[i] += other.hostSeconds[i];
            skipped[i] += other.skipped[i];
        }
    }

    /** @return total host seconds across kernels. */
    double totalHostSeconds() const;
    /** @return total work items across kernels (rarely meaningful). */
    double totalItems() const;
};

/**
 * RAII timer adding elapsed wall time (and optionally work items) to
 * a WorkCounts entry on destruction.
 *
 * When tracing is enabled the timer also emits a Category::Kernel
 * span named kernelName(id), so a timeline opened in chrome://tracing
 * carries exactly the names of the `--frames-csv` kernel columns and
 * the span totals reconcile with WorkCounts::hostSecondsFor().
 */
class KernelTimer
{
  public:
    /**
     * @param counts Destination accumulator; must outlive the timer.
     * @param id Kernel being measured.
     */
    KernelTimer(WorkCounts &counts, KernelId id)
        : counts_(counts), id_(id),
          span_(kernelName(id), support::trace::Category::Kernel),
          start_(std::chrono::steady_clock::now())
    {}

    KernelTimer(const KernelTimer &) = delete;
    KernelTimer &operator=(const KernelTimer &) = delete;

    ~KernelTimer()
    {
        const auto end = std::chrono::steady_clock::now();
        counts_.addHostSeconds(
            id_, std::chrono::duration<double>(end - start_).count());
    }

  private:
    WorkCounts &counts_;
    KernelId id_;
    // Declared before start_ so the span opens before timing begins
    // and closes after the host time is accumulated: the span always
    // covers (and slightly exceeds) the counted interval.
    support::trace::ScopedSpan span_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_WORK_COUNTERS_HPP
