#ifndef SLAMBENCH_KFUSION_CONFIG_HPP
#define SLAMBENCH_KFUSION_CONFIG_HPP

/**
 * @file
 * Algorithmic configuration of the KinectFusion pipeline.
 *
 * These are exactly the parameters exposed by SLAMBench and explored
 * by HyperMapper in the paper: compute-size ratio, ICP convergence
 * threshold, mu (TSDF truncation), integration rate, volume
 * resolution, pyramid iteration counts, tracking and rendering rates.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "math/vec.hpp"

namespace slambench::kfusion {

/** ICP residual formulation (ablation knob, not in the DSE space). */
enum class IcpResidual {
    PointToPlane, ///< KinectFusion's formulation (default).
    PointToPoint, ///< Classic ICP: minimize correspondence distance.
};

/**
 * All algorithmic knobs of the pipeline, with SLAMBench defaults.
 */
struct KFusionConfig
{
    /**
     * Input down-scaling ratio; the pipeline runs on
     * (width / ratio) x (height / ratio) images. Power of two in
     * {1, 2, 4, 8}.
     */
    int computeSizeRatio = 1;

    /**
     * ICP early-termination threshold on the twist-update norm.
     */
    float icpThreshold = 1e-5f;

    /** TSDF truncation band, meters. */
    float mu = 0.1f;

    /** Integrate the depth map into the volume every Nth frame. */
    int integrationRate = 2;

    /** Voxels per volume edge (the volume is cubic). */
    int volumeResolution = 256;

    /** Volume edge length, meters. */
    float volumeSize = 4.8f;

    /** World position of the volume's minimum corner. */
    math::Vec3f volumeOrigin{-2.4f, -0.4f, -2.4f};

    /**
     * ICP iterations per pyramid level, finest first. The vector
     * length sets the number of pyramid levels.
     */
    std::vector<int> pyramidIterations{10, 5, 4};

    /** Run the tracker every Nth frame. */
    int trackingRate = 1;

    /** Render the visualization output every Nth frame. */
    int renderingRate = 4;

    /**
     * Kernel backend for the five hot kernels (TSDF integrate, fused
     * gradient, ray-march core, ICP reduction, bilateral filter row):
     * a name in the kernel-backend table ("scalar", "simd") or
     * "auto" for CPUID-based dispatch. See docs/KERNEL_BACKENDS.md. All
     * backends are bit-exact against "scalar", so this moves host
     * time only: no pose, image, work count or modeled number
     * depends on it.
     */
    std::string kernelBackend = "auto";

    /**
     * Kernel implementation the analytic device models assume: the
     * DSE's "implementation" ordinal, 0 = reference kernels,
     * 1 = vectorized kernels (one row each of the per-kernel rate
     * factors in core/experiment.cpp). Read only by the device model;
     * the host pipeline ignores it, whatever kernelBackend runs.
     * Unrelated to Implementation, the `--impl sequential|threaded`
     * switch, which moves no modeled number.
     */
    int modeledImplementation = 0;

    /**
     * TSDF map data structure: "dense" (z-major array,
     * O(resolution^3) memory, the numerical reference) or "sparse"
     * (hashed 8^3-voxel blocks, memory proportional to observed
     * surface, bit-identical to dense on the observed region). Not a
     * DSE dimension: it moves no objective, so every DSE evaluation
     * runs the dense map. See docs/ARCHITECTURE.md "The volume
     * backend axis".
     */
    std::string volumeBackend = "dense";

    // --- Fixed algorithm constants (SLAMBench values). ---

    /** Bilateral filter half window (radius 2 = 5x5 kernel). */
    int filterRadius = 2;
    /** Bilateral filter spatial sigma, pixels. */
    float gaussianDelta = 4.0f;
    /** Bilateral filter range sigma, meters. */
    float eDelta = 0.1f;
    /** ICP correspondence distance gate, meters. */
    float distThreshold = 0.1f;
    /** ICP correspondence normal gate (cosine). */
    float normalThreshold = 0.8f;
    /** TSDF maximum integration weight. */
    float maxWeight = 100.0f;
    /** Raycast near plane, meters. */
    float nearPlane = 0.4f;
    /** Raycast far plane, meters. */
    float farPlane = 4.5f;
    /** Minimum fraction of tracked pixels for a pose to be accepted. */
    float trackInlierFraction = 0.10f;
    /** Maximum ICP RMS residual for a pose to be accepted, meters. */
    float trackResidualLimit = 2e-2f;
    /** Residual formulation used by the tracker. */
    IcpResidual icpResidual = IcpResidual::PointToPlane;

    /** @return number of pyramid levels (>= 1). */
    size_t levels() const { return pyramidIterations.size(); }

    /** @return voxel edge length, meters. */
    float
    voxelSize() const
    {
        return volumeSize / static_cast<float>(volumeResolution);
    }

    /**
     * Validate ranges; returns a human-readable problem description.
     *
     * @return empty string when the configuration is usable.
     */
    std::string validate() const;

    /** One-line summary of the explored parameters. */
    std::string toString() const;
};

/** Number of modeled kernel implementations (see modeledImplementation). */
inline constexpr int kNumModeledImplementations = 2;

/** Implementation flavor of the compute kernels. */
enum class Implementation {
    Sequential, ///< Single-threaded reference kernels.
    Threaded,   ///< ThreadPool-parallel kernels (OpenMP stand-in).
};

/** @return "sequential" or "threaded". */
const char *implementationName(Implementation impl);

/** @return true when @p name names a built-in volume backend. */
bool volumeBackendNameValid(const std::string &name);

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_CONFIG_HPP
