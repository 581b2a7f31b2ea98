#ifndef SLAMBENCH_KFUSION_BACKEND_HPP
#define SLAMBENCH_KFUSION_BACKEND_HPP

/**
 * @file
 * Kernel backends: named implementations of the seven hot kernels
 * of the frame loop.
 *
 * SLAMBench's founding idea is comparing multiple implementations of
 * the same kernels under one accuracy/performance harness. The
 * backends reproduce that implementation axis for the hot path:
 *
 *  1. the per-column TSDF integrate sweep
 *     (KernelBackend::integrateColumn),
 *  2. the fused TSDF gradient (KernelBackend::grad),
 *  3. the shared marchImage ray-march core, vectorized as ray
 *     packets on either volume (KernelBackend::castRays),
 *  4. the ICP reduction over a pixel range
 *     (KernelBackend::reduceRange),
 *  5. one row of the bilateral filter (KernelBackend::bilateralRow),
 *     whose range weights come from kfusion::expf (expf.hpp),
 *  6. one row of the ICP correspondence search (KernelBackend::trackRow),
 *  7. one row of the normal map (KernelBackend::vertex2normalRow).
 *
 * There is one backend per ISA, held in a fixed table in
 * backend.cpp:
 *
 *  0. "scalar": the reference for the baseline ISA. Every other
 *     backend is tested against it.
 *  1. "simd": the AVX2 backend that backend_avx2.cpp exports when it
 *     is compiled with -mavx2, installed when the CPU supports AVX2
 *     (simdBackendIsAccelerated()); otherwise the scalar kernels
 *     under this name.
 *
 * The special name "auto" resolves to "simd" when
 * simdBackendIsAccelerated() and to "scalar" otherwise,
 * deterministically for a given machine.
 *
 * Numerical-parity contract (docs/ARCHITECTURE.md): all seven simd
 * kernels are bit-exact against scalar by construction. Each vector
 * lane replays the scalar operation sequence of exactly one work
 * item (one voxel, one sample, one ray, one output pixel), and the
 * ICP reduction is vectorized across its 28 accumulator slots rather
 * than across pixels, so no floating-point operation is reassociated
 * anywhere.
 * tests/kfusion_parity_test.cpp enforces the contract for every
 * backend in the table.
 */

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "kfusion/kernels.hpp"
#include "kfusion/ray_march.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/sparse_volume.hpp"
#include "kfusion/tracking.hpp"
#include "kfusion/volume.hpp"
#include "kfusion/work_counters.hpp"
#include "math/camera.hpp"
#include "math/vec.hpp"
#include "support/image.hpp"

namespace slambench::kfusion {

/** Maximum rays per KernelBackend::castRays packet. */
inline constexpr size_t kRayPacketWidth = 8;


/**
 * Read-only context shared by every column of one integrate call
 * (the loop invariants TsdfVolume::integrateImpl hoists).
 */
struct IntegrateContext
{
    const float *depth = nullptr; ///< Metric depth image, row-major.
    size_t width = 0;             ///< Depth image width, pixels.
    size_t height = 0;            ///< Depth image height, pixels.
    const float *lambda = nullptr; ///< Per-pixel lambda table.
    math::CameraIntrinsics intrinsics; ///< Depth image intrinsics.
    float mu = 0.1f;              ///< Truncation band, meters.
    float invMu = 10.0f;          ///< 1 / mu (hoisted).
    float maxWeight = 100.0f;     ///< Weight saturation bound.
    math::Vec3f step;             ///< Camera-frame z step per voxel.
};

/**
 * Record that an integrateColumn kernel moved voxel @p z of its column
 * from tsdf == 1 to tsdf != 1: set the bit of every z-brick whose
 * apron holds it (brick z / kBrickEdge, and the brick below when z is
 * on a brick's low face).
 *
 * @param[in,out] dirty One bit per z-brick of the column.
 * @param z Voxel index within the column.
 */
inline void
markDirtyZ(uint64_t *dirty, int z)
{
    const int b = z >> kBrickShift;
    dirty[b >> 6] |= uint64_t{1} << (b & 63);
    if ((z & (kBrickEdge - 1)) == 0 && b > 0)
        dirty[(b - 1) >> 6] |= uint64_t{1} << ((b - 1) & 63);
}

/**
 * One named implementation of the seven hot kernels.
 *
 * Implementations are stateless (safe to call concurrently from the
 * thread pool) and live for the whole process.
 */
class KernelBackend
{
  public:
    virtual ~KernelBackend() = default;

    /** @return the backend name ("scalar" or "simd"). */
    virtual const char *name() const = 0;

    /**
     * Fuse one voxel column's z range into the volume (the inner
     * loop of TsdfVolume::integrateImpl).
     *
     * @param ctx Loop invariants of this integrate call.
     * @param column Voxel column base (z-contiguous storage).
     * @param z_begin First z index to visit (inclusive).
     * @param z_end Last z index to visit (exclusive).
     * @param pos Camera-frame position of voxel @p z_begin, produced
     *            by the caller's incremental `pos += step` sweep.
     * @param[in,out] dirty One bit per z-brick of the column; the
     *            kernel sets markDirtyZ() bits for every voxel it
     *            moves from tsdf == 1 to tsdf != 1 (the free-brick
     *            upkeep; a voxel already != 1 had its bricks cleared
     *            when it left 1) and clears none.
     */
    virtual void integrateColumn(const IntegrateContext &ctx,
                                 Voxel *column, int z_begin, int z_end,
                                 math::Vec3f pos,
                                 uint64_t *dirty) const = 0;

    /**
     * Fused TSDF gradient at world point @p p; must match
     * TsdfVolume::grad bit-for-bit (see the parity contract).
     */
    virtual math::Vec3f grad(const TsdfVolume &volume,
                             const math::Vec3f &p) const = 0;

    /**
     * Cast a packet of up to kRayPacketWidth rays (the per-pixel core
     * of marchImage); each lane must match marchRay bit-for-bit in
     * found, hit and steps. An implementation may honour the
     * volume's free-brick flags or ignore them: a skipped fetch can
     * change neither the step decision nor the refined hit (see
     * docs/ARCHITECTURE.md), so both are exact. RayHit::skipped
     * reports the fetches it elided.
     *
     * @param volume Fused TSDF volume.
     * @param origin Shared ray origin (world).
     * @param dirs Unit ray directions, @p count entries.
     * @param count Rays in the packet (1..kRayPacketWidth).
     * @param params Stepping parameters.
     * @param[out] hits Per-ray results, @p count entries written.
     */
    virtual void castRays(const TsdfVolume &volume,
                          const math::Vec3f &origin,
                          const math::Vec3f *dirs, size_t count,
                          const RaycastParams &params,
                          RayHit *hits) const = 0;

    /**
     * castRays on the sparse volume, under the same contract: each
     * lane matches marchRay on it (and so on the dense volume of the
     * same integrates) bit-for-bit in found, hit and steps.
     */
    virtual void castRays(const SparseTsdfVolume &volume,
                          const math::Vec3f &origin,
                          const math::Vec3f *dirs, size_t count,
                          const RaycastParams &params,
                          RayHit *hits) const = 0;

    /**
     * Sum the ICP normal equations over pixels [begin, end) of
     * @p track_data (one chunk of reduceKernel).
     */
    virtual ReductionResult
    reduceRange(const support::Image<TrackData> &track_data,
                size_t begin, size_t end) const = 0;

    /**
     * Filter row @p y of a bilateral filter call (the per-row body of
     * bilateralFilterKernel); every output pixel must match
     * bilateralPixels() bit for bit.
     */
    virtual void bilateralRow(const BilateralContext &ctx,
                              size_t y) const = 0;

    /**
     * Track live row @p y of a trackKernel call (the per-row body);
     * every pixel must match trackPixels() bit for bit. A pixel
     * whose result is not Ok gets only its result written: its error
     * and jacobian, and the record's padding, keep their bytes.
     */
    virtual void trackRow(const TrackContext &ctx, size_t y) const = 0;

    /**
     * Compute normal row @p y of a vertex2normalKernel call; every
     * output pixel must match vertex2normalPixels() bit for bit.
     */
    virtual void vertex2normalRow(const Vertex2NormalContext &ctx,
                                  size_t y) const = 0;
};

/**
 * Look up a backend by exact name ("auto" is not a backend name; see
 * resolveKernelBackend).
 *
 * @return the backend, or nullptr when unknown.
 */
const KernelBackend *findKernelBackend(std::string_view name);

/**
 * Resolve a user-facing `--backend` value.
 *
 * Accepts every backend name plus "auto", which resolves to "simd"
 * when simdBackendIsAccelerated(), else to "scalar".
 *
 * @param name Requested backend name.
 * @param[out] error When non-null and resolution fails, receives a
 *             one-line message listing the valid names.
 * @return the backend, or nullptr when @p name is unknown.
 */
const KernelBackend *resolveKernelBackend(std::string_view name,
                                          std::string *error = nullptr);

/** @return the backend names in table order: {"scalar", "simd"}. */
std::vector<std::string> kernelBackendNames();

/** @return the built-in scalar reference backend. */
const KernelBackend &scalarKernelBackend();

/**
 * @return true when the "simd" backend runs its AVX2 kernels on this
 * host (compiled in and CPU-supported); false means it runs the
 * scalar kernels.
 */
bool simdBackendIsAccelerated();

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_BACKEND_HPP
