#ifndef SLAMBENCH_KFUSION_VOLUME_HPP
#define SLAMBENCH_KFUSION_VOLUME_HPP

/**
 * @file
 * Truncated signed distance function (TSDF) volume and depth-map
 * fusion, the map representation of KinectFusion.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kfusion/integrate_cull.hpp"
#include "kfusion/work_counters.hpp"
#include "math/camera.hpp"
#include "math/mat.hpp"
#include "math/vec.hpp"
#include "support/image.hpp"
#include "support/thread_pool.hpp"

namespace slambench::kfusion {

using math::CameraIntrinsics;
using math::Mat4f;
using math::Vec3f;
using math::Vec3i;

class KernelBackend;

/** log2 of the free-space brick edge. */
inline constexpr int kBrickShift = 3;
/** Edge of a free-space brick, voxels (the ray marcher's skip unit). */
inline constexpr int kBrickEdge = 1 << kBrickShift;

/** One voxel: truncated SDF value in [-1, 1] and fusion weight. */
struct Voxel
{
    float tsdf = 1.0f;
    float weight = 0.0f;
};

/** Resident-memory snapshot of a dense or sparse volume. */
struct VolumeMemoryStats
{
    /** Blocks currently resident (0 for the dense volume). */
    uint64_t allocatedBlocks = 0;
    /** Blocks swept by the most recent integrate(). */
    uint64_t touchedBlocks = 0;
    /** Resident bytes: voxel storage plus index structures. */
    uint64_t bytes = 0;
};

/**
 * Free-space bricks of a cubic voxel grid: one flag byte per
 * kBrickEdge^3 brick. A set flag means every voxel of the brick, plus
 * a one-voxel apron on its +x/+y/+z faces, holds tsdf == 1.0f
 * exactly, so any 2x2x2 stencil based in the brick samples "about 1"
 * (or is invalid) and the ray marcher may skip the fetch
 * (sampleIsFree).
 *
 * Both volumes own one. The flags depend only on voxel values, which
 * are bit-identical between the volumes (an unallocated sparse voxel
 * reads as tsdf 1), so after the same integrates both grids hold the
 * same bytes. The owner sets every flag at construction and reset();
 * integrate only ever clears them.
 *
 * The grid also holds the interpolation stencil's geometry
 * (stencilLocal / stencilInBounds), which both volumes' samplers use,
 * so the brick sampleIsFree tests is the one the fetch reads.
 */
class FreeBrickGrid
{
  public:
    /**
     * @param resolution Voxels per edge.
     * @param size_m Edge length in meters.
     * @param origin World position of the minimum corner.
     */
    FreeBrickGrid(int resolution, float size_m, const Vec3f &origin);

    /** @return bricks per edge: ceil(resolution / kBrickEdge). */
    int bricksPerEdge() const { return bricks_; }

    /**
     * The flags, indexed (bx * B + by) * B + bz with
     * B = bricksPerEdge(); nonzero = free. Four readable padding
     * bytes follow the last flag, so a 32-bit load at any flag stays
     * inside the allocation.
     */
    const uint8_t *flags() const { return flags_.data(); }

    /** @return whether brick (bx, by, bz) is flagged free. */
    bool
    brickFree(int bx, int by, int bz) const
    {
        return flags_[brickIndex(bx, by, bz)] != 0;
    }

    /** Flag every brick free (every voxel holds tsdf 1 again). */
    void setAll();

    /**
     * The ray marcher's fetch-policy predicate: true when interp(p)
     * is known without a fetch to be invalid or >= 0.8, because the
     * sample's 2x2x2 stencil is out of bounds or based in a free
     * brick (all eight corners hold tsdf 1).
     */
    bool
    sampleIsFree(const Vec3f &p) const
    {
        const Vec3f local = stencilLocal(p.x, p.y, p.z);
        const int x0 = static_cast<int>(std::floor(local.x));
        const int y0 = static_cast<int>(std::floor(local.y));
        const int z0 = static_cast<int>(std::floor(local.z));
        if (!stencilInBounds(x0, y0, z0))
            return true;
        return flags_[brickIndex(x0 >> kBrickShift, y0 >> kBrickShift,
                                 z0 >> kBrickShift)] != 0;
    }

    /** interp()'s voxel-center-relative stencil coordinates of p. */
    Vec3f
    stencilLocal(float px, float py, float pz) const
    {
        const float vs = size_ / resolution_;
        // Shift by half a voxel so samples are taken at voxel centers.
        return (Vec3f{px, py, pz} - origin_) * (1.0f / vs) -
               Vec3f{0.5f, 0.5f, 0.5f};
    }

    /** @return whether the stencil based at (x0, y0, z0) fits. */
    bool
    stencilInBounds(int x0, int y0, int z0) const
    {
        return !(x0 < 0 || y0 < 0 || z0 < 0 || x0 + 1 >= resolution_ ||
                 y0 + 1 >= resolution_ || z0 + 1 >= resolution_);
    }

    /**
     * Clear the flag of every brick whose apron holds voxel
     * (x, y, z).
     */
    void clearVoxel(int x, int y, int z) { clearBox(x, y, z, x, y, z); }

    /**
     * Clear the flag of every brick whose apron holds a voxel of the
     * box [x0, x1] x [y0, y1] x [z0, z1] (inclusive, clamped to the
     * grid).
     */
    void
    clearBox(int x0, int y0, int z0, int x1, int y1, int z1)
    {
        const int last = resolution_ - 1;
        x1 = std::min(x1, last);
        y1 = std::min(y1, last);
        z1 = std::min(z1, last);
        for (int bx = apronLow(x0); bx <= (x1 >> kBrickShift); ++bx)
            for (int by = apronLow(y0); by <= (y1 >> kBrickShift); ++by)
                for (int bz = apronLow(z0); bz <= (z1 >> kBrickShift);
                     ++bz)
                    clearBrick(brickIndex(bx, by, bz));
    }

    /**
     * Clear the flags column (x, y) dirtied: every brick whose apron
     * holds voxel column (x, y) at a z-brick set in @p dirty (one bit
     * per z-brick, dirtyWords() words, as the integrateColumn kernels
     * report). Zeroes @p dirty for the next column. Pool workers may
     * call it concurrently.
     */
    void clearColumnBricks(int x, int y, uint64_t *dirty);

    /** @return 64-bit words of a column's z-brick bitset. */
    size_t
    dirtyWords() const
    {
        return (static_cast<size_t>(bricks_) + 63) / 64;
    }

  private:
    size_t
    brickIndex(int bx, int by, int bz) const
    {
        return (static_cast<size_t>(bx) * bricks_ +
                static_cast<size_t>(by)) *
                   bricks_ +
               static_cast<size_t>(bz);
    }

    /**
     * @return the lowest brick coordinate whose apron holds voxel
     * coordinate @p v: a voxel on a brick's low face is also the
     * apron of the brick below it.
     */
    static int
    apronLow(int v)
    {
        return (v & (kBrickEdge - 1)) == 0 && v > 0
                   ? (v >> kBrickShift) - 1
                   : v >> kBrickShift;
    }

    /**
     * Clear one flag. Pool workers fusing neighboring columns clear
     * shared bricks concurrently, hence the relaxed atomic (the load
     * first keeps already-cleared lines shared).
     */
    void
    clearBrick(size_t brick)
    {
        std::atomic_ref<uint8_t> flag(flags_[brick]);
        if (flag.load(std::memory_order_relaxed) != 0)
            flag.store(0, std::memory_order_relaxed);
    }

    int resolution_;
    float size_;
    Vec3f origin_;
    int bricks_;
    std::vector<uint8_t> flags_;
};

/**
 * Cubic, uniform TSDF volume positioned in world space.
 *
 * Values are normalized: tsdf = clamp(signed_distance / mu, -1, 1).
 * A weight of 0 marks never-observed voxels.
 *
 * Storage is z-major (z contiguous, then y, then x), so the
 * integration sweep along a (x, y) voxel column and the 2x2x2
 * interpolation stencil both touch adjacent memory.
 *
 * The volume keeps a FreeBrickGrid: the constructor and reset() set
 * every flag; integrate() and the mutable at() only ever clear them.
 */
class TsdfVolume
{
  public:
    /**
     * @param resolution Voxels per edge (>= 8).
     * @param size_m Edge length in meters.
     * @param origin World position of the minimum corner.
     */
    TsdfVolume(int resolution, float size_m, const Vec3f &origin);

    /** @return voxels per edge. */
    int resolution() const { return resolution_; }
    /** @return edge length, meters. */
    float size() const { return size_; }
    /** @return world position of the minimum corner. */
    const Vec3f &origin() const { return origin_; }
    /** @return voxel edge length, meters. */
    float voxelSize() const { return size_ / resolution_; }

    /** Reset every voxel to unobserved (and every brick to free). */
    void reset();

    /**
     * Unchecked voxel access. The caller may write the voxel, so the
     * free flags of every brick whose apron holds it are cleared.
     */
    Voxel &
    at(int x, int y, int z)
    {
        freeBricks_.clearVoxel(x, y, z);
        return voxels_[index(x, y, z)];
    }

    /** Unchecked voxel access. */
    const Voxel &
    at(int x, int y, int z) const
    {
        return voxels_[index(x, y, z)];
    }

    /**
     * Voxel copy accessor — the generic spelling shared with
     * SparseTsdfVolume (which has no stable reference to return for
     * unallocated voxels), used by volume-generic code such as the
     * mesh extractor.
     */
    Voxel
    voxelAt(int x, int y, int z) const
    {
        return voxels_[index(x, y, z)];
    }

    /** @return world position of the center of voxel (x, y, z). */
    Vec3f
    voxelCenter(int x, int y, int z) const
    {
        const float vs = voxelSize();
        return origin_ + Vec3f{(x + 0.5f) * vs, (y + 0.5f) * vs,
                               (z + 0.5f) * vs};
    }

    /** @return true when @p p (world) lies inside the volume. */
    bool contains(const Vec3f &p) const;

    /** @return the free-brick flags (see FreeBrickGrid). */
    const FreeBrickGrid &freeBricks() const { return freeBricks_; }

    /**
     * Trilinearly interpolated TSDF at world point @p p.
     *
     * @param p World-space point; should lie inside the volume.
     * @param[out] valid Set false when any contributing voxel is
     *                   unobserved or @p p is outside.
     * @return interpolated normalized TSDF (1 when invalid).
     */
    float interp(const Vec3f &p, bool &valid) const;

    /**
     * TSDF gradient (surface normal direction) at world point @p p.
     *
     * Fused single-pass implementation: the six central-difference
     * samples are gathered in one function body, each with a single
     * base-index computation instead of eight full index
     * calculations. Bit-identical to gradReference().
     *
     * @param p World-space point near the surface.
     * @return unnormalized gradient; zero when samples are invalid.
     */
    Vec3f grad(const Vec3f &p) const;

    /**
     * Reference gradient: six independent interp() calls (the
     * textbook formulation). Kept for the bit-exactness parity tests
     * and the kernel benchmarks; grad() must match it exactly.
     */
    Vec3f gradReference(const Vec3f &p) const;

    /**
     * Fuse one metric depth map into the volume (KinectFusion
     * integration step).
     *
     * Voxel columns whose conservative camera-frame z-range projects
     * entirely outside the depth image (or behind the camera) are
     * culled before the per-voxel loop; visited voxels are counted as
     * Integrate items and culled voxels as skipped work. The fused
     * result is bit-identical to integrateDense().
     *
     * Not thread-safe against concurrent calls on the same volume
     * (the per-intrinsics lambda table is cached in the object).
     *
     * @param depth Metric depth image; 0 marks invalid pixels.
     * @param intrinsics Intrinsics of @p depth.
     * @param camera_to_world Camera pose of the depth map.
     * @param mu Truncation band, meters.
     * @param max_weight Weight saturation bound.
     * @param[in,out] counts Work accounting (Integrate kernel).
     * @param pool Optional worker pool.
     * @param backend Kernel backend fusing the columns.
     */
    void integrate(const support::Image<float> &depth,
                   const CameraIntrinsics &intrinsics,
                   const Mat4f &camera_to_world, float mu,
                   float max_weight, WorkCounts &counts,
                   support::ThreadPool *pool,
                   const KernelBackend &backend);

    /**
     * Reference integration: identical per-voxel math but every voxel
     * of every column is visited (no frustum culling), always on the
     * scalar backend. Kept for the bit-exactness parity tests and the
     * kernel benchmarks; integrate() on any backend must produce
     * exactly the same volume (see docs/ARCHITECTURE.md).
     */
    void integrateDense(const support::Image<float> &depth,
                        const CameraIntrinsics &intrinsics,
                        const Mat4f &camera_to_world, float mu,
                        float max_weight, WorkCounts &counts,
                        support::ThreadPool *pool);

    /** @return total voxel count (resolution^3). */
    size_t voxelCount() const { return voxels_.size(); }

    /**
     * @return resident-memory snapshot: the voxel array, always fully
     * resident (no blocks).
     */
    VolumeMemoryStats
    memoryStats() const
    {
        VolumeMemoryStats stats;
        stats.bytes = static_cast<uint64_t>(voxels_.size()) * sizeof(Voxel);
        return stats;
    }

  private:
    size_t
    index(int x, int y, int z) const
    {
        return (static_cast<size_t>(x) * resolution_ +
                static_cast<size_t>(y)) *
                   resolution_ +
               static_cast<size_t>(z);
    }

    /**
     * Trilinear sample with interp()'s exact arithmetic but a single
     * base-index computation; the building block of grad().
     */
    float sampleTrilinear(float px, float py, float pz,
                          bool &valid) const;

    /** Shared culled/dense integration sweep (see integrate()). */
    void integrateImpl(const support::Image<float> &depth,
                       const CameraIntrinsics &intrinsics,
                       const Mat4f &camera_to_world, float mu,
                       float max_weight, WorkCounts &counts,
                       support::ThreadPool *pool, bool cull,
                       const KernelBackend &backend);

    int resolution_;
    float size_;
    Vec3f origin_;
    std::vector<Voxel> voxels_;
    FreeBrickGrid freeBricks_;
    LambdaTable lambda_;
};

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_VOLUME_HPP
