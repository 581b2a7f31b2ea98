#ifndef SLAMBENCH_KFUSION_SPARSE_VOLUME_HPP
#define SLAMBENCH_KFUSION_SPARSE_VOLUME_HPP

/**
 * @file
 * Hashed-voxel-block TSDF volume: the sparse alternative to the dense
 * z-major TsdfVolume, with memory proportional to the observed
 * surface instead of resolution^3.
 *
 * Layout: the volume is partitioned into cubic blocks of 8^3 voxels,
 * one FreeBrickGrid brick each. Blocks are allocated on demand from a
 * chunked pool during integrate() and found through an open-addressed
 * spatial hash from block coordinates to pool slots. Within a block,
 * voxels are stored z-major (z contiguous, then y, then x) — the
 * same order as a dense sub-volume — so the integration sweep along
 * a column and the kernel-backend `integrateColumn` hooks work on
 * block storage unchanged.
 *
 * Bit-exactness contract (verified by kfusion_parity_test): after
 * identical integrate calls, every voxel the dense volume would hold
 * reads back bit-identically from the sparse volume, interp()/grad()
 * agree bit-exactly at every point, and ray casts return identical
 * hits. The sparse sweep guarantees this by visiting exactly the
 * per-column z-intervals the dense culled sweep visits (same
 * cullColumn solve, same incremental `pos += step` replay, same
 * per-voxel fusion math via the same kernel backend) and by reading
 * unallocated voxels as the default Voxel{+1, 0} — precisely the
 * value an untouched dense voxel holds.
 *
 * Free space: the volume keeps the dense volume's FreeBrickGrid over
 * the same voxel coordinates. integrate() clears it exactly as the
 * dense sweep does (see integrate()), so after the same integrates
 * both grids hold the same bytes and the ray marcher skips the same
 * fetches on either volume.
 *
 * Concurrency: findBlock() is lock-free (atomic key probe with
 * acquire loads); allocation serializes on a mutex but publishes the
 * key with release order after the slot data is visible, so readers
 * never observe a half-initialized block. integrate() parallelizes
 * over *block runs* — each task owns a disjoint set of blocks, so
 * voxel writes never race. Like the dense volume, integrate() itself
 * is not re-entrant on one volume.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <variant>
#include <vector>

#include "kfusion/volume.hpp"

namespace slambench::kfusion {

/**
 * Sparse TSDF volume over hashed voxel blocks.
 *
 * Mirrors the TsdfVolume sampling API (interp / grad / voxelCenter /
 * contains) plus block-level introspection for tests and tools. See
 * the file comment for layout, parity, and concurrency contracts.
 */
class SparseTsdfVolume
{
  public:
    /** Sentinel "no block" key (hash table empty slot). */
    static constexpr uint64_t kEmptyKey = 0;

    /** What an unallocated voxel reads as: an untouched dense voxel. */
    static constexpr Voxel kUnobserved{};

    /**
     * Per-thread (or per-ray / per-stencil) direct-mapped cache of
     * the most recent block lookups. Indexed by the coordinate
     * parities (bx&1, by&1, bz&1), so the 8 blocks under any 2x2x2
     * interpolation stencil occupy distinct entries and a stencil
     * straddling block corners still hits after the first fetch.
     * A cache belongs to one volume at one generation: used on
     * another volume (volume ids are process-unique) or after
     * reset() bumped the generation, it empties itself.
     */
    struct LookupCache
    {
        uint64_t keys[8] = {kEmptyKey, kEmptyKey, kEmptyKey,
                            kEmptyKey, kEmptyKey, kEmptyKey,
                            kEmptyKey, kEmptyKey};
        const Voxel *blocks[8] = {};
        uint64_t generation = ~0ull;
        uint64_t volume = 0; ///< Owner's id(); 0 = none yet.
    };

    /**
     * @param resolution Voxels per edge (>= 8).
     * @param size_m Edge length in meters.
     * @param origin World position of the minimum corner.
     */
    SparseTsdfVolume(int resolution, float size_m,
                     const Vec3f &origin);

    /** @return voxels per edge. */
    int resolution() const { return resolution_; }
    /** @return edge length, meters. */
    float size() const { return size_; }
    /** @return world position of the minimum corner. */
    const Vec3f &origin() const { return origin_; }
    /** @return voxel edge length, meters. */
    float voxelSize() const { return size_ / resolution_; }
    /** @return voxels per block edge (one brick). */
    static constexpr int blockSize() { return kBlockSize; }
    /** @return blocks per volume edge (ceil(resolution / block)). */
    int blocksPerEdge() const { return blocksPerEdge_; }
    /** @return voxels per block (blockSize^3). */
    static constexpr size_t blockVoxels() { return kBlockVoxels; }
    /** @return open-addressed hash table slot count (power of two). */
    size_t tableSize() const { return tableSize_; }
    /** @return this volume's process-unique id (never 0). */
    uint64_t id() const { return id_; }

    /**
     * Drop every block: all voxels read unobserved again (and every
     * brick is free). Pool storage is recycled, not freed — slots are
     * reused by later allocations (the "eviction" path exercised by
     * tests).
     */
    void reset();

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
     * Voxel copy accessor; unallocated voxels read as the default
     * Voxel{+1, 0} (bit-identical to an untouched dense voxel).
     */
    Voxel voxelAt(int x, int y, int z) const;

    /**
     * Trilinearly interpolated TSDF at world point @p p; same
     * contract and bit-identical result as TsdfVolume::interp().
     * Convenience entry that pays a fresh block-cache per call — hot
     * paths should hold a LookupCache and use interpCached().
     */
    float interp(const Vec3f &p, bool &valid) const;

    /** interp() with a caller-held block cache. */
    float interpCached(const Vec3f &p, bool &valid,
                       LookupCache &cache) const;

    /**
     * The eight voxels of the in-bounds 2x2x2 stencil based at voxel
     * (x0, y0, z0), in interp()'s corner order 000, 100, 010, 110,
     * 001, 101, 011, 111; unallocated voxels read as kUnobserved. The
     * base block is resolved once through @p cache, and a stencil
     * inside it reads all eight corners from it; a stencil that
     * straddles block faces resolves each block it spans once.
     */
    void
    stencilVoxels(int x0, int y0, int z0, LookupCache &cache,
                  const Voxel *corners[8]) const
    {
        const int lx = x0 & kBlockMask;
        const int ly = y0 & kBlockMask;
        const int lz = z0 & kBlockMask;
        const int bx = x0 >> kBlockShift;
        const int by = y0 >> kBlockShift;
        const int bz = z0 >> kBlockShift;
        const size_t sy = static_cast<size_t>(kBlockSize);
        const size_t sx = sy * sy;
        // Per axis: whether the stencil's +1 corner is in the next
        // block.
        const int cross = (lx == kBlockMask) | (ly == kBlockMask) << 1 |
                          (lz == kBlockMask) << 2;
        if (cross == 0) {
            const Voxel *block = cachedBlock(bx, by, bz, cache);
            if (!block) {
                for (int c = 0; c < 8; ++c)
                    corners[c] = &kUnobserved;
                return;
            }
            const Voxel *base = block + static_cast<size_t>(lx) * sx +
                                static_cast<size_t>(ly) * sy +
                                static_cast<size_t>(lz);
            corners[0] = base;
            corners[1] = base + sx;
            corners[2] = base + sy;
            corners[3] = base + sx + sy;
            corners[4] = base + 1;
            corners[5] = base + sx + 1;
            corners[6] = base + sy + 1;
            corners[7] = base + sx + sy + 1;
            return;
        }
        // blocks[b]: the block offset by b's bits (x, y, z) from the
        // base block, for every b the stencil spans; corner c lies in
        // blocks[c & cross].
        const Voxel *blocks[8] = {};
        for (int b = 0; b < 8; ++b)
            if ((b & ~cross) == 0)
                blocks[b] = cachedBlock(bx + (b & 1), by + (b >> 1 & 1),
                                        bz + (b >> 2), cache);
        for (int c = 0; c < 8; ++c) {
            const Voxel *block = blocks[c & cross];
            if (!block) {
                corners[c] = &kUnobserved;
                continue;
            }
            const size_t x = (lx + (c & 1)) & kBlockMask;
            const size_t y = (ly + (c >> 1 & 1)) & kBlockMask;
            const size_t z = (lz + (c >> 2)) & kBlockMask;
            corners[c] = block + x * sx + y * sy + z;
        }
    }

    /**
     * TSDF gradient at world point @p p; bit-identical to
     * TsdfVolume::grad(). Convenience entry; see gradCached().
     */
    Vec3f grad(const Vec3f &p) const;

    /** grad() with a caller-held block cache. */
    Vec3f gradCached(const Vec3f &p, LookupCache &cache) const;

    /**
     * Fuse one metric depth map (KinectFusion integration step),
     * bit-identical to TsdfVolume::integrate() on the observed
     * region.
     *
     * Phases: (1) the dense backend's exact per-column frustum cull,
     * parallel over columns; (2) a serial sweep turning the column
     * intervals into runs of consecutive touched blocks along z per
     * block footprint; (3) parallel fusion, one task per block run,
     * over @p pool. Blocks with no prior content are swept into
     * thread-local scratch first and only allocated when some voxel
     * actually fused (weight > 0), so residency tracks the observed
     * region exactly — never the conservative cull margin.
     *
     * Phase 3 clears the free-brick flags the dense sweep clears: a
     * block is one brick, so a dirty segment clears its block's
     * brick, and because a kernel cannot mark the brick below its
     * block, a segment that starts on a block's z = 0 face also
     * clears that brick when the voxel there holds tsdf != 1.
     *
     * Not thread-safe against concurrent calls on the same volume.
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
     * Find a resident block by block coordinates. Lock-free; safe
     * concurrently with allocation of other blocks.
     *
     * @return block voxel storage (z-major within the block), or
     *         nullptr when the block is not resident.
     */
    const Voxel *findBlock(int bx, int by, int bz) const;

    /**
     * Find-or-allocate a block for direct writes (serialized on the
     * allocation mutex; the returned storage is default-initialized
     * when fresh). Clears the free-brick flags over the block and its
     * apron, so whatever is written through the storage keeps the
     * grid conservative.
     *
     * @return the block's voxel storage.
     */
    Voxel *allocateBlock(int bx, int by, int bz);

    /** @return number of resident blocks. */
    size_t allocatedBlocks() const
    {
        return allocated_.load(std::memory_order_relaxed);
    }

    /**
     * Coordinates of every resident block, sorted by (bx, by, bz) so
     * iteration order is deterministic regardless of the allocation
     * schedule. Not safe concurrently with integrate().
     */
    std::vector<Vec3i> allocatedBlockCoords() const;

    /** @return resident-memory snapshot (see VolumeMemoryStats). */
    VolumeMemoryStats memoryStats() const;

    /**
     * Spatial hash of block coordinates (Niessner et al.'s prime-XOR
     * hash), before masking by the table size. Exposed so tests can
     * construct deliberate collisions.
     */
    static uint32_t
    spatialHash(int bx, int by, int bz)
    {
        return static_cast<uint32_t>(bx) * 73856093u ^
               static_cast<uint32_t>(by) * 19349669u ^
               static_cast<uint32_t>(bz) * 83492791u;
    }

  private:
    /**
     * allocateBlock() without touching the flags: integrate() clears
     * them from the voxels it fused.
     */
    Voxel *insertBlock(int bx, int by, int bz);

    /** Packed non-zero hash key for block (bx, by, bz). */
    uint64_t
    blockKey(int bx, int by, int bz) const
    {
        return (static_cast<uint64_t>(bx) * blocksPerEdge_ +
                static_cast<uint64_t>(by)) *
                   blocksPerEdge_ +
               static_cast<uint64_t>(bz) + 1;
    }

    /** Cached block lookup (see LookupCache). */
    const Voxel *
    cachedBlock(int bx, int by, int bz, LookupCache &cache) const
    {
        if (cache.generation != generation_ || cache.volume != id_) {
            cache = LookupCache{};
            cache.generation = generation_;
            cache.volume = id_;
        }
        const int slot = (bx & 1) | ((by & 1) << 1) | ((bz & 1) << 2);
        const uint64_t key = blockKey(bx, by, bz);
        if (cache.keys[slot] == key)
            return cache.blocks[slot];
        const Voxel *block = findBlock(bx, by, bz);
        cache.keys[slot] = key;
        cache.blocks[slot] = block;
        return block;
    }

    /** interp() arithmetic shared by the cached/uncached entries. */
    float sampleTrilinearCached(float px, float py, float pz,
                                bool &valid,
                                LookupCache &cache) const;

    int resolution_;
    float size_;
    Vec3f origin_;
    /// Process-unique, so a LookupCache never trusts another volume.
    uint64_t id_;
    /// A block is one FreeBrickGrid brick, so a block-local z segment
    /// dirties exactly its own brick (see integrate()).
    static constexpr int kBlockSize = kBrickEdge;
    static constexpr int kBlockShift = kBrickShift;
    static constexpr int kBlockMask = kBlockSize - 1;
    static constexpr size_t kBlockVoxels =
        static_cast<size_t>(kBlockSize) * kBlockSize * kBlockSize;
    int blocksPerEdge_;
    size_t tableSize_;

    /// Open-addressed table: packed block key (0 = empty) per slot,
    /// published with release order after slotBlocks_[slot] is set.
    std::vector<std::atomic<uint64_t>> tableKeys_;
    /// Voxel storage of the block occupying each table slot.
    std::vector<Voxel *> slotBlocks_;

    /// Pool: fixed-size chunks so block addresses stay stable as the
    /// pool grows; recycled (not freed) by reset().
    std::vector<std::unique_ptr<Voxel[]>> chunks_;
    size_t blocksPerChunk_;
    size_t nextPoolSlot_ = 0;

    std::mutex allocMutex_;
    std::atomic<uint64_t> allocated_{0};
    uint64_t lastTouched_ = 0;
    /// Bumped by reset() so outstanding LookupCaches self-invalidate.
    uint64_t generation_ = 0;

    LambdaTable lambda_;
    std::vector<ZInterval> cullScratch_;
    FreeBrickGrid freeBricks_;
};

/**
 * The pipeline's TSDF map: the dense or the sparse volume, as
 * KFusionConfig::volumeBackend names. SparseTsdfVolume holds a mutex
 * and atomics and cannot move, so a TsdfMap is built in place
 * (std::in_place_type) and never reassigned. Both alternatives have
 * the same entry points (integrate, memoryStats, and the raycastKernel
 * / renderVolumeKernel / extractMesh overloads); callers reach them
 * through std::visit with a generic lambda.
 */
using TsdfMap = std::variant<TsdfVolume, SparseTsdfVolume>;

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_SPARSE_VOLUME_HPP
