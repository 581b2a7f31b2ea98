#include "kfusion/sparse_volume.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kfusion/backend.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

namespace {

/** Source of SparseTsdfVolume ids (0 is no volume's). */
std::atomic<uint64_t> g_nextVolumeId{1};

/** Run of consecutive touched z-blocks in one (bx, by) footprint. */
struct BlockRun
{
    int bx;
    int by;
    int bz_begin;
    int bz_end;
};

size_t
ceilPow2(size_t n)
{
    size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

SparseTsdfVolume::SparseTsdfVolume(int resolution, float size_m,
                                   const Vec3f &origin)
    : resolution_(resolution), size_(size_m), origin_(origin),
      id_(g_nextVolumeId.fetch_add(1, std::memory_order_relaxed)),
      freeBricks_(resolution, size_m, origin)
{
    if (resolution < 8)
        support::fatal("SparseTsdfVolume: resolution must be >= 8");
    if (!(size_m > 0.0f))
        support::fatal("SparseTsdfVolume: size must be positive");

    blocksPerEdge_ = (resolution + kBlockSize - 1) / kBlockSize;
    const size_t grid_blocks = static_cast<size_t>(blocksPerEdge_) *
                               blocksPerEdge_ * blocksPerEdge_;

    // Load factor <= 0.5 keeps linear-probe chains short and, since
    // no more than grid_blocks blocks exist, guarantees every probe
    // terminates at an empty slot. The table is sized once — no
    // rehash — so concurrent lock-free readers are safe.
    tableSize_ = std::max<size_t>(64, ceilPow2(grid_blocks * 2));
    tableKeys_ = std::vector<std::atomic<uint64_t>>(tableSize_);
    for (auto &k : tableKeys_)
        k.store(kEmptyKey, std::memory_order_relaxed);
    slotBlocks_.assign(tableSize_, nullptr);

    // ~2 MiB chunks: large enough to amortize allocation, small
    // enough that the last partially-used chunk wastes little.
    blocksPerChunk_ = std::max<size_t>(
        1, (2u << 20) / (kBlockVoxels * sizeof(Voxel)));
    chunks_.reserve(grid_blocks / blocksPerChunk_ + 1);
}

void
SparseTsdfVolume::reset()
{
    std::lock_guard<std::mutex> lock(allocMutex_);
    for (auto &k : tableKeys_)
        k.store(kEmptyKey, std::memory_order_relaxed);
    std::fill(slotBlocks_.begin(), slotBlocks_.end(), nullptr);
    // Recycle pool chunks: slots are re-issued (and re-defaulted) by
    // later allocations instead of returning memory to the OS.
    nextPoolSlot_ = 0;
    allocated_.store(0, std::memory_order_relaxed);
    lastTouched_ = 0;
    ++generation_;
    freeBricks_.setAll();
}

bool
SparseTsdfVolume::contains(const Vec3f &p) const
{
    const Vec3f local = p - origin_;
    return local.x >= 0.0f && local.y >= 0.0f && local.z >= 0.0f &&
           local.x < size_ && local.y < size_ && local.z < size_;
}

const Voxel *
SparseTsdfVolume::findBlock(int bx, int by, int bz) const
{
    const uint64_t key = blockKey(bx, by, bz);
    const size_t mask = tableSize_ - 1;
    size_t i = spatialHash(bx, by, bz) & mask;
    for (;;) {
        const uint64_t k =
            tableKeys_[i].load(std::memory_order_acquire);
        if (k == key)
            return slotBlocks_[i];
        if (k == kEmptyKey)
            return nullptr;
        i = (i + 1) & mask;
    }
}

Voxel *
SparseTsdfVolume::allocateBlock(int bx, int by, int bz)
{
    Voxel *data = insertBlock(bx, by, bz);
    const int x0 = bx * kBlockSize, y0 = by * kBlockSize,
              z0 = bz * kBlockSize;
    freeBricks_.clearBox(x0, y0, z0, x0 + kBlockMask, y0 + kBlockMask,
                         z0 + kBlockMask);
    return data;
}

Voxel *
SparseTsdfVolume::insertBlock(int bx, int by, int bz)
{
    const uint64_t key = blockKey(bx, by, bz);
    const size_t mask = tableSize_ - 1;
    std::lock_guard<std::mutex> lock(allocMutex_);
    size_t i = spatialHash(bx, by, bz) & mask;
    for (;;) {
        // Relaxed is enough under the allocation mutex: every writer
        // is serialized here.
        const uint64_t k =
            tableKeys_[i].load(std::memory_order_relaxed);
        if (k == key)
            return slotBlocks_[i];
        if (k == kEmptyKey)
            break;
        i = (i + 1) & mask;
    }
    const size_t slot = nextPoolSlot_++;
    const size_t chunk = slot / blocksPerChunk_;
    if (chunk == chunks_.size())
        chunks_.push_back(std::make_unique<Voxel[]>(
            blocksPerChunk_ * kBlockVoxels));
    Voxel *data = chunks_[chunk].get() +
                  (slot % blocksPerChunk_) * kBlockVoxels;
    // Re-default explicitly: chunk memory may be recycled from a
    // previous epoch (reset() keeps the chunks).
    std::fill_n(data, kBlockVoxels, Voxel{});

    slotBlocks_[i] = data;
    // Publish last with release order so a lock-free reader that
    // observes the key also observes the slot pointer and the
    // default-initialized voxels.
    tableKeys_[i].store(key, std::memory_order_release);
    allocated_.fetch_add(1, std::memory_order_relaxed);
    return data;
}

Voxel
SparseTsdfVolume::voxelAt(int x, int y, int z) const
{
    const Voxel *block = findBlock(x >> kBlockShift, y >> kBlockShift,
                                   z >> kBlockShift);
    if (!block)
        return kUnobserved;
    return block[(static_cast<size_t>(x & kBlockMask) * kBlockSize +
                  static_cast<size_t>(y & kBlockMask)) *
                     kBlockSize +
                 static_cast<size_t>(z & kBlockMask)];
}

std::vector<math::Vec3i>
SparseTsdfVolume::allocatedBlockCoords() const
{
    std::vector<math::Vec3i> coords;
    coords.reserve(allocated_.load(std::memory_order_relaxed));
    const int be = blocksPerEdge_;
    for (size_t i = 0; i < tableSize_; ++i) {
        const uint64_t k =
            tableKeys_[i].load(std::memory_order_acquire);
        if (k == kEmptyKey)
            continue;
        const uint64_t id = k - 1;
        coords.push_back({static_cast<int>(id / (be * be)),
                          static_cast<int>(id / be % be),
                          static_cast<int>(id % be)});
    }
    std::sort(coords.begin(), coords.end(),
              [](const math::Vec3i &a, const math::Vec3i &b) {
                  if (a.x != b.x)
                      return a.x < b.x;
                  if (a.y != b.y)
                      return a.y < b.y;
                  return a.z < b.z;
              });
    return coords;
}

VolumeMemoryStats
SparseTsdfVolume::memoryStats() const
{
    VolumeMemoryStats stats;
    stats.allocatedBlocks = allocated_.load(std::memory_order_relaxed);
    stats.touchedBlocks = lastTouched_;
    // Resident pool memory is counted at chunk granularity (what the
    // process actually holds), plus the fixed-size hash index.
    const uint64_t pool_bytes = static_cast<uint64_t>(chunks_.size()) *
                                blocksPerChunk_ * kBlockVoxels *
                                sizeof(Voxel);
    const uint64_t table_bytes =
        static_cast<uint64_t>(tableSize_) *
        (sizeof(std::atomic<uint64_t>) + sizeof(Voxel *));
    stats.bytes = pool_bytes + table_bytes;
    return stats;
}

float
SparseTsdfVolume::sampleTrilinearCached(float px, float py, float pz,
                                        bool &valid,
                                        LookupCache &cache) const
{
    const Vec3f local = freeBricks_.stencilLocal(px, py, pz);
    const int x0 = static_cast<int>(std::floor(local.x));
    const int y0 = static_cast<int>(std::floor(local.y));
    const int z0 = static_cast<int>(std::floor(local.z));
    if (!freeBricks_.stencilInBounds(x0, y0, z0)) {
        valid = false;
        return 1.0f;
    }

    // Unallocated blocks contribute the default voxel (+1, weight 0),
    // exactly what the untouched dense voxel holds.
    const Voxel *v[8];
    stencilVoxels(x0, y0, z0, cache, v);

    const float fx = local.x - x0;
    const float fy = local.y - y0;
    const float fz = local.z - z0;
    const float wx0 = 1.0f - fx, wx1 = fx;
    const float wy0 = 1.0f - fy, wy1 = fy;
    const float wz0 = 1.0f - fz, wz1 = fz;

    // The dense sampler's expressions, in its accumulation order.
    const bool any_observed =
        v[0]->weight > 0.0f || v[1]->weight > 0.0f ||
        v[2]->weight > 0.0f || v[3]->weight > 0.0f ||
        v[4]->weight > 0.0f || v[5]->weight > 0.0f ||
        v[6]->weight > 0.0f || v[7]->weight > 0.0f;
    float value = 0.0f;
    value += v[0]->tsdf * wx0 * wy0 * wz0;
    value += v[1]->tsdf * wx1 * wy0 * wz0;
    value += v[2]->tsdf * wx0 * wy1 * wz0;
    value += v[3]->tsdf * wx1 * wy1 * wz0;
    value += v[4]->tsdf * wx0 * wy0 * wz1;
    value += v[5]->tsdf * wx1 * wy0 * wz1;
    value += v[6]->tsdf * wx0 * wy1 * wz1;
    value += v[7]->tsdf * wx1 * wy1 * wz1;
    valid = any_observed;
    return any_observed ? value : 1.0f;
}

float
SparseTsdfVolume::interpCached(const Vec3f &p, bool &valid,
                               LookupCache &cache) const
{
    return sampleTrilinearCached(p.x, p.y, p.z, valid, cache);
}

float
SparseTsdfVolume::interp(const Vec3f &p, bool &valid) const
{
    LookupCache cache;
    return sampleTrilinearCached(p.x, p.y, p.z, valid, cache);
}

Vec3f
SparseTsdfVolume::gradCached(const Vec3f &p, LookupCache &cache) const
{
    const float step = voxelSize();
    // Same structure (and short-circuits) as TsdfVolume::grad so the
    // result is bit-identical, including which samples are evaluated.
    bool ok_p, ok_m;
    const float xp =
        sampleTrilinearCached(p.x + step, p.y, p.z, ok_p, cache);
    const float xm =
        sampleTrilinearCached(p.x - step, p.y, p.z, ok_m, cache);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float yp =
        sampleTrilinearCached(p.x, p.y + step, p.z, ok_p, cache);
    const float ym =
        sampleTrilinearCached(p.x, p.y - step, p.z, ok_m, cache);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float zp =
        sampleTrilinearCached(p.x, p.y, p.z + step, ok_p, cache);
    const float zm =
        sampleTrilinearCached(p.x, p.y, p.z - step, ok_m, cache);
    if (!ok_p && !ok_m)
        return Vec3f{};
    return {xp - xm, yp - ym, zp - zm};
}

Vec3f
SparseTsdfVolume::grad(const Vec3f &p) const
{
    LookupCache cache;
    return gradCached(p, cache);
}

void
SparseTsdfVolume::integrate(const support::Image<float> &depth,
                            const CameraIntrinsics &intrinsics,
                            const Mat4f &camera_to_world, float mu,
                            float max_weight, WorkCounts &counts,
                            support::ThreadPool *pool,
                            const KernelBackend &backend)
{
    KernelTimer timer(counts, KernelId::Integrate);
    const Mat4f world_to_camera = camera_to_world.rigidInverse();
    const float vs = voxelSize();
    const int res = resolution_;
    constexpr int bs = kBlockSize;
    const size_t width = depth.width();
    const size_t height = depth.height();
    const float *lambda_table =
        lambda_.tableFor(intrinsics, width, height);

    const Vec3f step = world_to_camera.transformDir({0.0f, 0.0f, vs});

    IntegrateContext ctx;
    ctx.depth = depth.data();
    ctx.width = width;
    ctx.height = height;
    ctx.lambda = lambda_table;
    ctx.intrinsics = intrinsics;
    ctx.mu = mu;
    ctx.invMu = 1.0f / mu;
    ctx.maxWeight = max_weight;
    ctx.step = step;
    const double slack =
        accumulationSlack(world_to_camera, origin_, size_, res);

    // Phase 1 — the dense backend's exact per-column frustum cull,
    // parallel over columns. The intervals drive both the work
    // accounting (identical to dense, per column) and the touched-
    // block discovery below.
    const size_t columns = static_cast<size_t>(res) * res;
    cullScratch_.resize(columns);
    std::atomic<long long> visited_total{0};
    std::atomic<long long> culled_total{0};
    auto cull_columns = [&](size_t begin, size_t end) {
        long long visited = 0;
        long long culled = 0;
        for (size_t xy = begin; xy < end; ++xy) {
            const int x = static_cast<int>(xy) % res;
            const int y = static_cast<int>(xy) / res;
            const Vec3f pos = world_to_camera.transformPoint(
                voxelCenter(x, y, 0));
            const ZInterval zi = cullColumn(
                pos, step, intrinsics, width, height, res, slack);
            cullScratch_[xy] = zi;
            culled += res - (zi.end - zi.begin);
            if (zi.begin < zi.end)
                visited += zi.end - zi.begin;
        }
        visited_total.fetch_add(visited, std::memory_order_relaxed);
        culled_total.fetch_add(culled, std::memory_order_relaxed);
    };
    if (pool)
        pool->parallelForChunked(0, columns, cull_columns);
    else
        cull_columns(0, columns);

    // Phase 2 — fold the column intervals into runs of consecutive
    // touched z-blocks per (bx, by) footprint: one integration task
    // per run. Serial; O(res^2) interval reads plus bitmask scans.
    const int be = blocksPerEdge_;
    std::vector<BlockRun> runs;
    std::vector<uint64_t> zmask((be + 63) / 64);
    for (int by = 0; by < be; ++by) {
        for (int bx = 0; bx < be; ++bx) {
            std::fill(zmask.begin(), zmask.end(), 0);
            bool any = false;
            const int x_hi = std::min((bx + 1) * bs, res);
            const int y_hi = std::min((by + 1) * bs, res);
            for (int y = by * bs; y < y_hi; ++y) {
                for (int x = bx * bs; x < x_hi; ++x) {
                    const ZInterval zi =
                        cullScratch_[static_cast<size_t>(y) * res +
                                     x];
                    if (zi.begin >= zi.end)
                        continue;
                    const int b0 = zi.begin >> kBlockShift;
                    const int b1 = (zi.end - 1) >> kBlockShift;
                    for (int b = b0; b <= b1; ++b)
                        zmask[b >> 6] |= 1ull << (b & 63);
                    any = true;
                }
            }
            if (!any)
                continue;
            int b = 0;
            while (b < be) {
                if (!(zmask[b >> 6] >> (b & 63) & 1)) {
                    ++b;
                    continue;
                }
                const int run_begin = b;
                while (b < be && (zmask[b >> 6] >> (b & 63) & 1))
                    ++b;
                runs.push_back({bx, by, run_begin, b});
            }
        }
    }

    // Phase 3 — fuse, one task per block run. Each run owns a
    // disjoint set of blocks, so voxel writes never race; fresh
    // blocks are swept into thread-local scratch and only allocated
    // when a voxel actually fused, keeping residency proportional to
    // the observed region rather than the conservative cull margin.
    std::atomic<long long> touched_total{0};
    auto sweep_runs = [&](size_t begin, size_t end) {
        static thread_local std::vector<Voxel> scratch;
        static thread_local std::vector<Voxel *> dest;
        static thread_local std::vector<uint8_t> fresh;
        static thread_local std::vector<uint8_t> swept;
        // One bit per volume z-brick of the column being fused.
        static thread_local std::vector<uint64_t> dirty;
        dirty.assign(freeBricks_.dirtyWords(), 0);
        const auto mark_dirty = [](int b) {
            dirty[b >> 6] |= uint64_t{1} << (b & 63);
        };
        long long touched = 0;
        for (size_t ri = begin; ri < end; ++ri) {
            const BlockRun r = runs[ri];
            const int nb = r.bz_end - r.bz_begin;
            scratch.resize(static_cast<size_t>(nb) * kBlockVoxels);
            dest.resize(nb);
            fresh.resize(nb);
            swept.resize(nb);
            for (int j = 0; j < nb; ++j) {
                Voxel *existing = const_cast<Voxel *>(
                    findBlock(r.bx, r.by, r.bz_begin + j));
                if (existing) {
                    dest[j] = existing;
                    fresh[j] = 0;
                } else {
                    Voxel *s = scratch.data() +
                               static_cast<size_t>(j) * kBlockVoxels;
                    std::fill_n(s, kBlockVoxels, Voxel{});
                    dest[j] = s;
                    fresh[j] = 1;
                }
                swept[j] = 0;
            }

            const int run_z0 = r.bz_begin * bs;
            const int run_z1 = std::min(r.bz_end * bs, res);
            const int x_hi = std::min((r.bx + 1) * bs, res);
            const int y_hi = std::min((r.by + 1) * bs, res);
            for (int x = r.bx * bs; x < x_hi; ++x) {
                for (int y = r.by * bs; y < y_hi; ++y) {
                    const ZInterval zi = cullScratch_
                        [static_cast<size_t>(y) * res + x];
                    int z = std::max(zi.begin, run_z0);
                    const int z_stop = std::min(zi.end, run_z1);
                    if (z >= z_stop)
                        continue;
                    // Replay the dense sweep's accumulation up to z
                    // so every visited voxel sees a bit-identical
                    // camera-frame position.
                    Vec3f pos = world_to_camera.transformPoint(
                        voxelCenter(x, y, 0));
                    for (int k = 0; k < z; ++k)
                        pos += step;
                    const size_t col_off =
                        (static_cast<size_t>(x & kBlockMask) * bs +
                         static_cast<size_t>(y & kBlockMask)) *
                        bs;
                    while (z < z_stop) {
                        // A block is one brick: the segment's brick
                        // is its block's z index.
                        const int brick = z >> kBlockShift;
                        const int j = brick - r.bz_begin;
                        const int block_z0 = brick * bs;
                        const int z_lim =
                            std::min(z_stop, block_z0 + bs);
                        uint64_t block_dirty = 0;
                        backend.integrateColumn(
                            ctx, dest[j] + col_off, z - block_z0,
                            z_lim - block_z0, pos, &block_dirty);
                        if (block_dirty)
                            mark_dirty(brick);
                        // The kernel sees this voxel at local z = 0
                        // and cannot mark the brick below, whose
                        // apron holds it. A voxel != 1 left 1 at
                        // some visit, where dense cleared that brick.
                        if (z == block_z0 && brick > 0 &&
                            dest[j][col_off].tsdf != 1.0f)
                            mark_dirty(brick - 1);
                        // Advance past the segment with the same
                        // additions the dense sweep performs.
                        for (int k = z; k < z_lim; ++k)
                            pos += step;
                        swept[j] = 1;
                        z = z_lim;
                    }
                    if (std::any_of(dirty.begin(), dirty.end(),
                                    [](uint64_t w) { return w != 0; }))
                        freeBricks_.clearColumnBricks(x, y,
                                                      dirty.data());
                }
            }

            for (int j = 0; j < nb; ++j) {
                if (!swept[j])
                    continue;
                ++touched;
                if (!fresh[j])
                    continue;
                const Voxel *s = scratch.data() +
                                 static_cast<size_t>(j) *
                                     kBlockVoxels;
                bool fused = false;
                for (size_t v = 0; v < kBlockVoxels; ++v) {
                    if (s[v].weight > 0.0f) {
                        fused = true;
                        break;
                    }
                }
                if (!fused)
                    continue;
                std::copy_n(s, kBlockVoxels,
                            insertBlock(r.bx, r.by, r.bz_begin + j));
            }
        }
        touched_total.fetch_add(touched, std::memory_order_relaxed);
    };
    if (pool)
        pool->parallelForChunked(0, runs.size(), sweep_runs);
    else
        sweep_runs(0, runs.size());

    lastTouched_ = static_cast<uint64_t>(touched_total.load());

    const double visited = static_cast<double>(visited_total.load());
    const double culled = static_cast<double>(culled_total.load());
    counts.addItems(KernelId::Integrate, visited);
    counts.addSkipped(KernelId::Integrate, culled);
    counts.addBytes(KernelId::Integrate, visited * 16.0);

    namespace sm = support::metrics;
    static sm::Counter &visited_counter =
        sm::Registry::instance().counter("volume.integrate.visited");
    static sm::Counter &culled_counter =
        sm::Registry::instance().counter("volume.integrate.culled");
    static sm::Counter &touched_counter =
        sm::Registry::instance().counter("volume.blocks.touched");
    visited_counter.add(static_cast<uint64_t>(visited_total.load()));
    culled_counter.add(static_cast<uint64_t>(culled_total.load()));
    touched_counter.add(lastTouched_);
    TRACE_COUNTER("integrate.voxels", visited);
    TRACE_COUNTER("integrate.culled", culled);
    TRACE_COUNTER("integrate.blocks",
                  static_cast<double>(lastTouched_));
}

} // namespace slambench::kfusion
