#include "kfusion/volume.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "kfusion/backend.hpp"
#include "kfusion/integrate_cull.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

namespace {

/** Readable bytes past the last free flag (one 32-bit gather). */
constexpr size_t kFreeFlagPadding = 4;

} // namespace

FreeBrickGrid::FreeBrickGrid(int resolution, float size_m,
                             const Vec3f &origin)
    : resolution_(resolution), size_(size_m), origin_(origin),
      bricks_((resolution + kBrickEdge - 1) / kBrickEdge)
{
    // Every voxel starts at tsdf 1, so every brick starts free.
    flags_.assign(static_cast<size_t>(bricks_) * bricks_ * bricks_ +
                      kFreeFlagPadding,
                  1);
}

void
FreeBrickGrid::setAll()
{
    std::fill(flags_.begin(), flags_.end(), 1);
}

void
FreeBrickGrid::clearColumnBricks(int x, int y, uint64_t *dirty)
{
    for (int w = 0; w * 64 < bricks_; ++w) {
        for (uint64_t bits = dirty[w]; bits != 0; bits &= bits - 1) {
            const int bz = w * 64 + std::countr_zero(bits);
            for (int bx = apronLow(x); bx <= (x >> kBrickShift); ++bx)
                for (int by = apronLow(y); by <= (y >> kBrickShift);
                     ++by)
                    clearBrick(brickIndex(bx, by, bz));
        }
        dirty[w] = 0;
    }
}

TsdfVolume::TsdfVolume(int resolution, float size_m, const Vec3f &origin)
    : resolution_(resolution), size_(size_m), origin_(origin),
      freeBricks_(resolution, size_m, origin)
{
    if (resolution < 8)
        support::fatal("TsdfVolume: resolution must be >= 8");
    if (!(size_m > 0.0f))
        support::fatal("TsdfVolume: size must be positive");
    voxels_.assign(static_cast<size_t>(resolution) * resolution *
                       resolution,
                   Voxel{});
}

void
TsdfVolume::reset()
{
    std::fill(voxels_.begin(), voxels_.end(), Voxel{});
    freeBricks_.setAll();
}

bool
TsdfVolume::contains(const Vec3f &p) const
{
    const Vec3f local = p - origin_;
    return local.x >= 0.0f && local.y >= 0.0f && local.z >= 0.0f &&
           local.x < size_ && local.y < size_ && local.z < size_;
}

float
TsdfVolume::sampleTrilinear(float px, float py, float pz,
                            bool &valid) const
{
    const Vec3f local = freeBricks_.stencilLocal(px, py, pz);
    const int x0 = static_cast<int>(std::floor(local.x));
    const int y0 = static_cast<int>(std::floor(local.y));
    const int z0 = static_cast<int>(std::floor(local.z));
    if (!freeBricks_.stencilInBounds(x0, y0, z0)) {
        valid = false;
        return 1.0f;
    }
    const float fx = local.x - x0;
    const float fy = local.y - y0;
    const float fz = local.z - z0;
    const float wx0 = 1.0f - fx, wx1 = fx;
    const float wy0 = 1.0f - fy, wy1 = fy;
    const float wz0 = 1.0f - fz, wz1 = fz;

    // One base index; the stencil's seven neighbors are fixed offsets
    // in the z-major layout (+1 in z, +res in y, +res^2 in x).
    const size_t stride_y = static_cast<size_t>(resolution_);
    const size_t stride_x = stride_y * stride_y;
    const Voxel *base = voxels_.data() + index(x0, y0, z0);
    const Voxel &v000 = base[0];
    const Voxel &v100 = base[stride_x];
    const Voxel &v010 = base[stride_y];
    const Voxel &v110 = base[stride_x + stride_y];
    const Voxel &v001 = base[1];
    const Voxel &v101 = base[stride_x + 1];
    const Voxel &v011 = base[stride_y + 1];
    const Voxel &v111 = base[stride_x + stride_y + 1];

    // Unobserved voxels contribute their initial value (+1, free
    // space), exactly as the original KinectFusion interpolation
    // does; the sample is only invalid when *nothing* under the
    // stencil has ever been observed. The accumulation below keeps
    // the reference dz/dy/dx loop order so the result is bit-exact.
    const bool any_observed =
        v000.weight > 0.0f || v100.weight > 0.0f ||
        v010.weight > 0.0f || v110.weight > 0.0f ||
        v001.weight > 0.0f || v101.weight > 0.0f ||
        v011.weight > 0.0f || v111.weight > 0.0f;
    float value = 0.0f;
    value += v000.tsdf * wx0 * wy0 * wz0;
    value += v100.tsdf * wx1 * wy0 * wz0;
    value += v010.tsdf * wx0 * wy1 * wz0;
    value += v110.tsdf * wx1 * wy1 * wz0;
    value += v001.tsdf * wx0 * wy0 * wz1;
    value += v101.tsdf * wx1 * wy0 * wz1;
    value += v011.tsdf * wx0 * wy1 * wz1;
    value += v111.tsdf * wx1 * wy1 * wz1;
    valid = any_observed;
    return any_observed ? value : 1.0f;
}

float
TsdfVolume::interp(const Vec3f &p, bool &valid) const
{
    return sampleTrilinear(p.x, p.y, p.z, valid);
}

Vec3f
TsdfVolume::grad(const Vec3f &p) const
{
    const float step = voxelSize();
    // Each central difference needs at least one of its two samples
    // observed; unobserved samples read as +1 (free space), matching
    // the interpolation convention above. The floor boundaries of the
    // six sample points can differ, so each sample recomputes its own
    // base index — fusing means one pass, one call frame and six
    // base-index computations instead of 48 full index calculations.
    bool ok_p, ok_m;
    const float xp = sampleTrilinear(p.x + step, p.y, p.z, ok_p);
    const float xm = sampleTrilinear(p.x - step, p.y, p.z, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float yp = sampleTrilinear(p.x, p.y + step, p.z, ok_p);
    const float ym = sampleTrilinear(p.x, p.y - step, p.z, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float zp = sampleTrilinear(p.x, p.y, p.z + step, ok_p);
    const float zm = sampleTrilinear(p.x, p.y, p.z - step, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    return {xp - xm, yp - ym, zp - zm};
}

Vec3f
TsdfVolume::gradReference(const Vec3f &p) const
{
    const float step = voxelSize();
    bool ok_p, ok_m;
    const float xp = interp({p.x + step, p.y, p.z}, ok_p);
    const float xm = interp({p.x - step, p.y, p.z}, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float yp = interp({p.x, p.y + step, p.z}, ok_p);
    const float ym = interp({p.x, p.y - step, p.z}, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    const float zp = interp({p.x, p.y, p.z + step}, ok_p);
    const float zm = interp({p.x, p.y, p.z - step}, ok_m);
    if (!ok_p && !ok_m)
        return Vec3f{};
    return {xp - xm, yp - ym, zp - zm};
}

void
TsdfVolume::integrate(const support::Image<float> &depth,
                      const CameraIntrinsics &intrinsics,
                      const Mat4f &camera_to_world, float mu,
                      float max_weight, WorkCounts &counts,
                      support::ThreadPool *pool,
                      const KernelBackend &backend)
{
    integrateImpl(depth, intrinsics, camera_to_world, mu, max_weight,
                  counts, pool, /*cull=*/true, backend);
}

void
TsdfVolume::integrateDense(const support::Image<float> &depth,
                           const CameraIntrinsics &intrinsics,
                           const Mat4f &camera_to_world, float mu,
                           float max_weight, WorkCounts &counts,
                           support::ThreadPool *pool)
{
    // Always the scalar backend: the dense sweep is the numerical
    // reference the parity tests compare every backend against.
    integrateImpl(depth, intrinsics, camera_to_world, mu, max_weight,
                  counts, pool, /*cull=*/false, scalarKernelBackend());
}

void
TsdfVolume::integrateImpl(const support::Image<float> &depth,
                          const CameraIntrinsics &intrinsics,
                          const Mat4f &camera_to_world, float mu,
                          float max_weight, WorkCounts &counts,
                          support::ThreadPool *pool, bool cull,
                          const KernelBackend &backend)
{
    KernelTimer timer(counts, KernelId::Integrate);
    const Mat4f world_to_camera = camera_to_world.rigidInverse();
    const float vs = voxelSize();
    const int res = resolution_;
    const size_t width = depth.width();
    const size_t height = depth.height();
    const float *lambda_table =
        lambda_.tableFor(intrinsics, width, height);

    // The camera-frame z-step is identical for every column: hoisted
    // out of the per-column loop.
    const Vec3f step = world_to_camera.transformDir({0.0f, 0.0f, vs});

    // Loop invariants of the per-voxel fusion body, shared by every
    // column this call visits (the backend hook's context).
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
        cull ? accumulationSlack(world_to_camera, origin_, size_, res)
             : 0.0;

    // Visited/culled voxels, accumulated per chunk then folded in
    // with integer atomics so the totals are deterministic under any
    // parallel schedule.
    std::atomic<long long> visited_total{0};
    std::atomic<long long> culled_total{0};

    // One bit per z-brick: the kernels mark the bricks whose apron
    // holds a voxel they moved off tsdf 1, and the column's free
    // flags are cleared from it.
    const size_t dirty_words = freeBricks_.dirtyWords();

    // March along voxel columns: for fixed (x, y) the camera-frame
    // position is affine in z, so compute it incrementally (this is
    // the same strategy the CUDA kernel uses per thread). In the
    // z-major layout the column is contiguous in memory.
    auto process_column_range = [&](size_t begin, size_t end) {
        long long visited = 0;
        long long culled = 0;
        std::vector<uint64_t> dirty(dirty_words);
        for (size_t xy = begin; xy < end; ++xy) {
            const int x = static_cast<int>(xy) % res;
            const int y = static_cast<int>(xy) / res;
            Vec3f pos = world_to_camera.transformPoint(
                voxelCenter(x, y, 0));
            int z_begin = 0;
            int z_end = res;
            if (cull) {
                const ZInterval zi = cullColumn(
                    pos, step, intrinsics, width, height, res, slack);
                z_begin = zi.begin;
                z_end = zi.end;
            }
            culled += res - (z_end - z_begin);
            if (z_begin >= z_end)
                continue;
            visited += z_end - z_begin;
            // Fast-forward to z_begin by replaying the accumulation
            // the dense sweep performs, so every visited voxel sees a
            // bit-identical position.
            for (int z = 0; z < z_begin; ++z)
                pos += step;
            Voxel *column = voxels_.data() + index(x, y, 0);
            backend.integrateColumn(ctx, column, z_begin, z_end, pos,
                                    dirty.data());
            // Once a surface is fused, columns rarely mark anything.
            if (std::any_of(dirty.begin(), dirty.end(),
                            [](uint64_t w) { return w != 0; }))
                freeBricks_.clearColumnBricks(x, y, dirty.data());
        }
        visited_total.fetch_add(visited, std::memory_order_relaxed);
        culled_total.fetch_add(culled, std::memory_order_relaxed);
    };

    const size_t columns = static_cast<size_t>(res) * res;
    if (pool) {
        pool->parallelForChunked(0, columns, process_column_range);
    } else {
        process_column_range(0, columns);
    }

    const double visited =
        static_cast<double>(visited_total.load());
    const double culled = static_cast<double>(culled_total.load());

    // Work unit: voxel visits actually performed; culled voxels are
    // reported as skipped work so the naive workload (res^3) stays
    // reconstructible as items + skipped.
    counts.addItems(KernelId::Integrate, visited);
    counts.addSkipped(KernelId::Integrate, culled);
    counts.addBytes(KernelId::Integrate, visited * 16.0);

    namespace sm = support::metrics;
    static sm::Counter &visited_counter =
        sm::Registry::instance().counter("volume.integrate.visited");
    static sm::Counter &culled_counter =
        sm::Registry::instance().counter("volume.integrate.culled");
    visited_counter.add(static_cast<uint64_t>(visited_total.load()));
    culled_counter.add(static_cast<uint64_t>(culled_total.load()));
    TRACE_COUNTER("integrate.voxels", visited);
    TRACE_COUNTER("integrate.culled", culled);
}

} // namespace slambench::kfusion
