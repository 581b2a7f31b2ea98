/**
 * @file
 * raycastKernel and renderVolumeKernel on either volume: one image
 * march (marchImage) that casts ray packets through the kernel
 * backend's castRays overload for the volume, then takes the fused
 * gradient at each hit.
 */

#include "kfusion/raycast.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kfusion/backend.hpp"
#include "kfusion/ray_march.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

using math::Vec3f;

namespace {

/**
 * A hit whose gradient is this short has no usable normal: raycast
 * drops it and the render paints background. One predicate for both
 * keeps a render shaded from raycast's normal map exact.
 */
bool
degenerateGradient(const Vec3f &g)
{
    return !(g.squaredNorm() > 1e-18f);
}

/** Background of the shaded render (misses and degenerate hits). */
constexpr support::Rgb8 kRenderBackground{20, 20, 28};

/** Diffuse shading of a unit surface normal for the model render. */
support::Rgb8
shadeNormal(const Vec3f &n)
{
    static const Vec3f light = Vec3f{0.3f, 0.8f, -0.5f}.normalized();
    const float diffuse = std::max(0.0f, n.dot(light)) * 0.7f + 0.25f;
    const auto channel = [diffuse](float base) {
        return static_cast<uint8_t>(
            std::clamp(base * diffuse, 0.0f, 255.0f));
    };
    return {channel(200.0f), channel(205.0f), channel(215.0f)};
}

/** Marching work of one image: steps taken, fetches skipped. */
struct MarchTotals
{
    double steps = 0.0;
    double skipped = 0.0;
};

/**
 * Per-row march accumulator, padded to a cache line so adjacent rows
 * written by different workers never share a line (parallelFor hands
 * out consecutive row indices).
 */
struct alignas(64) RowTotals
{
    MarchTotals value;
};

/** The dense volume's fused gradient, on the kernel backend. */
Vec3f
gradAt(const KernelBackend &backend, const TsdfVolume &volume,
       const Vec3f &p, SparseTsdfVolume::LookupCache &)
{
    return backend.grad(volume, p);
}

/** The sparse volume's fused gradient, through the row's block cache. */
Vec3f
gradAt(const KernelBackend &, const SparseTsdfVolume &volume,
       const Vec3f &p, SparseTsdfVolume::LookupCache &cache)
{
    return volume.gradCached(p, cache);
}

/**
 * Shared ray-march core of raycastKernel and renderVolumeKernel.
 *
 * Rays are cast in packets of up to kRayPacketWidth per row through
 * the kernel backend's castRays for @p volume, the fused TSDF
 * gradient is evaluated at each hit, and
 * shade(x, y, hit_found, hit, grad) runs for every pixel — grad is
 * the raw (unnormalized) gradient, zero when the ray missed.
 *
 * @return marching steps taken and fetches skipped across the image.
 */
template <typename Volume, typename ShadeFn>
MarchTotals
marchImage(const Volume &volume, const KernelBackend &backend,
           const math::CameraIntrinsics &intrinsics,
           const math::Mat4f &camera_to_world,
           const RaycastParams &params, support::ThreadPool *pool,
           const ShadeFn &shade)
{
    const size_t w = intrinsics.width;
    const size_t h = intrinsics.height;
    const Vec3f origin = camera_to_world.translationPart();
    std::vector<RowTotals> rows(h);

    auto process_row = [&](size_t y) {
        MarchTotals row;
        Vec3f dirs[kRayPacketWidth];
        RayHit hits[kRayPacketWidth];
        // Adjacent hits share blocks; the dense volume ignores it.
        SparseTsdfVolume::LookupCache cache;
        for (size_t x0 = 0; x0 < w; x0 += kRayPacketWidth) {
            const size_t n = std::min(kRayPacketWidth, w - x0);
            for (size_t l = 0; l < n; ++l) {
                const Vec3f dir_cam = intrinsics.rayDir(
                    static_cast<float>(x0 + l) + 0.5f,
                    static_cast<float>(y) + 0.5f);
                dirs[l] = camera_to_world.transformDir(dir_cam)
                              .normalized();
            }
            backend.castRays(volume, origin, dirs, n, params, hits);
            for (size_t l = 0; l < n; ++l) {
                row.steps += hits[l].steps;
                row.skipped += hits[l].skipped;
                const Vec3f g = hits[l].found
                                    ? gradAt(backend, volume,
                                             hits[l].hit, cache)
                                    : Vec3f{};
                shade(x0 + l, y, hits[l].found, hits[l].hit, g);
            }
        }
        rows[y].value = row;
    };

    if (pool) {
        pool->parallelFor(0, h, process_row);
    } else {
        for (size_t y = 0; y < h; ++y)
            process_row(y);
    }

    MarchTotals total;
    for (const RowTotals &r : rows) {
        total.steps += r.value.steps;
        total.skipped += r.value.skipped;
    }
    return total;
}

template <typename Volume>
void
raycastKernelImpl(support::Image<Vec3f> &vertex_out,
                  support::Image<Vec3f> &normal_out,
                  const Volume &volume,
                  const math::CameraIntrinsics &intrinsics,
                  const math::Mat4f &camera_to_world,
                  const RaycastParams &params, WorkCounts &counts,
                  support::ThreadPool *pool,
                  const KernelBackend &backend)
{
    KernelTimer timer(counts, KernelId::Raycast);
    const size_t w = intrinsics.width;
    const size_t h = intrinsics.height;
    vertex_out.sizeForOverwrite(w, h);
    normal_out.sizeForOverwrite(w, h);

    const MarchTotals total = marchImage(
        volume, backend, intrinsics, camera_to_world, params, pool,
        [&](size_t x, size_t y, bool found, const Vec3f &hit,
            const Vec3f &g) {
            if (found && !degenerateGradient(g)) {
                vertex_out(x, y) = hit;
                // TSDF increases away from the surface toward the
                // camera side, so the gradient already points
                // outward.
                normal_out(x, y) = g.normalized();
            } else {
                vertex_out(x, y) = Vec3f{};
                normal_out(x, y) = Vec3f{};
            }
        });

    counts.addItems(KernelId::Raycast, total.steps);
    counts.addBytes(KernelId::Raycast, total.steps * 32.0);

    // Skipped fetches stay out of WorkCounts: the scalar and simd
    // casters may elide different fetches for the same steps.
    namespace sm = support::metrics;
    static sm::Counter &rays_counter =
        sm::Registry::instance().counter("raycast.rays");
    static sm::Counter &steps_counter =
        sm::Registry::instance().counter("raycast.steps");
    static sm::Counter &skipped_counter =
        sm::Registry::instance().counter("raycast.samples_skipped");
    rays_counter.add(static_cast<uint64_t>(w * h));
    steps_counter.add(static_cast<uint64_t>(total.steps));
    skipped_counter.add(static_cast<uint64_t>(total.skipped));
    TRACE_COUNTER("raycast.steps", total.steps);
}

/** Charge one image's ray march to the RenderVolume kernel. */
void
addRenderWork(WorkCounts &counts, double steps)
{
    counts.addItems(KernelId::RenderVolume, steps);
    counts.addBytes(KernelId::RenderVolume, steps * 32.0);
    TRACE_COUNTER("render_volume.steps", steps);
}

template <typename Volume>
void
renderVolumeKernelImpl(support::Image<support::Rgb8> &out,
                       const Volume &volume,
                       const math::CameraIntrinsics &intrinsics,
                       const math::Mat4f &camera_to_world,
                       const RaycastParams &params, WorkCounts &counts,
                       support::ThreadPool *pool,
                       const KernelBackend &backend)
{
    KernelTimer timer(counts, KernelId::RenderVolume);
    const size_t w = intrinsics.width;
    const size_t h = intrinsics.height;
    out.sizeForOverwrite(w, h);

    const MarchTotals total = marchImage(
        volume, backend, intrinsics, camera_to_world, params, pool,
        [&](size_t x, size_t y, bool found, const Vec3f &,
            const Vec3f &g) {
            out(x, y) = found && !degenerateGradient(g)
                            ? shadeNormal(g.normalized())
                            : kRenderBackground;
        });
    addRenderWork(counts, total.steps);
}

} // namespace

void
renderFromNormalsKernel(support::Image<support::Rgb8> &out,
                        const support::Image<Vec3f> &normals,
                        double march_steps, WorkCounts &counts,
                        support::ThreadPool *pool)
{
    KernelTimer timer(counts, KernelId::RenderVolume);
    const size_t w = normals.width();
    const size_t h = normals.height();
    out.sizeForOverwrite(w, h);
    // raycastKernel stored g.normalized() exactly where the render
    // would shade it, and zero where it would paint background.
    auto shade_row = [&](size_t y) {
        for (size_t x = 0; x < w; ++x) {
            const Vec3f &n = normals(x, y);
            out(x, y) = n.x == 0.0f && n.y == 0.0f && n.z == 0.0f
                            ? kRenderBackground
                            : shadeNormal(n);
        }
    };
    if (pool) {
        pool->parallelFor(0, h, shade_row);
    } else {
        for (size_t y = 0; y < h; ++y)
            shade_row(y);
    }
    addRenderWork(counts, march_steps);
}

void
raycastKernel(support::Image<Vec3f> &vertex_out,
              support::Image<Vec3f> &normal_out,
              const TsdfVolume &volume,
              const math::CameraIntrinsics &intrinsics,
              const math::Mat4f &camera_to_world,
              const RaycastParams &params, WorkCounts &counts,
              support::ThreadPool *pool, const KernelBackend &backend)
{
    raycastKernelImpl(vertex_out, normal_out, volume, intrinsics,
                      camera_to_world, params, counts, pool, backend);
}

void
raycastKernel(support::Image<Vec3f> &vertex_out,
              support::Image<Vec3f> &normal_out,
              const SparseTsdfVolume &volume,
              const math::CameraIntrinsics &intrinsics,
              const math::Mat4f &camera_to_world,
              const RaycastParams &params, WorkCounts &counts,
              support::ThreadPool *pool, const KernelBackend &backend)
{
    raycastKernelImpl(vertex_out, normal_out, volume, intrinsics,
                      camera_to_world, params, counts, pool, backend);
}

void
renderVolumeKernel(support::Image<support::Rgb8> &out,
                   const TsdfVolume &volume,
                   const math::CameraIntrinsics &intrinsics,
                   const math::Mat4f &camera_to_world,
                   const RaycastParams &params, WorkCounts &counts,
                   support::ThreadPool *pool,
                   const KernelBackend &backend)
{
    renderVolumeKernelImpl(out, volume, intrinsics, camera_to_world,
                           params, counts, pool, backend);
}

void
renderVolumeKernel(support::Image<support::Rgb8> &out,
                   const SparseTsdfVolume &volume,
                   const math::CameraIntrinsics &intrinsics,
                   const math::Mat4f &camera_to_world,
                   const RaycastParams &params, WorkCounts &counts,
                   support::ThreadPool *pool,
                   const KernelBackend &backend)
{
    renderVolumeKernelImpl(out, volume, intrinsics, camera_to_world,
                           params, counts, pool, backend);
}

} // namespace slambench::kfusion
