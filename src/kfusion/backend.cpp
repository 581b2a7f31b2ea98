#include "kfusion/backend.hpp"

#include <algorithm>
#include <array>

#include "kfusion/backend_simd.hpp"
#include "support/cpu.hpp"

namespace slambench::kfusion {

using math::Vec3f;

namespace {

/**
 * The scalar integrate column sweep — the reference loop body every
 * other backend must reproduce bit-for-bit (the inner loop of
 * TsdfVolume::integrateImpl before backends existed).
 */
void
integrateColumnScalar(const IntegrateContext &ctx, Voxel *column,
                      int z_begin, int z_end, Vec3f pos,
                      uint64_t *dirty)
{
    for (int z = z_begin; z < z_end; ++z, pos += ctx.step) {
        if (pos.z <= 0.001f)
            continue;
        const math::Vec2f pix = ctx.intrinsics.project(pos);
        const int px = static_cast<int>(pix.x);
        const int py = static_cast<int>(pix.y);
        if (px < 0 || py < 0 || px >= static_cast<int>(ctx.width) ||
            py >= static_cast<int>(ctx.height))
            continue;
        const float measured =
            ctx.depth[static_cast<size_t>(py) * ctx.width +
                      static_cast<size_t>(px)];
        if (measured <= 0.0f)
            continue;
        const float lambda =
            ctx.lambda[static_cast<size_t>(py) * ctx.width +
                       static_cast<size_t>(px)];
        const float sdf = (measured - pos.z) * lambda;
        if (sdf < -ctx.mu)
            continue; // occluded: behind the surface band
        const float tsdf = std::min(1.0f, sdf * ctx.invMu);
        Voxel &v = column[z];
        const float weight = v.weight;
        const bool was_one = v.tsdf == 1.0f;
        v.tsdf = (v.tsdf * weight + tsdf) / (weight + 1.0f);
        v.weight = std::min(weight + 1.0f, ctx.maxWeight);
        if (was_one && v.tsdf != 1.0f)
            markDirtyZ(dirty, z);
    }
}

/** Scalar castRays: one marchRay() per packet lane. */
void
castRaysScalar(const TsdfVolume &volume, const Vec3f &origin,
               const Vec3f *dirs, size_t count,
               const RaycastParams &params, RayHit *hits)
{
    for (size_t l = 0; l < count; ++l)
        marchRay(volume, origin, dirs[l], params, hits[l]);
}

/**
 * Scalar castRays on the sparse volume: one marchRay() per lane, with
 * one block cache for the packet (adjacent rays walk the same blocks).
 */
void
castRaysScalar(const SparseTsdfVolume &volume, const Vec3f &origin,
               const Vec3f *dirs, size_t count,
               const RaycastParams &params, RayHit *hits)
{
    SparseTsdfVolume::LookupCache cache;
    for (size_t l = 0; l < count; ++l)
        marchRay(volume, origin, dirs[l], params, cache, hits[l]);
}

/** The scalar ICP reduction body (reduceKernel's reduce_range). */
ReductionResult
reduceRangeScalar(const support::Image<TrackData> &track_data,
                  size_t begin, size_t end)
{
    ReductionResult partial;
    for (size_t i = begin; i < end; ++i) {
        const TrackData &row = track_data[i];
        if (row.result != TrackResult::Ok)
            continue;
        ++partial.validCount;
        partial.errorSq += static_cast<double>(row.error) * row.error;
        size_t t = 0;
        for (int r = 0; r < 6; ++r) {
            partial.jte[static_cast<size_t>(r)] +=
                static_cast<double>(row.jacobian[r]) * row.error;
            for (int c = r; c < 6; ++c, ++t) {
                partial.jtj[t] +=
                    static_cast<double>(row.jacobian[r]) *
                    row.jacobian[c];
            }
        }
    }
    return partial;
}

/** The reference backend: the kernels as they have always run. */
class ScalarBackend final : public KernelBackend
{
  public:
    const char *name() const override { return "scalar"; }

    void
    integrateColumn(const IntegrateContext &ctx, Voxel *column,
                    int z_begin, int z_end, Vec3f pos,
                    uint64_t *dirty) const override
    {
        integrateColumnScalar(ctx, column, z_begin, z_end, pos, dirty);
    }

    Vec3f
    grad(const TsdfVolume &volume, const Vec3f &p) const override
    {
        return volume.grad(p);
    }

    void
    castRays(const TsdfVolume &volume, const Vec3f &origin,
             const Vec3f *dirs, size_t count,
             const RaycastParams &params, RayHit *hits) const override
    {
        castRaysScalar(volume, origin, dirs, count, params, hits);
    }

    void
    castRays(const SparseTsdfVolume &volume, const Vec3f &origin,
             const Vec3f *dirs, size_t count,
             const RaycastParams &params, RayHit *hits) const override
    {
        castRaysScalar(volume, origin, dirs, count, params, hits);
    }

    ReductionResult
    reduceRange(const support::Image<TrackData> &track_data,
                size_t begin, size_t end) const override
    {
        return reduceRangeScalar(track_data, begin, end);
    }

    void
    bilateralRow(const BilateralContext &ctx, size_t y) const override
    {
        bilateralPixels(ctx, y, 0, ctx.width);
    }

    void
    trackRow(const TrackContext &ctx, size_t y) const override
    {
        trackPixels(ctx, y, 0, ctx.width);
    }

    void
    vertex2normalRow(const Vertex2NormalContext &ctx,
                     size_t y) const override
    {
        vertex2normalPixels(ctx, y, 0, ctx.width);
    }
};

/**
 * The AVX2 kernels when the build and the CPU both provide them,
 * otherwise the scalar kernels. Either way bit-exact versus scalar.
 */
class SimdBackend final : public KernelBackend
{
  public:
    const char *name() const override { return "simd"; }

    void
    integrateColumn(const IntegrateContext &ctx, Voxel *column,
                    int z_begin, int z_end, Vec3f pos,
                    uint64_t *dirty) const override
    {
        if (avx2_)
            detail::integrateColumnAvx2(ctx, column, z_begin, z_end,
                                        pos, dirty);
        else
            integrateColumnScalar(ctx, column, z_begin, z_end, pos,
                                  dirty);
    }

    Vec3f
    grad(const TsdfVolume &volume, const Vec3f &p) const override
    {
        return avx2_ ? detail::gradAvx2(volume, p) : volume.grad(p);
    }

    void
    castRays(const TsdfVolume &volume, const Vec3f &origin,
             const Vec3f *dirs, size_t count,
             const RaycastParams &params, RayHit *hits) const override
    {
        castRaysOn(volume, origin, dirs, count, params, hits);
    }

    void
    castRays(const SparseTsdfVolume &volume, const Vec3f &origin,
             const Vec3f *dirs, size_t count,
             const RaycastParams &params, RayHit *hits) const override
    {
        castRaysOn(volume, origin, dirs, count, params, hits);
    }

    ReductionResult
    reduceRange(const support::Image<TrackData> &track_data,
                size_t begin, size_t end) const override
    {
        return avx2_ ? detail::reduceRangeAvx2(track_data, begin, end)
                     : reduceRangeScalar(track_data, begin, end);
    }

    void
    bilateralRow(const BilateralContext &ctx, size_t y) const override
    {
        if (avx2_)
            detail::bilateralRowAvx2(ctx, y);
        else
            bilateralPixels(ctx, y, 0, ctx.width);
    }

    void
    trackRow(const TrackContext &ctx, size_t y) const override
    {
        if (avx2_)
            detail::trackRowAvx2(ctx, y);
        else
            trackPixels(ctx, y, 0, ctx.width);
    }

    void
    vertex2normalRow(const Vertex2NormalContext &ctx,
                     size_t y) const override
    {
        if (avx2_)
            detail::vertex2normalRowAvx2(ctx, y);
        else
            vertex2normalPixels(ctx, y, 0, ctx.width);
    }

  private:
    /** The AVX2 packet march on either volume, else scalar. */
    template <typename Volume>
    void
    castRaysOn(const Volume &volume, const Vec3f &origin,
               const Vec3f *dirs, size_t count,
               const RaycastParams &params, RayHit *hits) const
    {
        if (avx2_)
            detail::castRaysAvx2(volume, origin, dirs, count, params,
                                 hits);
        else
            castRaysScalar(volume, origin, dirs, count, params, hits);
    }

    const bool avx2_ = simdBackendIsAccelerated();
};

/** The built-in backends, in kernelBackendNames() order. */
const std::array<const KernelBackend *, 2> &
backendTable()
{
    static const ScalarBackend scalar;
    static const SimdBackend simd;
    static const std::array<const KernelBackend *, 2> table{&scalar,
                                                            &simd};
    return table;
}

} // namespace

const KernelBackend *
findKernelBackend(std::string_view name)
{
    for (const KernelBackend *backend : backendTable())
        if (name == backend->name())
            return backend;
    return nullptr;
}

const KernelBackend *
resolveKernelBackend(std::string_view name, std::string *error)
{
    if (name == "auto")
        return backendTable()[simdBackendIsAccelerated() ? 1 : 0];
    if (const KernelBackend *backend = findKernelBackend(name))
        return backend;
    if (error) {
        std::string names = "auto";
        for (const std::string &n : kernelBackendNames())
            names += ", " + n;
        *error = "unknown kernel backend '" + std::string(name) +
                 "' (valid: " + names + ")";
    }
    return nullptr;
}

std::vector<std::string>
kernelBackendNames()
{
    std::vector<std::string> names;
    for (const KernelBackend *backend : backendTable())
        names.emplace_back(backend->name());
    return names;
}

const KernelBackend &
scalarKernelBackend()
{
    return *backendTable()[0];
}

bool
simdBackendIsAccelerated()
{
    return detail::avx2CompiledIn() && support::cpuHasAvx2();
}

} // namespace slambench::kfusion
