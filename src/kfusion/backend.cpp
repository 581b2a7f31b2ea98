#include "kfusion/backend.hpp"

#include <algorithm>
#include <array>

#include "kfusion/backend_simd.hpp"
#include "support/cpu.hpp"

namespace slambench::kfusion {

using math::Vec3f;

namespace {

/**
 * The reference kernels as they have always run: every other backend
 * must reproduce each of them bit-for-bit. Constructed under a name,
 * so the "simd" row can run them on hosts without AVX2.
 */
class ScalarBackend final : public KernelBackend
{
  public:
    explicit ScalarBackend(const char *name) : name_(name) {}

    const char *name() const override { return name_; }

    /** The inner loop of TsdfVolume::integrateImpl before backends. */
    void
    integrateColumn(const IntegrateContext &ctx, Voxel *column,
                    int z_begin, int z_end, Vec3f pos,
                    uint64_t *dirty) const override
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

    Vec3f
    grad(const TsdfVolume &volume, const Vec3f &p) const override
    {
        return volume.grad(p);
    }

    /** One marchRay() per packet lane. */
    void
    castRays(const TsdfVolume &volume, const Vec3f &origin,
             const Vec3f *dirs, size_t count,
             const RaycastParams &params, RayHit *hits) const override
    {
        for (size_t l = 0; l < count; ++l)
            marchRay(volume, origin, dirs[l], params, hits[l]);
    }

    /**
     * One marchRay() per lane, with one block cache for the packet
     * (adjacent rays walk the same blocks).
     */
    void
    castRays(const SparseTsdfVolume &volume, const Vec3f &origin,
             const Vec3f *dirs, size_t count,
             const RaycastParams &params, RayHit *hits) const override
    {
        SparseTsdfVolume::LookupCache cache;
        for (size_t l = 0; l < count; ++l)
            marchRay(volume, origin, dirs[l], params, cache, hits[l]);
    }

    ReductionResult
    reduceRange(const support::Image<TrackData> &track_data,
                size_t begin, size_t end) const override
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

  private:
    const char *name_;
};

/**
 * The built-in backends, in kernelBackendNames() order. The "simd"
 * row is the AVX2 backend when simdBackendIsAccelerated(), else the
 * scalar kernels under its name.
 */
const std::array<const KernelBackend *, 2> &
backendTable()
{
    static const ScalarBackend scalar("scalar");
    static const ScalarBackend scalar_simd("simd");
    static const std::array<const KernelBackend *, 2> table{
        &scalar,
        simdBackendIsAccelerated() ? detail::avx2Backend() : &scalar_simd};
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
    return detail::avx2Backend() != nullptr && support::cpuHasAvx2();
}

} // namespace slambench::kfusion
