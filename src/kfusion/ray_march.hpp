#ifndef SLAMBENCH_KFUSION_RAY_MARCH_HPP
#define SLAMBENCH_KFUSION_RAY_MARCH_HPP

/**
 * @file
 * The single-ray marching core every scalar caster shares: both
 * volumes march it with their free-brick skip (marchRay), and the
 * parity tests run it with the NeverFree reference policy against
 * them and against the kernel backends' packet casters.
 */

#include <algorithm>

#include "kfusion/raycast.hpp"
#include "math/aabb.hpp"
#include "math/vec.hpp"

namespace slambench::kfusion {

/** Per-ray result of a march. */
struct RayHit
{
    math::Vec3f hit;  ///< World-space surface point when found.
    int steps = 0;    ///< Marching steps consumed by this ray.
    /** Samples whose fetch the free-space skip elided. */
    int skipped = 0;
    bool found = false; ///< Whether a + to - zero crossing was found.
};

/**
 * Fetch policy that never skips: every sample is fetched. It is the
 * reference the free-brick skip is tested against.
 */
struct NeverFree
{
    bool operator()(const math::Vec3f &) const { return false; }
};

/**
 * Shared single-ray marching core: per-step t accumulation (never
 * jumped, so refined hit parameters are bit-identical across
 * casters), linear zero-crossing refinement, coarse steps across
 * invalid samples. Casters differ only in how a sample is fetched
 * (@p interp) and in which samples they may skip (@p is_free).
 *
 * A sample for which is_free(p) holds skips only the fetch: it is
 * invalid or reads >= 0.8, so either way the reference takes the
 * coarse step and finds no crossing; `++steps` and `t += stepsize`
 * run as before. Its value would only be read again as f_t by a
 * crossing at the next sample, so f_t is left stale and re-fetched
 * at the stored t when that happens. Hits and step counts are
 * therefore bit-identical for every predicate.
 *
 * @param vol_origin,vol_size The volume's AABB.
 * @param origin Ray origin (world).
 * @param dir Unit ray direction (world).
 * @param params Stepping parameters.
 * @param interp (p, valid&) -> interpolated TSDF (1 when invalid).
 * @param is_free (p) -> whether the fetch at p may be skipped.
 * @param[out] ray Result; hit is only meaningful when found.
 */
template <typename InterpFn, typename FreeFn>
void
castRayCore(const math::Vec3f &vol_origin, float vol_size,
            const math::Vec3f &origin, const math::Vec3f &dir,
            const RaycastParams &params, const InterpFn &interp,
            const FreeFn &is_free, RayHit &ray)
{
    using math::Vec3f;
    ray = RayHit{};
    float t_near, t_far;
    const math::Aabb box{vol_origin, vol_origin + Vec3f::all(vol_size)};
    if (!math::intersectRayAabb(box, origin, dir, t_near, t_far))
        return;
    // Start marching at the volume entry point, not the near plane.
    float t = std::max(t_near, params.nearPlane);
    const float t_end = std::min(t_far, params.farPlane);
    if (t >= t_end)
        return;

    // f_t is the previous sample's value; while `stale` it was
    // skipped, and t_stale is where to fetch it.
    bool valid = false;
    float f_t = 1.0f;
    bool stale = is_free(origin + dir * t);
    float t_stale = t;
    if (stale) {
        ++ray.skipped;
    } else {
        f_t = interp(origin + dir * t, valid);
        if (valid && f_t < 0.0f)
            return; // started inside the surface
    }

    float stepsize = params.largeStep;
    while (t < t_end) {
        ++ray.steps;
        t += stepsize;
        const Vec3f p = origin + dir * t;
        if (is_free(p)) {
            // Invalid or >= 0.8 either way: the coarse step.
            stepsize = params.largeStep;
            stale = true;
            t_stale = t;
            ++ray.skipped;
            continue;
        }
        bool sample_valid = false;
        const float f_tt = interp(p, sample_valid);
        if (!sample_valid) {
            // Unknown space: cross at the coarse rate.
            f_t = 1.0f;
            stale = false;
            stepsize = params.largeStep;
            continue;
        }
        if (f_tt < 0.0f) {
            // Zero crossing: linear refinement between samples.
            if (stale)
                f_t = interp(origin + dir * t_stale, valid);
            const float denom = f_t - f_tt;
            const float t_star =
                denom > 1e-12f ? t + stepsize * f_tt / denom : t;
            ray.hit = origin + dir * t_star;
            ray.found = true;
            return;
        }
        // Close to the surface: drop to the fine step.
        stepsize = f_tt < 0.8f ? params.step : params.largeStep;
        f_t = f_tt;
        stale = false;
    }
}

/**
 * castRayCore on the dense volume with its free-brick skip: the
 * scalar caster every kernel backend is tested against.
 */
inline void
marchRay(const TsdfVolume &volume, const math::Vec3f &origin,
         const math::Vec3f &dir, const RaycastParams &params,
         RayHit &ray)
{
    const FreeBrickGrid &free = volume.freeBricks();
    castRayCore(
        volume.origin(), volume.size(), origin, dir, params,
        [&](const math::Vec3f &p, bool &valid) {
            return volume.interp(p, valid);
        },
        [&](const math::Vec3f &p) { return free.sampleIsFree(p); },
        ray);
}

/**
 * castRayCore on the sparse volume with its free-brick skip, fetching
 * through the block cache @p cache.
 */
inline void
marchRay(const SparseTsdfVolume &volume, const math::Vec3f &origin,
         const math::Vec3f &dir, const RaycastParams &params,
         SparseTsdfVolume::LookupCache &cache, RayHit &ray)
{
    const FreeBrickGrid &free = volume.freeBricks();
    castRayCore(
        volume.origin(), volume.size(), origin, dir, params,
        [&](const math::Vec3f &p, bool &valid) {
            return volume.interpCached(p, valid, cache);
        },
        [&](const math::Vec3f &p) { return free.sampleIsFree(p); },
        ray);
}

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_RAY_MARCH_HPP
