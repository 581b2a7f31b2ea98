#ifndef SLAMBENCH_DATASET_TRACER_HPP
#define SLAMBENCH_DATASET_TRACER_HPP

/**
 * @file
 * Internal interface of the renderer: the per-row work of renderFrame
 * and the two sphere tracers it can run, the scalar reference
 * (renderer.cpp) and the 8-lane AVX2 one (renderer_avx2.cpp, the only
 * dataset file compiled with -mavx2). Both give the same bytes; the
 * AVX2 tracer runs only after a CPUID check. Not part of the public
 * dataset API — include renderer.hpp instead.
 */

#include <cstddef>

#include "dataset/renderer.hpp"

namespace slambench::dataset::detail {

/** Where one sphere-traced ray stopped and the surface normal there. */
struct RayTrace
{
    bool hit = false;   ///< The march reached hitEpsilon.
    float t = 0.0f;     ///< Ray length at the hit.
    int primitive = -1; ///< Scene::evaluate's index at the hit.
    Vec3f normal{};     ///< Scene::normal at the hit point.
};

/**
 * Sphere-trace @p count rays from @p origin along the unit directions
 * @p dirs through @p scene, as renderFrame defines the march: at most
 * options.maxSteps Scene::evaluate samples, stopping at a distance
 * below options.hitEpsilon (a hit) or a ray length beyond
 * Scene::farClip() (a miss).
 */
using TraceRays = void (*)(const Scene &scene, const Vec3f &origin,
                           const Vec3f *dirs, size_t count,
                           const RenderOptions &options, RayTrace *out);

/** The scalar reference tracer: one ray after another. */
void traceRaysScalar(const Scene &scene, const Vec3f &origin,
                     const Vec3f *dirs, size_t count,
                     const RenderOptions &options, RayTrace *out);

/**
 * The AVX2 tracer: 8 rays per packet, each lane replaying the scalar
 * march and normal bit for bit (docs/KERNEL_BACKENDS.md). Call only
 * when avx2TracerAvailable().
 */
void traceRaysAvx2(const Scene &scene, const Vec3f &origin,
                   const Vec3f *dirs, size_t count,
                   const RenderOptions &options, RayTrace *out);

/**
 * @return true when renderer_avx2.cpp was compiled with AVX2 code
 * generation (the build found a working -mavx2).
 */
bool avx2TracerCompiledIn();

/**
 * @return true when the AVX2 tracer is compiled in and the CPU
 * supports AVX2 (support::cpuHasAvx2()); renderFrame then traces
 * with it.
 */
bool avx2TracerAvailable();

/**
 * @return images sized for a frame of @p intrinsics, the RGB one only
 * when options.shadeRgb; renderRows fills them.
 */
RenderResult makeRenderResult(const CameraIntrinsics &intrinsics,
                              const RenderOptions &options);

/**
 * Render rows [@p row_begin, @p row_end) of @p out (from
 * makeRenderResult) with @p trace, reusing one set of row buffers.
 * Writes only those rows, so disjoint ranges may run concurrently.
 */
void renderRows(const Scene &scene, const CameraIntrinsics &intrinsics,
                const Mat4f &camera_to_world, const RenderOptions &options,
                TraceRays trace, size_t row_begin, size_t row_end,
                RenderResult &out);

} // namespace slambench::dataset::detail

#endif // SLAMBENCH_DATASET_TRACER_HPP
