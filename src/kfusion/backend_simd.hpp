#ifndef SLAMBENCH_KFUSION_BACKEND_SIMD_HPP
#define SLAMBENCH_KFUSION_BACKEND_SIMD_HPP

/**
 * @file
 * Internal interface between the kernel-backend table
 * (backend.cpp) and the AVX2 translation unit (backend_avx2.cpp),
 * which is the only file compiled with -mavx2. Not part of the
 * public backend API — include backend.hpp instead.
 */

#include "kfusion/backend.hpp"

namespace slambench::kfusion::detail {

/**
 * @return true when backend_avx2.cpp was compiled with AVX2 code
 * generation (the build found a working -mavx2); call the *Avx2
 * functions below only when simdBackendIsAccelerated().
 */
bool avx2CompiledIn();

/** AVX2 flavor of KernelBackend::integrateColumn (bit-exact). */
void integrateColumnAvx2(const IntegrateContext &ctx, Voxel *column,
                         int z_begin, int z_end, math::Vec3f pos,
                         uint64_t *dirty);

/** AVX2 flavor of KernelBackend::grad (bit-exact). */
math::Vec3f gradAvx2(const TsdfVolume &volume, const math::Vec3f &p);

/** AVX2 flavor of KernelBackend::castRays (bit-exact per lane). */
void castRaysAvx2(const TsdfVolume &volume, const math::Vec3f &origin,
                  const math::Vec3f *dirs, size_t count,
                  const RaycastParams &params, RayHit *hits);

/** castRaysAvx2 on the sparse volume (bit-exact per lane). */
void castRaysAvx2(const SparseTsdfVolume &volume,
                  const math::Vec3f &origin, const math::Vec3f *dirs,
                  size_t count, const RaycastParams &params,
                  RayHit *hits);

/** AVX2 flavor of KernelBackend::reduceRange (bit-exact). */
ReductionResult
reduceRangeAvx2(const support::Image<TrackData> &track_data,
                size_t begin, size_t end);

/** AVX2 flavor of KernelBackend::bilateralRow (bit-exact per pixel). */
void bilateralRowAvx2(const BilateralContext &ctx, size_t y);

/** AVX2 flavor of KernelBackend::trackRow (bit-exact per pixel). */
void trackRowAvx2(const TrackContext &ctx, size_t y);

/** AVX2 flavor of KernelBackend::vertex2normalRow (bit-exact per pixel). */
void vertex2normalRowAvx2(const Vertex2NormalContext &ctx, size_t y);

/**
 * The AVX2 lanes of kfusion::expf: out[i] = expf(x[i]) for i < n,
 * 8 lanes at a time (a tail under 8 runs the scalar form).
 */
void expfAvx2(const float *x, float *out, size_t n);

} // namespace slambench::kfusion::detail

#endif // SLAMBENCH_KFUSION_BACKEND_SIMD_HPP
