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
 * @return the AVX2 "simd" backend, or nullptr when backend_avx2.cpp
 * was compiled without AVX2 code generation (the build found no
 * working -mavx2). Run it only where support::cpuHasAvx2().
 */
const KernelBackend *avx2Backend();

/**
 * The AVX2 lanes of kfusion::expf: out[i] = expf(x[i]) for i < n,
 * 8 lanes at a time (a tail under 8 runs the scalar form). Call it
 * only when simdBackendIsAccelerated().
 */
void expfAvx2(const float *x, float *out, size_t n);

} // namespace slambench::kfusion::detail

#endif // SLAMBENCH_KFUSION_BACKEND_SIMD_HPP
