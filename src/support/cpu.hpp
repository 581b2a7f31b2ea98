#ifndef SLAMBENCH_SUPPORT_CPU_HPP
#define SLAMBENCH_SUPPORT_CPU_HPP

/**
 * @file
 * Runtime CPU feature check shared by the AVX2 dispatchers (the
 * kfusion "simd" backend and the dataset renderer).
 */

namespace slambench::support {

/**
 * @return true when the CPU running this process supports AVX2;
 * always false off x86, where the CPUID builtin has no "avx2".
 */
inline bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

} // namespace slambench::support

#endif // SLAMBENCH_SUPPORT_CPU_HPP
