#ifndef SLAMBENCH_KFUSION_KERNELS_HPP
#define SLAMBENCH_KFUSION_KERNELS_HPP

/**
 * @file
 * Image-domain preprocessing kernels of the KinectFusion pipeline.
 *
 * Every kernel exists in a Sequential and a Threaded flavor behind the
 * same entry point: pass a ThreadPool to parallelize, or nullptr for
 * the single-threaded reference path (the two are bit-identical for
 * these kernels since each output pixel is independent).
 */

#include <cstdint>

#include "math/camera.hpp"
#include "math/mat.hpp"
#include "math/vec.hpp"
#include "support/image.hpp"
#include "support/thread_pool.hpp"

namespace slambench::kfusion {

using math::CameraIntrinsics;
using math::Mat4f;
using math::Vec3f;
using support::Image;

/**
 * Convert raw sensor depth (millimeters) to meters while subsampling
 * by an integer ratio (the compute-size-ratio parameter).
 *
 * @param[out] out Metric depth, sized (in.width / ratio) x
 *                 (in.height / ratio); 0 marks invalid pixels.
 * @param in Raw sensor depth in millimeters.
 * @param ratio Subsampling factor >= 1.
 * @param pool Optional worker pool.
 */
void mm2metersKernel(Image<float> &out, const Image<uint16_t> &in,
                     int ratio, support::ThreadPool *pool);

class KernelBackend;

/**
 * Edge-preserving bilateral filter on a metric depth image.
 *
 * Invalid (0) pixels stay invalid and do not pollute neighbors. Both
 * the spatial and the range weights come from kfusion::expf, so the
 * output does not depend on the libm version.
 *
 * @param[out] out Filtered depth, same size as @p in.
 * @param in Metric depth.
 * @param radius Half window size in pixels.
 * @param gaussian_delta Spatial sigma, pixels.
 * @param e_delta Range sigma, meters.
 * @param pool Optional worker pool.
 * @param backend Kernel backend filtering each row.
 */
void bilateralFilterKernel(Image<float> &out, const Image<float> &in,
                           int radius, float gaussian_delta,
                           float e_delta, support::ThreadPool *pool,
                           const KernelBackend &backend);

/**
 * Inputs and output of one bilateral filter call (radius >= 1), as
 * bilateralFilterKernel hands them to KernelBackend::bilateralRow.
 */
struct BilateralContext
{
    const float *in = nullptr; ///< Metric depth, row-major.
    float *out = nullptr;      ///< Filtered depth, same size.
    size_t width = 0;          ///< Image width, pixels.
    size_t height = 0;         ///< Image height, pixels.
    int radius = 1;            ///< Half window size, pixels.
    /** Spatial weights, (2 radius + 1)^2 of them, row-major in
     *  (dy, dx). */
    const float *spatial = nullptr;
    float inv2e2 = 0.0f; ///< 1 / (2 e_delta^2).
};

/**
 * The reference filter body: output pixels [@p x_begin, @p x_end) of
 * row @p y, taps in (dy, dx) order. Every backend's row must match it
 * bit for bit.
 */
void bilateralPixels(const BilateralContext &ctx, size_t y,
                     size_t x_begin, size_t x_end);

/**
 * Robust 2x down-sampling used to build the tracking pyramid: the
 * average of the 2x2 block members whose depth is within @p e_delta
 * of the block's reference sample.
 *
 * @param[out] out Half-resolution depth.
 * @param in Source depth.
 * @param e_delta Robustness threshold, meters.
 * @param pool Optional worker pool.
 */
void halfSampleRobustKernel(Image<float> &out, const Image<float> &in,
                            float e_delta, support::ThreadPool *pool);

/**
 * Back-project a depth map into a vertex map (camera frame).
 *
 * @param[out] out Vertex per pixel; (0,0,0) marks invalid.
 * @param depth Metric depth.
 * @param intrinsics Intrinsics matching the depth image size.
 * @param pool Optional worker pool.
 */
void depth2vertexKernel(Image<Vec3f> &out, const Image<float> &depth,
                        const CameraIntrinsics &intrinsics,
                        support::ThreadPool *pool);

/**
 * Normal map from forward differences of the vertex map.
 *
 * @param[out] out Unit normal per pixel; (0,0,0) marks invalid.
 * @param vertex Vertex map.
 * @param pool Optional worker pool.
 * @param backend Kernel backend computing each row.
 */
void vertex2normalKernel(Image<Vec3f> &out, const Image<Vec3f> &vertex,
                         support::ThreadPool *pool,
                         const KernelBackend &backend);

/**
 * Input and output of one vertex2normal call, as vertex2normalKernel
 * hands them to KernelBackend::vertex2normalRow.
 */
struct Vertex2NormalContext
{
    const Vec3f *in = nullptr; ///< Vertex map, row-major.
    Vec3f *out = nullptr;      ///< Normal map, same size.
    size_t width = 0;          ///< Image width, pixels.
    size_t height = 0;         ///< Image height, pixels.
};

/**
 * The reference normal body: output pixels [@p x_begin, @p x_end) of
 * row @p y. Every backend's row must match it bit for bit.
 */
void vertex2normalPixels(const Vertex2NormalContext &ctx, size_t y,
                         size_t x_begin, size_t x_end);

/**
 * Work items charged per output pixel of the bilateral filter with
 * window radius @p radius (its inner loop is the window scan).
 */
inline double
bilateralItemsPerPixel(int radius)
{
    const double side = 2.0 * radius + 1.0;
    return side * side;
}

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_KERNELS_HPP
