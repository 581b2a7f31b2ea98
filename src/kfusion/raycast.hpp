#ifndef SLAMBENCH_KFUSION_RAYCAST_HPP
#define SLAMBENCH_KFUSION_RAYCAST_HPP

/**
 * @file
 * TSDF surface extraction by ray marching (KinectFusion's raycast
 * stage) plus the shaded visualization render used by the GUI path.
 */

#include "kfusion/sparse_volume.hpp"
#include "kfusion/volume.hpp"
#include "kfusion/work_counters.hpp"
#include "math/camera.hpp"
#include "support/image.hpp"
#include "support/thread_pool.hpp"

namespace slambench::kfusion {

class KernelBackend;

/** Raycast tuning (derived from the configuration). */
struct RaycastParams
{
    float nearPlane = 0.4f; ///< Meters.
    float farPlane = 4.5f;  ///< Meters.
    /** Coarse step while outside the truncation band, meters. */
    float largeStep = 0.075f;
    /** Fine step near the surface (typically the voxel size). */
    float step = 0.01875f;
};

/**
 * Raycast the volume from a camera, producing model vertex and
 * normal maps in *world* coordinates (the tracker's reference).
 *
 * @param[out] vertex_out World-space hit per pixel; zero on miss.
 * @param[out] normal_out World-space unit normal; zero on miss.
 * @param volume Fused TSDF volume.
 * @param intrinsics Output camera intrinsics.
 * @param camera_to_world Camera pose to cast from.
 * @param params Stepping parameters.
 * @param[in,out] counts Work accounting (Raycast kernel; the item
 *                       unit is marching steps taken).
 * @param pool Optional worker pool.
 * @param backend Kernel backend casting the rays and evaluating the
 *                gradients.
 */
void raycastKernel(support::Image<math::Vec3f> &vertex_out,
                   support::Image<math::Vec3f> &normal_out,
                   const TsdfVolume &volume,
                   const math::CameraIntrinsics &intrinsics,
                   const math::Mat4f &camera_to_world,
                   const RaycastParams &params, WorkCounts &counts,
                   support::ThreadPool *pool,
                   const KernelBackend &backend);

/**
 * Shaded rendering of the current model (the GUI's right pane).
 *
 * @param[out] out Shaded image.
 * @param volume Fused TSDF volume.
 * @param intrinsics Output camera intrinsics.
 * @param camera_to_world View pose.
 * @param params Stepping parameters.
 * @param[in,out] counts Work accounting (RenderVolume kernel).
 * @param pool Optional worker pool.
 * @param backend Kernel backend casting the rays and evaluating the
 *                gradients.
 */
void renderVolumeKernel(support::Image<support::Rgb8> &out,
                        const TsdfVolume &volume,
                        const math::CameraIntrinsics &intrinsics,
                        const math::Mat4f &camera_to_world,
                        const RaycastParams &params, WorkCounts &counts,
                        support::ThreadPool *pool,
                        const KernelBackend &backend);

/**
 * Shaded rendering from a raycast's normal map instead of a second
 * march. Pixel-for-pixel identical to renderVolumeKernel when
 * @p normals came from raycastKernel at the same pose, intrinsics and
 * stepping parameters on an unchanged volume: raycast keeps exactly
 * the hits the render shades, with the same normalized gradient.
 *
 * @param[out] out Shaded image, sized like @p normals.
 * @param normals World-space normal map (zero = no surface).
 * @param march_steps That raycast's total marching steps; charged to
 *                    RenderVolume as the march would have been, so
 *                    work counts and device models do not change.
 * @param[in,out] counts Work accounting (RenderVolume kernel).
 * @param pool Optional worker pool.
 */
void renderFromNormalsKernel(support::Image<support::Rgb8> &out,
                             const support::Image<math::Vec3f> &normals,
                             double march_steps, WorkCounts &counts,
                             support::ThreadPool *pool);

/**
 * Sparse-volume raycast: the kernel backend's packet caster on the
 * sparse sampler; results are bit-identical to the dense raycast of
 * the same integrates.
 */
void raycastKernel(support::Image<math::Vec3f> &vertex_out,
                   support::Image<math::Vec3f> &normal_out,
                   const SparseTsdfVolume &volume,
                   const math::CameraIntrinsics &intrinsics,
                   const math::Mat4f &camera_to_world,
                   const RaycastParams &params, WorkCounts &counts,
                   support::ThreadPool *pool,
                   const KernelBackend &backend);

/** Sparse-volume shaded render (see renderVolumeKernel above). */
void renderVolumeKernel(support::Image<support::Rgb8> &out,
                        const SparseTsdfVolume &volume,
                        const math::CameraIntrinsics &intrinsics,
                        const math::Mat4f &camera_to_world,
                        const RaycastParams &params, WorkCounts &counts,
                        support::ThreadPool *pool,
                        const KernelBackend &backend);

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_RAYCAST_HPP
