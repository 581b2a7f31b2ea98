#ifndef SLAMBENCH_DATASET_RENDERER_HPP
#define SLAMBENCH_DATASET_RENDERER_HPP

/**
 * @file
 * Sphere-tracing RGB-D renderer over SDF scenes.
 *
 * Produces, per frame: a metric depth image (camera-Z, meters), an RGB
 * image (Lambertian shading), the cosine of the incidence angle (used
 * by the sensor noise model to decide grazing-angle dropouts), and the
 * id of the primitive hit by each ray.
 */

#include "dataset/sdf.hpp"
#include "math/camera.hpp"
#include "math/mat.hpp"
#include "support/image.hpp"

namespace slambench::dataset {

using math::CameraIntrinsics;
using math::Mat4f;

/** Tuning knobs of the sphere tracer. */
struct RenderOptions
{
    /** Maximum marching iterations per ray. */
    int maxSteps = 192;
    /** Surface hit threshold, meters. */
    float hitEpsilon = 1e-3f;
    /** Step for finite-difference normals, meters. */
    float normalEpsilon = 1e-3f;
    /** Render RGB as well as depth. */
    bool shadeRgb = true;
};

/** Output of rendering one frame. */
struct RenderResult
{
    /** Camera-Z depth in meters; 0 marks a miss. */
    support::Image<float> depth;
    /** Shaded color image (empty when shadeRgb is false). */
    support::Image<support::Rgb8> rgb;
    /** |cos| of the angle between surface normal and view ray. */
    support::Image<float> cosIncidence;
    /** Primitive index hit per pixel; -1 on miss. */
    support::Image<int> primitive;
};

/**
 * Render one RGB-D frame of @p scene. Rows run on the global thread
 * pool, through the 8-lane AVX2 tracer when the build and the CPU
 * have AVX2 and the scalar one otherwise; the bytes are the same for
 * any thread count and either tracer.
 *
 * @param scene Scene to render.
 * @param intrinsics Pinhole camera model (sets the image size).
 * @param camera_to_world Camera pose.
 * @param options Tracer options.
 * @return depth/rgb/incidence/primitive images.
 */
RenderResult renderFrame(const Scene &scene,
                         const CameraIntrinsics &intrinsics,
                         const Mat4f &camera_to_world,
                         const RenderOptions &options = {});

} // namespace slambench::dataset

#endif // SLAMBENCH_DATASET_RENDERER_HPP
