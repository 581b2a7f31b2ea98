#include "dataset/renderer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dataset/tracer.hpp"
#include "support/cpu.hpp"
#include "support/thread_pool.hpp"

namespace slambench::dataset {

using math::Vec3f;

namespace {

/** Shade a Lambertian hit with two lights plus ambient. */
support::Rgb8
shade(const Primitive &prim, const Vec3f &normal, const Vec3f &view_dir)
{
    // Fixed ceiling light plus a headlight term so every visible
    // surface has some gradient (matches how ICL-NUIM frames look).
    const Vec3f key_light = Vec3f{0.35f, 1.0f, 0.25f}.normalized();
    const float key = std::max(0.0f, normal.dot(key_light));
    const float head = std::max(0.0f, normal.dot(-view_dir));
    const float intensity =
        std::min(1.0f, 0.25f + 0.45f * key + 0.30f * head);
    auto channel = [intensity](uint8_t albedo) {
        return static_cast<uint8_t>(
            std::min(255.0f, static_cast<float>(albedo) * intensity));
    };
    return {channel(prim.albedo.r), channel(prim.albedo.g),
            channel(prim.albedo.b)};
}

} // namespace

namespace detail {

void
traceRaysScalar(const Scene &scene, const Vec3f &origin, const Vec3f *dirs,
                size_t count, const RenderOptions &options, RayTrace *out)
{
    const float far_clip = scene.farClip();
    for (size_t i = 0; i < count; ++i) {
        const Vec3f &dir = dirs[i];
        RayTrace &ray = out[i];
        ray = RayTrace{};
        float t = 0.0f;
        for (int step = 0; step < options.maxSteps; ++step) {
            const Vec3f p = origin + dir * t;
            const SdfSample s = scene.evaluate(p);
            if (s.distance < options.hitEpsilon) {
                ray.hit = true;
                ray.primitive = s.primitive;
                break;
            }
            t += s.distance;
            if (t > far_clip)
                break;
        }
        if (ray.hit) {
            ray.t = t;
            ray.normal =
                scene.normal(origin + dir * t, options.normalEpsilon);
        }
    }
}

bool
avx2TracerAvailable()
{
    return avx2TracerCompiledIn() && support::cpuHasAvx2();
}

RenderResult
makeRenderResult(const CameraIntrinsics &intrinsics,
                 const RenderOptions &options)
{
    const size_t w = intrinsics.width;
    const size_t h = intrinsics.height;
    RenderResult result;
    result.depth.resize(w, h);
    result.cosIncidence.resize(w, h);
    result.primitive.resize(w, h);
    if (options.shadeRgb)
        result.rgb.resize(w, h);
    return result;
}

void
renderRows(const Scene &scene, const CameraIntrinsics &intrinsics,
           const Mat4f &camera_to_world, const RenderOptions &options,
           TraceRays trace, size_t row_begin, size_t row_end,
           RenderResult &out)
{
    const size_t w = intrinsics.width;
    const Vec3f origin = camera_to_world.translationPart();
    std::vector<Vec3f> dirs(w);
    std::vector<float> dir_cam_z(w);
    std::vector<RayTrace> rays(w);
    for (size_t y = row_begin; y < row_end; ++y) {
        for (size_t x = 0; x < w; ++x) {
            const Vec3f dir_cam =
                intrinsics.rayDir(static_cast<float>(x) + 0.5f,
                                  static_cast<float>(y) + 0.5f);
            dirs[x] = camera_to_world.transformDir(dir_cam);
            dir_cam_z[x] = dir_cam.z;
        }
        trace(scene, origin, dirs.data(), w, options, rays.data());

        for (size_t x = 0; x < w; ++x) {
            const RayTrace &ray = rays[x];
            if (!ray.hit) {
                out.depth(x, y) = 0.0f;
                out.cosIncidence(x, y) = 0.0f;
                out.primitive(x, y) = -1;
                if (options.shadeRgb)
                    out.rgb(x, y) = {10, 10, 14};
                continue;
            }
            // Depth is camera-Z, not ray length.
            out.depth(x, y) = ray.t * dir_cam_z[x];
            out.cosIncidence(x, y) = std::abs(ray.normal.dot(dirs[x]));
            out.primitive(x, y) = ray.primitive;
            if (options.shadeRgb) {
                const Primitive &prim =
                    scene.primitives()[static_cast<size_t>(ray.primitive)];
                out.rgb(x, y) = shade(prim, ray.normal, dirs[x]);
            }
        }
    }
}

} // namespace detail

RenderResult
renderFrame(const Scene &scene, const CameraIntrinsics &intrinsics,
            const Mat4f &camera_to_world, const RenderOptions &options)
{
    RenderResult result = detail::makeRenderResult(intrinsics, options);
    const detail::TraceRays trace = detail::avx2TracerAvailable()
                                        ? detail::traceRaysAvx2
                                        : detail::traceRaysScalar;
    // Every pixel is independent and each row writes only its own
    // slots of the images, so rows split over the pool give the same
    // bytes as a serial sweep, with either tracer.
    support::ThreadPool::global().parallelForChunked(
        0, intrinsics.height, [&](size_t row_begin, size_t row_end) {
            detail::renderRows(scene, intrinsics, camera_to_world, options,
                               trace, row_begin, row_end, result);
        });
    return result;
}

} // namespace slambench::dataset
