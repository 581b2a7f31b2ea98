#include "dataset/renderer.hpp"

#include <algorithm>
#include <cmath>

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

RenderResult
renderFrame(const Scene &scene, const CameraIntrinsics &intrinsics,
            const Mat4f &camera_to_world, const RenderOptions &options)
{
    const size_t w = intrinsics.width;
    const size_t h = intrinsics.height;

    RenderResult result;
    result.depth.resize(w, h);
    result.cosIncidence.resize(w, h);
    result.primitive.resize(w, h);
    result.primitive.fill(-1);
    if (options.shadeRgb)
        result.rgb.resize(w, h);

    const Vec3f origin = camera_to_world.translationPart();
    const float far_clip = scene.farClip();

    // Every pixel is independent and writes only its own slots of the
    // images sized above, so rows split over the pool give the same
    // bytes as a serial sweep.
    const auto render_rows = [&](size_t row_begin, size_t row_end) {
        for (size_t y = row_begin; y < row_end; ++y) {
            for (size_t x = 0; x < w; ++x) {
                const Vec3f dir_cam = intrinsics.rayDir(
                    static_cast<float>(x) + 0.5f,
                    static_cast<float>(y) + 0.5f);
                const Vec3f dir = camera_to_world.transformDir(dir_cam);

                float t = 0.0f;
                bool hit = false;
                int prim_id = -1;
                for (int step = 0; step < options.maxSteps; ++step) {
                    const Vec3f p = origin + dir * t;
                    const SdfSample s = scene.evaluate(p);
                    if (s.distance < options.hitEpsilon) {
                        hit = true;
                        prim_id = s.primitive;
                        break;
                    }
                    t += s.distance;
                    if (t > far_clip)
                        break;
                }

                if (!hit) {
                    result.depth(x, y) = 0.0f;
                    result.cosIncidence(x, y) = 0.0f;
                    if (options.shadeRgb)
                        result.rgb(x, y) = {10, 10, 14};
                    continue;
                }

                const Vec3f p = origin + dir * t;
                const Vec3f n = scene.normal(p, options.normalEpsilon);
                // Depth is camera-Z, not ray length.
                result.depth(x, y) = t * dir_cam.z;
                result.cosIncidence(x, y) = std::abs(n.dot(dir));
                result.primitive(x, y) = prim_id;
                if (options.shadeRgb) {
                    const Primitive &prim =
                        scene.primitives()[static_cast<size_t>(prim_id)];
                    result.rgb(x, y) = shade(prim, n, dir);
                }
            }
        }
    };
    support::ThreadPool::global().parallelForChunked(0, h, render_rows);
    return result;
}

} // namespace slambench::dataset
