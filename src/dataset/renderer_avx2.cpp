/**
 * @file
 * The AVX2 sphere tracer behind renderFrame: 8 pixels of a row march
 * together, one per lane. This is the only dataset translation unit
 * compiled with -mavx2; renderFrame dispatches here only after a
 * runtime CPUID check (detail::avx2TracerAvailable()).
 *
 * Bit-exactness (docs/KERNEL_BACKENDS.md): each lane replays the
 * scalar march of traceRaysScalar, Scene::evaluate, Scene::distance
 * and Scene::normal in the same operation order with the same
 * rounding: no FMA (the file is built without -mfma and uses no FMA
 * intrinsic), _mm256_sqrt_ps where the scalar code calls std::sqrt,
 * and std::max(a, b) / std::min(a, b) as _mm256_max_ps(b, a) /
 * _mm256_min_ps(b, a), which return the same operand for zeros of
 * either sign and for NaN. A packet skips a primitive only when every
 * lane still marching may skip it (kCullSlack); a lane that evaluates
 * a primitive its own bound rules out gets a distance that fails the
 * strict `d < best` update, so its minimum and index are unchanged.
 *
 * The file calls no Vec3 arithmetic and no libm function: all of its
 * float math is intrinsics, and ray setup and shading stay in
 * renderer.cpp at the baseline ISA.
 */

#include "dataset/tracer.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace slambench::dataset::detail {

bool
avx2TracerCompiledIn()
{
    return true;
}

namespace {

constexpr int kLanes = 8;

/** Three coordinates of 8 lanes. */
struct Vec8
{
    __m256 x, y, z;
};

__m256
abs8(__m256 v)
{
    return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

/** a.x * b.x + a.y * b.y + a.z * b.z, left to right (Vec3::dot). */
__m256
dot8(const Vec8 &a, const Vec8 &b)
{
    return _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(a.x, b.x), _mm256_mul_ps(a.y, b.y)),
        _mm256_mul_ps(a.z, b.z));
}

/** sdBox of sdf.cpp, per lane. */
__m256
sdBox8(const Vec8 &p, const Vec3f &half, float rounding)
{
    const __m256 zero = _mm256_setzero_ps();
    const Vec8 q{_mm256_sub_ps(abs8(p.x), _mm256_set1_ps(half.x)),
                 _mm256_sub_ps(abs8(p.y), _mm256_set1_ps(half.y)),
                 _mm256_sub_ps(abs8(p.z), _mm256_set1_ps(half.z))};
    const Vec8 q_pos{_mm256_max_ps(zero, q.x), _mm256_max_ps(zero, q.y),
                     _mm256_max_ps(zero, q.z)};
    const __m256 outside = _mm256_sqrt_ps(dot8(q_pos, q_pos));
    const __m256 inside = _mm256_min_ps(
        zero, _mm256_max_ps(_mm256_max_ps(q.z, q.y), q.x));
    return _mm256_sub_ps(_mm256_add_ps(outside, inside),
                         _mm256_set1_ps(rounding));
}

/** sdCylinderY of sdf.cpp, per lane. */
__m256
sdCylinderY8(const Vec8 &p, float radius, float half_height)
{
    const __m256 zero = _mm256_setzero_ps();
    const __m256 dxz = _mm256_sub_ps(
        _mm256_sqrt_ps(_mm256_add_ps(_mm256_mul_ps(p.x, p.x),
                                     _mm256_mul_ps(p.z, p.z))),
        _mm256_set1_ps(radius));
    const __m256 dy =
        _mm256_sub_ps(abs8(p.y), _mm256_set1_ps(half_height));
    const __m256 ox = _mm256_max_ps(zero, dxz);
    const __m256 oy = _mm256_max_ps(zero, dy);
    const __m256 outside = _mm256_sqrt_ps(
        _mm256_add_ps(_mm256_mul_ps(ox, ox), _mm256_mul_ps(oy, oy)));
    const __m256 inside = _mm256_min_ps(zero, _mm256_max_ps(dy, dxz));
    return _mm256_add_ps(outside, inside);
}

/** toLocal of sdf.cpp, per lane, from @p d = p - center. */
Vec8
toLocal8(const Primitive &prim, const YawRotation &rot, const Vec8 &d)
{
    if (prim.yaw == 0.0f)
        return d;
    const __m256 c = _mm256_set1_ps(rot.cos);
    const __m256 s = _mm256_set1_ps(rot.sin);
    const __m256 neg_s = _mm256_set1_ps(-rot.sin);
    return {_mm256_add_ps(_mm256_mul_ps(c, d.x), _mm256_mul_ps(s, d.z)), d.y,
            _mm256_add_ps(_mm256_mul_ps(neg_s, d.x),
                          _mm256_mul_ps(c, d.z))};
}

/** distanceTo of sdf.cpp, per lane, at @p p with @p d = p - center. */
__m256
distanceTo8(const Primitive &prim, const PrimitiveCache &cache,
            const Vec8 &p, const Vec8 &d)
{
    switch (prim.kind) {
      case PrimitiveKind::Sphere:
        return _mm256_sub_ps(_mm256_sqrt_ps(dot8(d, d)),
                             _mm256_set1_ps(prim.params.x));
      case PrimitiveKind::Box:
        return sdBox8(toLocal8(prim, cache.rotation, d), prim.params,
                      prim.rounding);
      case PrimitiveKind::InvertedBox:
        return _mm256_xor_ps(
            sdBox8(toLocal8(prim, cache.rotation, d), prim.params,
                   prim.rounding),
            _mm256_set1_ps(-0.0f));
      case PrimitiveKind::Cylinder:
        return sdCylinderY8(toLocal8(prim, cache.rotation, d),
                            prim.params.x, prim.params.y);
      case PrimitiveKind::Plane: {
        const Vec3f &n = cache.planeNormal;
        const Vec8 n8{_mm256_set1_ps(n.x), _mm256_set1_ps(n.y),
                      _mm256_set1_ps(n.z)};
        return _mm256_sub_ps(dot8(p, n8), _mm256_set1_ps(prim.rounding));
      }
    }
    return _mm256_set1_ps(0.0f); // unreachable
}

/**
 * The scene's min-union at @p p, per lane: Scene::evaluate (with
 * @p index) or Scene::distance (without). Lanes outside the bit mask
 * @p active are computed too but may not hold back a cull.
 */
__m256
sceneDistance8(const Scene &scene, const Vec8 &p, int active,
               __m256i *index)
{
    const std::vector<Primitive> &prims = scene.primitives();
    const std::vector<PrimitiveCache> &caches = scene.caches();
    const __m256 zero = _mm256_setzero_ps();
    const __m256 slack = _mm256_set1_ps(kCullSlack);
    __m256 best = _mm256_set1_ps(scene.farClip());
    __m256i best_index = _mm256_set1_epi32(-1);
    for (size_t i = 0; i < prims.size(); ++i) {
        const Primitive &prim = prims[i];
        const PrimitiveCache &cache = caches[i];
        const Vec8 d{_mm256_sub_ps(p.x, _mm256_set1_ps(prim.center.x)),
                     _mm256_sub_ps(p.y, _mm256_set1_ps(prim.center.y)),
                     _mm256_sub_ps(p.z, _mm256_set1_ps(prim.center.z))};
        if (cache.reach >= 0.0f) {
            const __m256 bound = _mm256_add_ps(
                _mm256_add_ps(best, _mm256_mul_ps(slack, abs8(best))),
                _mm256_set1_ps(cache.reach));
            const __m256 skip = _mm256_and_ps(
                _mm256_cmp_ps(bound, zero, _CMP_GE_OQ),
                _mm256_cmp_ps(dot8(d, d), _mm256_mul_ps(bound, bound),
                              _CMP_GE_OQ));
            if ((_mm256_movemask_ps(skip) & active) == active)
                continue;
        }
        const __m256 dist = distanceTo8(prim, cache, p, d);
        const __m256 nearer = _mm256_cmp_ps(dist, best, _CMP_LT_OQ);
        best = _mm256_blendv_ps(best, dist, nearer);
        if (index)
            best_index = _mm256_castps_si256(_mm256_blendv_ps(
                _mm256_castsi256_ps(best_index),
                _mm256_castsi256_ps(
                    _mm256_set1_epi32(static_cast<int>(i))),
                nearer));
    }
    if (index)
        *index = best_index;
    return best;
}

/** Scene::normal at @p p, per lane, for the lanes in @p active. */
Vec8
sceneNormal8(const Scene &scene, const Vec8 &p, float eps, int active)
{
    const __m256 e = _mm256_set1_ps(eps);
    const auto at = [&](__m256 x, __m256 y, __m256 z) {
        return sceneDistance8(scene, {x, y, z}, active, nullptr);
    };
    const Vec8 g{
        _mm256_sub_ps(at(_mm256_add_ps(p.x, e), p.y, p.z),
                      at(_mm256_sub_ps(p.x, e), p.y, p.z)),
        _mm256_sub_ps(at(p.x, _mm256_add_ps(p.y, e), p.z),
                      at(p.x, _mm256_sub_ps(p.y, e), p.z)),
        _mm256_sub_ps(at(p.x, p.y, _mm256_add_ps(p.z, e)),
                      at(p.x, p.y, _mm256_sub_ps(p.z, e)))};
    // Vec3::normalized: divide by the norm only where it is > 0.
    const __m256 norm = _mm256_sqrt_ps(dot8(g, g));
    const __m256 positive =
        _mm256_cmp_ps(norm, _mm256_setzero_ps(), _CMP_GT_OQ);
    return {_mm256_blendv_ps(g.x, _mm256_div_ps(g.x, norm), positive),
            _mm256_blendv_ps(g.y, _mm256_div_ps(g.y, norm), positive),
            _mm256_blendv_ps(g.z, _mm256_div_ps(g.z, norm), positive)};
}

/** origin + dir * t, per lane. */
Vec8
pointAlong8(const Vec8 &origin, const Vec8 &dir, __m256 t)
{
    return {_mm256_add_ps(origin.x, _mm256_mul_ps(dir.x, t)),
            _mm256_add_ps(origin.y, _mm256_mul_ps(dir.y, t)),
            _mm256_add_ps(origin.z, _mm256_mul_ps(dir.z, t))};
}

/** Trace @p lanes (1..8) rays; the other lanes start finished. */
void
tracePacket(const Scene &scene, const Vec3f &origin, const Vec3f *dirs,
            int lanes, const RenderOptions &options, RayTrace *out)
{
    alignas(32) float dx[kLanes] = {};
    alignas(32) float dy[kLanes] = {};
    alignas(32) float dz[kLanes] = {};
    for (int i = 0; i < lanes; ++i) {
        dx[i] = dirs[i].x;
        dy[i] = dirs[i].y;
        dz[i] = dirs[i].z;
    }
    const Vec8 dir{_mm256_load_ps(dx), _mm256_load_ps(dy),
                   _mm256_load_ps(dz)};
    const Vec8 org{_mm256_set1_ps(origin.x), _mm256_set1_ps(origin.y),
                   _mm256_set1_ps(origin.z)};
    const __m256 hit_epsilon = _mm256_set1_ps(options.hitEpsilon);
    const __m256 far_clip = _mm256_set1_ps(scene.farClip());

    // Lane masks: marching, and stopped on a surface.
    __m256 running = _mm256_castsi256_ps(_mm256_cmpgt_epi32(
        _mm256_set1_epi32(lanes), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
    __m256 hit = _mm256_setzero_ps();
    __m256 t = _mm256_setzero_ps();
    __m256i primitive = _mm256_set1_epi32(-1);
    for (int step = 0; step < options.maxSteps; ++step) {
        const int active = _mm256_movemask_ps(running);
        if (active == 0)
            break;
        __m256i index;
        const __m256 d =
            sceneDistance8(scene, pointAlong8(org, dir, t), active, &index);
        const __m256 arrived = _mm256_and_ps(
            running, _mm256_cmp_ps(d, hit_epsilon, _CMP_LT_OQ));
        hit = _mm256_or_ps(hit, arrived);
        primitive = _mm256_castps_si256(
            _mm256_blendv_ps(_mm256_castsi256_ps(primitive),
                             _mm256_castsi256_ps(index), arrived));
        running = _mm256_andnot_ps(arrived, running);
        t = _mm256_blendv_ps(t, _mm256_add_ps(t, d), running);
        running = _mm256_andnot_ps(
            _mm256_cmp_ps(t, far_clip, _CMP_GT_OQ), running);
    }

    const int hits = _mm256_movemask_ps(hit);
    alignas(32) float nx[kLanes] = {};
    alignas(32) float ny[kLanes] = {};
    alignas(32) float nz[kLanes] = {};
    alignas(32) float ts[kLanes];
    alignas(32) int prims[kLanes];
    if (hits != 0) {
        const Vec8 n = sceneNormal8(scene, pointAlong8(org, dir, t),
                                    options.normalEpsilon, hits);
        _mm256_store_ps(nx, n.x);
        _mm256_store_ps(ny, n.y);
        _mm256_store_ps(nz, n.z);
    }
    _mm256_store_ps(ts, t);
    _mm256_store_si256(reinterpret_cast<__m256i *>(prims), primitive);
    for (int i = 0; i < lanes; ++i) {
        RayTrace &ray = out[i];
        ray = RayTrace{};
        if ((hits >> i) & 1) {
            ray.hit = true;
            ray.t = ts[i];
            ray.primitive = prims[i];
            ray.normal = {nx[i], ny[i], nz[i]};
        }
    }
}

} // namespace

void
traceRaysAvx2(const Scene &scene, const Vec3f &origin, const Vec3f *dirs,
              size_t count, const RenderOptions &options, RayTrace *out)
{
    for (size_t base = 0; base < count; base += kLanes) {
        const size_t lanes = count - base < kLanes ? count - base : kLanes;
        tracePacket(scene, origin, dirs + base, static_cast<int>(lanes),
                    options, out + base);
    }
}

} // namespace slambench::dataset::detail

#else // !defined(__AVX2__)

#include "support/logging.hpp"

namespace slambench::dataset::detail {

// Without -mavx2 renderFrame never dispatches here
// (avx2TracerAvailable() is false); this keeps the build linking.

bool
avx2TracerCompiledIn()
{
    return false;
}

void
traceRaysAvx2(const Scene &, const Vec3f &, const Vec3f *, size_t,
              const RenderOptions &, RayTrace *)
{
    support::fatal("traceRaysAvx2: AVX2 not compiled in");
}

} // namespace slambench::dataset::detail

#endif // defined(__AVX2__)
