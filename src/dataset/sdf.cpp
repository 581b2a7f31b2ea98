#include "dataset/sdf.hpp"

#include <algorithm>
#include <cmath>

namespace slambench::dataset {

namespace {

/** Rotate @p p - center by -yaw about Y (world -> primitive-local). */
Vec3f
toLocal(const Primitive &prim, const YawRotation &rot, const Vec3f &p)
{
    const Vec3f d = p - prim.center;
    if (prim.yaw == 0.0f)
        return d;
    return {rot.cos * d.x + rot.sin * d.z, d.y,
            -rot.sin * d.x + rot.cos * d.z};
}

float
sdBox(const Vec3f &p, const Vec3f &half, float rounding)
{
    const Vec3f q{std::abs(p.x) - half.x, std::abs(p.y) - half.y,
                  std::abs(p.z) - half.z};
    const Vec3f q_pos{std::max(q.x, 0.0f), std::max(q.y, 0.0f),
                      std::max(q.z, 0.0f)};
    const float outside = q_pos.norm();
    const float inside = std::min(std::max(q.x, std::max(q.y, q.z)), 0.0f);
    return outside + inside - rounding;
}

float
sdCylinderY(const Vec3f &p, float radius, float half_height)
{
    const float dxz = std::sqrt(p.x * p.x + p.z * p.z) - radius;
    const float dy = std::abs(p.y) - half_height;
    const float ox = std::max(dxz, 0.0f);
    const float oy = std::max(dy, 0.0f);
    const float outside = std::sqrt(ox * ox + oy * oy);
    const float inside = std::min(std::max(dxz, dy), 0.0f);
    return outside + inside;
}

YawRotation
yawRotation(float yaw)
{
    return {std::cos(-yaw), std::sin(-yaw)};
}

/** Signed distance from @p p (world) to @p prim with cache @p c. */
float
distanceTo(const Primitive &prim, const PrimitiveCache &c, const Vec3f &p)
{
    switch (prim.kind) {
      case PrimitiveKind::Sphere: {
        return (p - prim.center).norm() - prim.params.x;
      }
      case PrimitiveKind::Box: {
        return sdBox(toLocal(prim, c.rotation, p), prim.params,
                     prim.rounding);
      }
      case PrimitiveKind::InvertedBox: {
        return -sdBox(toLocal(prim, c.rotation, p), prim.params,
                      prim.rounding);
      }
      case PrimitiveKind::Cylinder: {
        const Vec3f local = toLocal(prim, c.rotation, p);
        return sdCylinderY(local, prim.params.x, prim.params.y);
      }
      case PrimitiveKind::Plane: {
        return p.dot(c.planeNormal) - prim.rounding;
      }
    }
    return prim.center.norm(); // unreachable
}

PrimitiveCache
makeCache(const Primitive &prim)
{
    PrimitiveCache c;
    c.rotation = yawRotation(prim.yaw);
    float radius = 0.0f;
    switch (prim.kind) {
      case PrimitiveKind::Sphere:
        radius = prim.params.x;
        break;
      case PrimitiveKind::Box:
        radius = prim.params.norm() + prim.rounding;
        break;
      case PrimitiveKind::Cylinder:
        radius = std::hypot(prim.params.x, prim.params.y);
        break;
      case PrimitiveKind::Plane:
        c.planeNormal = prim.params.normalized();
        return c;
      case PrimitiveKind::InvertedBox:
        return c;
    }
    c.reach =
        radius + kCullSlack * (radius + prim.center.norm() + 1.0f);
    return c;
}

/**
 * @return true when the primitive cached as @p c, centered at
 * @p center, cannot be nearer to @p p than @p best (kCullSlack).
 */
bool
culled(const PrimitiveCache &c, const Vec3f &center, const Vec3f &p,
       float best)
{
    if (c.reach < 0.0f)
        return false;
    const float bound = best + kCullSlack * std::abs(best) + c.reach;
    return bound >= 0.0f && (p - center).squaredNorm() >= bound * bound;
}

} // namespace

float
primitiveDistance(const Primitive &prim, const Vec3f &p)
{
    return distanceTo(prim, makeCache(prim), p);
}

int
Scene::add(const Primitive &p)
{
    primitives_.push_back(p);
    caches_.push_back(makeCache(p));
    return static_cast<int>(primitives_.size()) - 1;
}

SdfSample
Scene::evaluate(const Vec3f &p) const
{
    SdfSample best;
    best.distance = farClip_;
    for (size_t i = 0; i < primitives_.size(); ++i) {
        const Primitive &prim = primitives_[i];
        if (culled(caches_[i], prim.center, p, best.distance))
            continue;
        const float d = distanceTo(prim, caches_[i], p);
        if (d < best.distance) {
            best.distance = d;
            best.primitive = static_cast<int>(i);
        }
    }
    return best;
}

float
Scene::distance(const Vec3f &p) const
{
    float best = farClip_;
    for (size_t i = 0; i < primitives_.size(); ++i) {
        const Primitive &prim = primitives_[i];
        if (!culled(caches_[i], prim.center, p, best))
            best = std::min(best, distanceTo(prim, caches_[i], p));
    }
    return best;
}

Vec3f
Scene::normal(const Vec3f &p, float eps) const
{
    const float dx = distance({p.x + eps, p.y, p.z}) -
                     distance({p.x - eps, p.y, p.z});
    const float dy = distance({p.x, p.y + eps, p.z}) -
                     distance({p.x, p.y - eps, p.z});
    const float dz = distance({p.x, p.y, p.z + eps}) -
                     distance({p.x, p.y, p.z - eps});
    return Vec3f{dx, dy, dz}.normalized();
}

} // namespace slambench::dataset
