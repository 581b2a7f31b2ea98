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

/** Signed distance from @p p (world) to @p prim, rotated by @p rot. */
float
distanceTo(const Primitive &prim, const YawRotation &rot, const Vec3f &p)
{
    switch (prim.kind) {
      case PrimitiveKind::Sphere: {
        return (p - prim.center).norm() - prim.params.x;
      }
      case PrimitiveKind::Box: {
        return sdBox(toLocal(prim, rot, p), prim.params, prim.rounding);
      }
      case PrimitiveKind::InvertedBox: {
        return -sdBox(toLocal(prim, rot, p), prim.params, prim.rounding);
      }
      case PrimitiveKind::Cylinder: {
        const Vec3f local = toLocal(prim, rot, p);
        return sdCylinderY(local, prim.params.x, prim.params.y);
      }
      case PrimitiveKind::Plane: {
        return p.dot(prim.params.normalized()) - prim.rounding;
      }
    }
    return prim.center.norm(); // unreachable
}

} // namespace

float
primitiveDistance(const Primitive &prim, const Vec3f &p)
{
    return distanceTo(prim, yawRotation(prim.yaw), p);
}

int
Scene::add(const Primitive &p)
{
    primitives_.push_back(p);
    rotations_.push_back(yawRotation(p.yaw));
    return static_cast<int>(primitives_.size()) - 1;
}

SdfSample
Scene::evaluate(const Vec3f &p) const
{
    SdfSample best;
    best.distance = farClip_;
    for (size_t i = 0; i < primitives_.size(); ++i) {
        const float d = distanceTo(primitives_[i], rotations_[i], p);
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
    for (size_t i = 0; i < primitives_.size(); ++i)
        best = std::min(best, distanceTo(primitives_[i], rotations_[i], p));
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
