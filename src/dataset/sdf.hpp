#ifndef SLAMBENCH_DATASET_SDF_HPP
#define SLAMBENCH_DATASET_SDF_HPP

/**
 * @file
 * Signed-distance-field scene description.
 *
 * The synthetic dataset substitutes for ICL-NUIM: a scene is a flat
 * list of SDF primitives combined by min-union (the room shell is an
 * inverted box, so the camera sits inside it). Sphere tracing against
 * this field produces exact depth images, which is the same role the
 * POVRay-rendered ICL-NUIM sequences play for the real SLAMBench.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "support/image.hpp"

namespace slambench::dataset {

using math::Vec3f;

/** Geometric kind of one SDF primitive. */
enum class PrimitiveKind {
    Sphere,      ///< params: radius.
    Box,         ///< params: half extents (hx, hy, hz), rounding r.
    InvertedBox, ///< Box with the sign flipped: a room interior shell.
    Cylinder,    ///< Y-axis capped cylinder: radius, half height.
    Plane,       ///< Half-space: unit normal n, offset d (n.p - d).
};

/**
 * One SDF primitive with a rigid placement and a diffuse material.
 */
struct Primitive
{
    PrimitiveKind kind = PrimitiveKind::Sphere;
    /** Primitive-local frame: world = center + R * local. */
    Vec3f center{};
    /** Rotation about Y only (furniture never tilts); radians. */
    float yaw = 0.0f;
    /** Kind-specific shape parameters (see PrimitiveKind). */
    Vec3f params{};
    /** Corner rounding radius (Box) or unused. */
    float rounding = 0.0f;
    /** Diffuse albedo for the RGB render. */
    support::Rgb8 albedo{200, 200, 200};
    /** Debug name shown in scene dumps. */
    std::string name;
};

/**
 * cos/sin of -yaw: the rotation that takes a world offset into a
 * primitive's local frame (Scene caches one per primitive).
 */
struct YawRotation
{
    float cos = 1.0f; ///< cos(-yaw).
    float sin = 0.0f; ///< sin(-yaw).
};

/**
 * Relative float slack of the culling bound. Scene::evaluate and
 * Scene::distance skip primitive i at point p when
 *
 *     bound = best + kCullSlack * |best| + reach_i >= 0  and
 *     |p - center_i|^2 >= bound^2
 *
 * where best is the running minimum. The exact SDF of a solid inside a
 * ball of radius R about its center is at least |p - center| - R, so
 * the skipped distance cannot pass `d < best`. Every rounding error of
 * distanceTo() and of the test itself is a few float ulps (2^-24) of
 * |center| + |best| + R; the slack is about 1700 of them.
 */
inline constexpr float kCullSlack = 1e-4f;

/**
 * What a Scene caches about each primitive when it is added, so the
 * SDF loop neither recomputes it nor evaluates primitives that cannot
 * be nearest.
 */
struct PrimitiveCache
{
    /** yawRotation(yaw). */
    YawRotation rotation;
    /** A Plane's unit normal, params.normalized(); zero otherwise. */
    Vec3f planeNormal{};
    /**
     * Bounding radius about center with the float slack added:
     * R + kCullSlack * (R + |center| + 1), where R is |half| + rounding
     * (Box), hypot(radius, half height) (Cylinder) or the radius
     * (Sphere). Negative means never culled: the unbounded kinds
     * (InvertedBox, Plane) and any solid whose reach comes out below 0.
     */
    float reach = -1.0f;
};

/** Result of evaluating the scene SDF at one point. */
struct SdfSample
{
    float distance = 0.0f; ///< Signed distance to the nearest surface.
    int primitive = -1;    ///< Index of the nearest primitive.
};

/**
 * A static scene: primitives plus an overall bounding radius used to
 * terminate rays. Each primitive's yaw rotation and bounding sphere
 * are computed once, when it is added (PrimitiveCache).
 *
 * evaluate() and distance() skip every primitive whose bounding
 * sphere rules it out (kCullSlack). A skipped primitive's
 * distance could not have passed the strict `d < best` update, which
 * still runs in index order, so the minimum, its index and the
 * first-index tie-break equal those of the full min-union bit for bit.
 */
class Scene
{
  public:
    /** Append a primitive. @return its index. */
    int add(const Primitive &p);

    /** @return all primitives, in insertion order. */
    const std::vector<Primitive> &primitives() const { return primitives_; }

    /** @return number of primitives. */
    size_t size() const { return primitives_.size(); }

    /** @return the cache of each primitive, parallel to primitives(). */
    const std::vector<PrimitiveCache> &caches() const { return caches_; }

    /**
     * Evaluate the scene SDF (min-union over primitives).
     *
     * @param p World-space query point.
     * @return signed distance and the index of the nearest primitive.
     */
    SdfSample evaluate(const Vec3f &p) const;

    /** Signed distance only (slightly cheaper than evaluate()). */
    float distance(const Vec3f &p) const;

    /**
     * Outward surface normal at @p p via central differences.
     *
     * @param p Point on or near the surface.
     * @param eps Finite-difference step in meters.
     */
    Vec3f normal(const Vec3f &p, float eps = 1e-3f) const;

    /** Maximum ray length to march before declaring a miss, meters. */
    float farClip() const { return farClip_; }
    /** Set the maximum ray length, meters. */
    void setFarClip(float far_clip) { farClip_ = far_clip; }

  private:
    std::vector<Primitive> primitives_;
    /** Parallel to primitives_. */
    std::vector<PrimitiveCache> caches_;
    float farClip_ = 20.0f;
};

/**
 * Signed distance from @p p (world) to one primitive.
 */
float primitiveDistance(const Primitive &prim, const Vec3f &p);

} // namespace slambench::dataset

#endif // SLAMBENCH_DATASET_SDF_HPP
