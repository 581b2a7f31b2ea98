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

/** Result of evaluating the scene SDF at one point. */
struct SdfSample
{
    float distance = 0.0f; ///< Signed distance to the nearest surface.
    int primitive = -1;    ///< Index of the nearest primitive.
};

/**
 * A static scene: primitives plus an overall bounding radius used to
 * terminate rays. Each primitive's yaw rotation is computed once, when
 * it is added, instead of at every SDF sample.
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
    /** yawRotation() of each primitive, parallel to primitives_. */
    std::vector<YawRotation> rotations_;
    float farClip_ = 20.0f;
};

/**
 * Signed distance from @p p (world) to one primitive.
 */
float primitiveDistance(const Primitive &prim, const Vec3f &p);

} // namespace slambench::dataset

#endif // SLAMBENCH_DATASET_SDF_HPP
