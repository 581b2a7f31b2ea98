#ifndef SLAMBENCH_KFUSION_MESH_HPP
#define SLAMBENCH_KFUSION_MESH_HPP

/**
 * @file
 * Triangle meshes and marching-cubes surface extraction from the
 * TSDF volume.
 *
 * ICL-NUIM evaluates not only trajectories but the reconstructed
 * surface itself; extracting an explicit mesh from the fused volume
 * enables the same kind of map-quality measurement here (see
 * metrics/reconstruction.hpp), and gives users the standard
 * KinectFusion export artifact (.obj).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "kfusion/sparse_volume.hpp"
#include "kfusion/volume.hpp"
#include "math/vec.hpp"

namespace slambench::kfusion {

/** Indexed triangle mesh in world coordinates. */
struct TriangleMesh
{
    std::vector<math::Vec3f> vertices;
    /** Triples of indices into vertices. */
    std::vector<uint32_t> indices;

    /** @return number of triangles. */
    size_t triangleCount() const { return indices.size() / 3; }

    /**
     * Write as Wavefront OBJ.
     *
     * @param path Destination file.
     * @return true on success.
     */
    bool saveObj(const std::string &path) const;

    /** Axis-aligned bounds of the vertices (zeroes when empty). */
    void bounds(math::Vec3f &lo, math::Vec3f &hi) const;
};

/**
 * Extract the zero isosurface of the volume with marching cubes.
 *
 * Cells touching unobserved voxels are skipped (no surface is
 * hallucinated into unknown space). Vertices are placed by linear
 * interpolation along cell edges.
 *
 * @param volume Fused TSDF volume.
 * @return the extracted mesh (empty when nothing was observed).
 */
TriangleMesh extractMesh(const TsdfVolume &volume);

/**
 * Sparse-volume extraction: only cells whose minimum corner lies in
 * an allocated block are visited (a cell with its minimum corner in
 * unallocated space has an unobserved corner, so the dense extractor
 * skips it too); corner reads crossing into neighbor blocks resolve
 * through the hash. Emits the same triangle set as the dense
 * extractor of the same scene — vertex order differs (block-major
 * visit order), so comparisons must canonicalize.
 */
TriangleMesh extractMesh(const SparseTsdfVolume &volume);

/** Extraction from whichever volume @p map holds. */
TriangleMesh extractMesh(const TsdfMap &map);

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_MESH_HPP
