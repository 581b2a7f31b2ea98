#include "kfusion/mesh.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace slambench::kfusion {

using math::Vec3f;

bool
TriangleMesh::saveObj(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "# slambench-repro TSDF mesh: " << vertices.size()
        << " vertices, " << triangleCount() << " triangles\n";
    char line[128];
    for (const Vec3f &v : vertices) {
        std::snprintf(line, sizeof(line), "v %.6f %.6f %.6f\n", v.x,
                      v.y, v.z);
        out << line;
    }
    for (size_t i = 0; i + 2 < indices.size(); i += 3) {
        std::snprintf(line, sizeof(line), "f %u %u %u\n",
                      indices[i] + 1, indices[i + 1] + 1,
                      indices[i + 2] + 1);
        out << line;
    }
    return static_cast<bool>(out);
}

void
TriangleMesh::bounds(Vec3f &lo, Vec3f &hi) const
{
    if (vertices.empty()) {
        lo = Vec3f{};
        hi = Vec3f{};
        return;
    }
    lo = hi = vertices.front();
    for (const Vec3f &v : vertices) {
        lo.x = std::min(lo.x, v.x);
        lo.y = std::min(lo.y, v.y);
        lo.z = std::min(lo.z, v.z);
        hi.x = std::max(hi.x, v.x);
        hi.y = std::max(hi.y, v.y);
        hi.z = std::max(hi.z, v.z);
    }
}

namespace {

/**
 * Marching *tetrahedra*: each cell is split into six tetrahedra
 * around the main diagonal, and each tetrahedron emits 0-2
 * triangles. Compared to classic marching cubes this trades a few
 * extra triangles for a table-free, unambiguous implementation
 * (tetrahedra have no ambiguous sign cases).
 *
 * Generic over the volume backend: VolumeT provides resolution(),
 * voxelCenter() and voxelAt() (copy accessor; the sparse volume reads
 * unallocated voxels as unobserved). The driver decides which cells
 * to visit — the dense path sweeps every cell, the sparse path only
 * cells anchored in allocated blocks.
 */
template <typename VolumeT>
struct Extractor
{
    const VolumeT &volume;
    TriangleMesh mesh;
    /** Dedup map: packed global edge key -> vertex index. */
    std::unordered_map<uint64_t, uint32_t> edgeVertices;

    explicit Extractor(const VolumeT &v) : volume(v) {}

    /** Linear id of voxel (x, y, z). */
    uint64_t
    voxelId(int x, int y, int z) const
    {
        const uint64_t n = static_cast<uint64_t>(volume.resolution());
        return (static_cast<uint64_t>(z) * n +
                static_cast<uint64_t>(y)) *
                   n +
               static_cast<uint64_t>(x);
    }

    /**
     * Vertex on the edge between voxel centers @p a and @p b where
     * the TSDF crosses zero, deduplicated across cells.
     */
    uint32_t
    edgeVertex(uint64_t id_a, uint64_t id_b, const Vec3f &pa,
               const Vec3f &pb, float va, float vb)
    {
        const uint64_t lo = std::min(id_a, id_b);
        const uint64_t hi = std::max(id_a, id_b);
        // Volumes are < 2^21 voxels per side, so this packing is
        // collision-free.
        const uint64_t key = (lo << 42) ^ hi;
        const auto it = edgeVertices.find(key);
        if (it != edgeVertices.end())
            return it->second;

        const float denom = va - vb;
        const float t =
            std::abs(denom) > 1e-12f
                ? std::clamp(va / denom, 0.0f, 1.0f)
                : 0.5f;
        const Vec3f p = pa + (pb - pa) * t;
        const uint32_t index =
            static_cast<uint32_t>(mesh.vertices.size());
        mesh.vertices.push_back(p);
        edgeVertices.emplace(key, index);
        return index;
    }

    /** Emit the isosurface of one tetrahedron. */
    void
    tetrahedron(const uint64_t ids[4], const Vec3f pos[4],
                const float val[4])
    {
        // Classify: inside = negative TSDF.
        int inside[4], outside[4];
        int num_inside = 0, num_outside = 0;
        for (int i = 0; i < 4; ++i) {
            if (val[i] < 0.0f)
                inside[num_inside++] = i;
            else
                outside[num_outside++] = i;
        }
        if (num_inside == 0 || num_inside == 4)
            return;

        auto vert = [&](int a, int b) {
            return edgeVertex(ids[a], ids[b], pos[a], pos[b], val[a],
                              val[b]);
        };

        if (num_inside == 1) {
            const int a = inside[0];
            mesh.indices.push_back(vert(a, outside[0]));
            mesh.indices.push_back(vert(a, outside[1]));
            mesh.indices.push_back(vert(a, outside[2]));
        } else if (num_inside == 3) {
            const int a = outside[0];
            mesh.indices.push_back(vert(a, inside[0]));
            mesh.indices.push_back(vert(a, inside[1]));
            mesh.indices.push_back(vert(a, inside[2]));
        } else {
            // Two inside, two outside: a quad split into two
            // triangles.
            const int a = inside[0], b = inside[1];
            const int c = outside[0], d = outside[1];
            const uint32_t v_ac = vert(a, c);
            const uint32_t v_ad = vert(a, d);
            const uint32_t v_bc = vert(b, c);
            const uint32_t v_bd = vert(b, d);
            mesh.indices.push_back(v_ac);
            mesh.indices.push_back(v_ad);
            mesh.indices.push_back(v_bd);
            mesh.indices.push_back(v_ac);
            mesh.indices.push_back(v_bd);
            mesh.indices.push_back(v_bc);
        }
    }

    /** Extract the surface of the cell anchored at voxel (x, y, z). */
    void
    processCell(int x, int y, int z)
    {
        // Cell corners relative to (x, y, z), numbered so the main
        // diagonal is corner 0 -> corner 6.
        static const int corner[8][3] = {
            {0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
            {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};
        // Six tetrahedra sharing the 0-6 diagonal.
        static const int tets[6][4] = {{0, 1, 2, 6}, {0, 2, 3, 6},
                                       {0, 3, 7, 6}, {0, 7, 4, 6},
                                       {0, 4, 5, 6}, {0, 5, 1, 6}};

        float val[8];
        Vec3f pos[8];
        uint64_t ids[8];
        for (int c = 0; c < 8; ++c) {
            const int cx = x + corner[c][0];
            const int cy = y + corner[c][1];
            const int cz = z + corner[c][2];
            const Voxel v = volume.voxelAt(cx, cy, cz);
            if (v.weight <= 0.0f)
                return;
            val[c] = v.tsdf;
            pos[c] = volume.voxelCenter(cx, cy, cz);
            ids[c] = voxelId(cx, cy, cz);
        }
        // Quick reject: all same sign.
        bool any_neg = false, any_pos = false;
        for (float v : val) {
            any_neg |= v < 0.0f;
            any_pos |= v >= 0.0f;
        }
        if (!any_neg || !any_pos)
            return;

        for (const auto &tet : tets) {
            const uint64_t tet_ids[4] = {ids[tet[0]], ids[tet[1]],
                                         ids[tet[2]], ids[tet[3]]};
            const Vec3f tet_pos[4] = {pos[tet[0]], pos[tet[1]],
                                      pos[tet[2]], pos[tet[3]]};
            const float tet_val[4] = {val[tet[0]], val[tet[1]],
                                      val[tet[2]], val[tet[3]]};
            tetrahedron(tet_ids, tet_pos, tet_val);
        }
    }
};

} // namespace

TriangleMesh
extractMesh(const TsdfVolume &volume)
{
    Extractor<TsdfVolume> extractor(volume);
    const int res = volume.resolution();
    for (int z = 0; z + 1 < res; ++z)
        for (int y = 0; y + 1 < res; ++y)
            for (int x = 0; x + 1 < res; ++x)
                extractor.processCell(x, y, z);
    return std::move(extractor.mesh);
}

TriangleMesh
extractMesh(const SparseTsdfVolume &volume)
{
    Extractor<SparseTsdfVolume> extractor(volume);
    const int res = volume.resolution();
    const int bs = volume.blockSize();
    // Each cell is visited exactly once: by the block holding its
    // minimum corner. Cells anchored in unallocated space have an
    // unobserved minimum corner, which the dense extractor skips too.
    // Blocks come sorted by coordinates, so the output is
    // deterministic regardless of the allocation schedule.
    for (const math::Vec3i &b : volume.allocatedBlockCoords()) {
        const int x0 = b.x * bs, y0 = b.y * bs, z0 = b.z * bs;
        const int x1 = std::min(x0 + bs, res - 1);
        const int y1 = std::min(y0 + bs, res - 1);
        const int z1 = std::min(z0 + bs, res - 1);
        for (int z = z0; z < z1; ++z)
            for (int y = y0; y < y1; ++y)
                for (int x = x0; x < x1; ++x)
                    extractor.processCell(x, y, z);
    }
    return std::move(extractor.mesh);
}

TriangleMesh
extractMesh(const TsdfMap &map)
{
    return std::visit(
        [](const auto &volume) { return extractMesh(volume); }, map);
}

} // namespace slambench::kfusion
