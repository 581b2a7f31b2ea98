/**
 * @file
 * Unit tests for the hashed-voxel-block TSDF volume: spatial-hash
 * collision handling, pool recycling across reset() epochs,
 * interpolation stencils that straddle block boundaries, memory
 * accounting, and mesh-extraction equivalence with the dense
 * reference.
 *
 * The bit-exactness contract against the dense volume is covered by
 * tests/kfusion_parity_test.cpp (SparseParity/SparseFusedVolume);
 * this file exercises the sparse data structure itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "kfusion/backend.hpp"
#include "kfusion/mesh.hpp"
#include "kfusion/sparse_volume.hpp"
#include "kfusion/volume.hpp"
#include "math/se3.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace slambench::kfusion;
using slambench::math::CameraIntrinsics;
using slambench::math::Mat4f;
using slambench::math::Vec3f;
using slambench::math::Vec3i;
using slambench::support::Image;
using slambench::support::Rng;
using slambench::support::ThreadPool;

/** Random metric depth with a sprinkling of invalid (0) pixels. */
Image<float>
makeDepth(const CameraIntrinsics &k, uint64_t seed)
{
    Image<float> depth(k.width, k.height);
    Rng rng(seed);
    for (size_t i = 0; i < depth.size(); ++i) {
        depth[i] = rng.uniform(0.0, 1.0) < 0.08
                       ? 0.0f
                       : static_cast<float>(rng.uniform(0.5, 2.5));
    }
    return depth;
}

/** Write one voxel through the block layer, allocating on demand. */
void
setVoxel(SparseTsdfVolume &volume, int x, int y, int z, float tsdf,
         float weight)
{
    const int bs = volume.blockSize();
    const int mask = bs - 1;
    Voxel *block =
        volume.allocateBlock(x / bs, y / bs, z / bs);
    ASSERT_NE(block, nullptr);
    block[(static_cast<size_t>(x & mask) * bs +
           static_cast<size_t>(y & mask)) *
              bs +
          static_cast<size_t>(z & mask)] = Voxel{tsdf, weight};
}

// --- spatial hash ---

TEST(SparseVolume, SpatialHashCollisionsResolveByProbing)
{
    // Find a set of distinct block coordinates whose hashes land on
    // the same table slot, then allocate all of them: linear probing
    // must keep every block addressable, with no overwrites.
    SparseTsdfVolume volume(64, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    const size_t mask = volume.tableSize() - 1;
    const int be = volume.blocksPerEdge();

    // Brute-force the densest table slot over every in-grid block
    // coordinate; with 512 coordinates hashed into the table, some
    // slot collides.
    std::vector<std::vector<Vec3i>> slots(volume.tableSize());
    for (int bx = 0; bx < be; ++bx)
        for (int by = 0; by < be; ++by)
            for (int bz = 0; bz < be; ++bz)
                slots[SparseTsdfVolume::spatialHash(bx, by, bz) &
                      mask]
                    .push_back({bx, by, bz});
    std::vector<Vec3i> colliding;
    for (const auto &slot : slots)
        if (slot.size() > colliding.size())
            colliding = slot;
    ASSERT_GE(colliding.size(), 2u) << "hash never collides on this "
                                       "grid; pick a bigger grid";
    if (colliding.size() > 4)
        colliding.resize(4);

    std::vector<Voxel *> blocks;
    for (const Vec3i &b : colliding) {
        Voxel *data = volume.allocateBlock(b.x, b.y, b.z);
        ASSERT_NE(data, nullptr);
        // Tag the block so lookups can be told apart.
        data[0].tsdf = static_cast<float>(blocks.size());
        blocks.push_back(data);
    }
    EXPECT_EQ(volume.allocatedBlocks(), colliding.size());
    for (size_t i = 0; i < colliding.size(); ++i) {
        const Vec3i &b = colliding[i];
        const Voxel *found = volume.findBlock(b.x, b.y, b.z);
        ASSERT_EQ(found, blocks[i]);
        EXPECT_EQ(found[0].tsdf, static_cast<float>(i));
        // Re-allocation of an existing block returns it unchanged.
        EXPECT_EQ(volume.allocateBlock(b.x, b.y, b.z), blocks[i]);
    }
    EXPECT_EQ(volume.allocatedBlocks(), colliding.size());
}

TEST(SparseVolume, FindMissesReturnNullWithoutAllocating)
{
    SparseTsdfVolume volume(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    EXPECT_EQ(volume.findBlock(0, 0, 0), nullptr);
    EXPECT_EQ(volume.findBlock(3, 3, 3), nullptr);
    EXPECT_EQ(volume.allocatedBlocks(), 0u);
    const Voxel v = volume.voxelAt(5, 5, 5);
    EXPECT_EQ(v.tsdf, 1.0f);
    EXPECT_EQ(v.weight, 0.0f);
}

TEST(SparseVolume, EveryBlockOfTheGridAllocates)
{
    // The pool has no cap and the hash table is sized from the grid,
    // so a fully observed volume holds every block: each allocation
    // succeeds, lands in its own storage and stays findable, and
    // reset() hands the whole grid out again. 40 voxels per edge
    // leaves a partial block at the far faces.
    SparseTsdfVolume volume(40, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    const int be = volume.blocksPerEdge();
    ASSERT_EQ(be, 5);
    const size_t grid_blocks = static_cast<size_t>(be) * be * be;

    for (int epoch = 0; epoch < 2; ++epoch) {
        SCOPED_TRACE(epoch == 0 ? "first epoch" : "after reset");
        std::vector<Voxel *> blocks;
        for (int bx = 0; bx < be; ++bx)
            for (int by = 0; by < be; ++by)
                for (int bz = 0; bz < be; ++bz) {
                    Voxel *data = volume.allocateBlock(bx, by, bz);
                    ASSERT_NE(data, nullptr);
                    ASSERT_EQ(data[0].tsdf, 1.0f);
                    data[0].tsdf = static_cast<float>(blocks.size());
                    blocks.push_back(data);
                }
        EXPECT_EQ(volume.allocatedBlocks(), grid_blocks);
        EXPECT_EQ(volume.memoryStats().allocatedBlocks, grid_blocks);

        size_t i = 0;
        for (int bx = 0; bx < be; ++bx)
            for (int by = 0; by < be; ++by)
                for (int bz = 0; bz < be; ++bz, ++i) {
                    ASSERT_EQ(volume.findBlock(bx, by, bz), blocks[i]);
                    ASSERT_EQ(blocks[i][0].tsdf,
                              static_cast<float>(i));
                }
        volume.reset();
    }
}

// --- reset / pool recycling ---

TEST(SparseVolume, ResetRecyclesPoolAndRedefaultsVoxels)
{
    SparseTsdfVolume volume(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    setVoxel(volume, 9, 10, 11, -0.25f, 3.0f);
    ASSERT_EQ(volume.allocatedBlocks(), 1u);
    const uint64_t bytes_before = volume.memoryStats().bytes;

    volume.reset();
    EXPECT_EQ(volume.allocatedBlocks(), 0u);
    EXPECT_EQ(volume.findBlock(1, 1, 1), nullptr);
    EXPECT_EQ(volume.voxelAt(9, 10, 11).tsdf, 1.0f);

    // The same pool slot is re-issued after reset; its voxels must
    // read as fresh defaults, not the previous epoch's contents.
    Voxel *block = volume.allocateBlock(1, 1, 1);
    ASSERT_NE(block, nullptr);
    for (size_t i = 0; i < volume.blockVoxels(); ++i) {
        ASSERT_EQ(block[i].tsdf, 1.0f) << "voxel " << i;
        ASSERT_EQ(block[i].weight, 0.0f);
    }
    // Chunks are recycled, not freed: residency does not grow.
    EXPECT_EQ(volume.memoryStats().bytes, bytes_before);
}

TEST(SparseVolume, ResetInvalidatesLookupCaches)
{
    SparseTsdfVolume volume(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    // Build an observed stencil so a cached interp resolves a block.
    for (int dx = 0; dx < 2; ++dx)
        for (int dy = 0; dy < 2; ++dy)
            for (int dz = 0; dz < 2; ++dz)
                setVoxel(volume, 10 + dx, 10 + dy, 10 + dz, -0.5f,
                         1.0f);
    const Vec3f p = volume.voxelCenter(10, 10, 10) +
                    Vec3f{0.5f, 0.5f, 0.5f} * volume.voxelSize();

    SparseTsdfVolume::LookupCache cache;
    bool valid = false;
    EXPECT_EQ(volume.interpCached(p, valid, cache), -0.5f);
    EXPECT_TRUE(valid);

    // After reset the cached block pointer is stale; the generation
    // check must force a re-lookup that now misses.
    volume.reset();
    valid = true;
    EXPECT_EQ(volume.interpCached(p, valid, cache), 1.0f);
    EXPECT_FALSE(valid);
}

TEST(SparseVolume, LookupCacheSharedAcrossVolumesReadsEachVolume)
{
    // Two volumes at the same generation, fused from different depth
    // maps: a cache filled on one must not hand its block pointers to
    // the other.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    SparseTsdfVolume a(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    SparseTsdfVolume b(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    WorkCounts counts;
    a.integrate(makeDepth(k, 61), k, Mat4f{}, 0.1f, 100.0f, counts,
                nullptr, scalarKernelBackend());
    b.integrate(makeDepth(k, 62), k, Mat4f{}, 0.1f, 100.0f, counts,
                nullptr, scalarKernelBackend());
    EXPECT_NE(a.id(), b.id());

    SparseTsdfVolume::LookupCache cache;
    Rng rng(63);
    int differing = 0;
    for (int i = 0; i < 5000; ++i) {
        const Vec3f p{static_cast<float>(rng.uniform(-1.0, 1.0)),
                      static_cast<float>(rng.uniform(-1.0, 1.0)),
                      static_cast<float>(rng.uniform(0.0, 2.0))};
        bool valid_a = false, valid_b = false, cached_valid = false;
        const float va = a.interpCached(p, cached_valid, cache);
        ASSERT_EQ(va, a.interp(p, valid_a));
        ASSERT_EQ(cached_valid, valid_a);
        const float vb = b.interpCached(p, cached_valid, cache);
        ASSERT_EQ(vb, b.interp(p, valid_b))
            << "at " << p.x << ", " << p.y << ", " << p.z;
        ASSERT_EQ(cached_valid, valid_b);
        differing += va != vb;
    }
    EXPECT_GT(differing, 100);
}

TEST(SparseVolume, AllocateBlockClearsFreeBricksOverTheBlock)
{
    // Direct writes through allocateBlock() storage must not leave a
    // brick flagged free over them: the block's bricks, and the
    // bricks whose +x/+y/+z apron it holds, are cleared; the rest of
    // the grid stays free.
    const int bs = SparseTsdfVolume::blockSize();
    SparseTsdfVolume volume(64, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    const FreeBrickGrid &grid = volume.freeBricks();
    const int nb = grid.bricksPerEdge();
    ASSERT_NE(volume.allocateBlock(1, 1, 1), nullptr);
    const int lo = bs / kBrickEdge - 1;
    const int hi = (2 * bs - 1) / kBrickEdge;
    const auto inside = [&](int b) { return b >= lo && b <= hi; };
    for (int bx = 0; bx < nb; ++bx)
        for (int by = 0; by < nb; ++by)
            for (int bz = 0; bz < nb; ++bz)
                ASSERT_EQ(grid.brickFree(bx, by, bz),
                          !(inside(bx) && inside(by) && inside(bz)))
                    << bx << ", " << by << ", " << bz;
}

// --- block-boundary interpolation stencils ---

class BoundaryStencil : public ::testing::Test
{
  protected:
    BoundaryStencil()
        : dense_(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f}),
          sparse_(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f})
    {
    }

    /** Mirror one voxel into both volumes. */
    void set(int x, int y, int z, float tsdf, float weight)
    {
        dense_.at(x, y, z) = Voxel{tsdf, weight};
        setVoxel(sparse_, x, y, z, tsdf, weight);
    }

    void expectSameSample(const Vec3f &p)
    {
        bool dv = false, sv = false;
        const float d = dense_.interp(p, dv);
        const float s = sparse_.interp(p, sv);
        ASSERT_EQ(s, d) << "at " << p.x << ", " << p.y << ", "
                        << p.z;
        ASSERT_EQ(sv, dv);
        const Vec3f dg = dense_.grad(p);
        const Vec3f sg = sparse_.grad(p);
        ASSERT_EQ(sg.x, dg.x);
        ASSERT_EQ(sg.y, dg.y);
        ASSERT_EQ(sg.z, dg.z);
    }

    TsdfVolume dense_;
    SparseTsdfVolume sparse_;
};

TEST_F(BoundaryStencil, StencilSpanningBlockFacesMatchesDense)
{
    // Voxels (7, 7, 7) and (8, 8, 8) sit in diagonally adjacent 8^3
    // blocks; a stencil anchored at (7, 7, 7) spans all 8 blocks of
    // the 2x2x2 block neighborhood.
    for (int dx = 0; dx < 2; ++dx)
        for (int dy = 0; dy < 2; ++dy)
            for (int dz = 0; dz < 2; ++dz)
                set(7 + dx, 7 + dy, 7 + dz,
                    -0.125f * static_cast<float>(dx + dy + dz + 1),
                    1.0f + static_cast<float>(dx));
    EXPECT_EQ(sparse_.allocatedBlocks(), 8u);

    SparseTsdfVolume::LookupCache cache;
    Rng rng(3);
    const Vec3f base = dense_.voxelCenter(7, 7, 7);
    for (int i = 0; i < 500; ++i) {
        const Vec3f p =
            base + Vec3f{static_cast<float>(rng.uniform(0.0, 1.0)),
                         static_cast<float>(rng.uniform(0.0, 1.0)),
                         static_cast<float>(rng.uniform(0.0, 1.0))} *
                       dense_.voxelSize();
        expectSameSample(p);
        bool cv = false;
        bool dv = false;
        ASSERT_EQ(sparse_.interpCached(p, cv, cache),
                  dense_.interp(p, dv));
        ASSERT_EQ(cv, dv);
    }
}

TEST_F(BoundaryStencil, PartiallyAllocatedStencilMatchesDense)
{
    // Only one corner of the stencil's block neighborhood is
    // resident: the seven unallocated blocks must contribute the
    // default (+1, unobserved) voxel, exactly like dense voxels the
    // integration never touched.
    set(7, 7, 7, -0.5f, 2.0f);
    EXPECT_EQ(sparse_.allocatedBlocks(), 1u);
    const Vec3f base = dense_.voxelCenter(7, 7, 7);
    Rng rng(4);
    for (int i = 0; i < 200; ++i) {
        const Vec3f p =
            base + Vec3f{static_cast<float>(rng.uniform(0.0, 1.0)),
                         static_cast<float>(rng.uniform(0.0, 1.0)),
                         static_cast<float>(rng.uniform(0.0, 1.0))} *
                       dense_.voxelSize();
        expectSameSample(p);
    }
    // Fully unallocated neighborhoods report invalid, value +1.
    bool valid = true;
    EXPECT_EQ(sparse_.interp(dense_.voxelCenter(24, 24, 24), valid),
              1.0f);
    EXPECT_FALSE(valid);
}

// --- memory accounting ---

TEST(SparseVolume, MemoryStatsTrackResidency)
{
    SparseTsdfVolume volume(256, 4.8f,
                            Vec3f{-2.4f, -0.4f, -2.4f});
    const uint64_t dense_bytes = static_cast<uint64_t>(256) * 256 *
                                 256 * sizeof(Voxel);
    VolumeMemoryStats stats = volume.memoryStats();
    EXPECT_EQ(stats.allocatedBlocks, 0u);
    // Empty volume: only the hash index is resident — a small
    // fraction of the dense footprint.
    EXPECT_LT(stats.bytes, dense_bytes / 20);

    const uint64_t empty_bytes = stats.bytes;
    ASSERT_NE(volume.allocateBlock(3, 4, 5), nullptr);
    stats = volume.memoryStats();
    EXPECT_EQ(stats.allocatedBlocks, 1u);
    EXPECT_GT(stats.bytes, empty_bytes);
}

TEST(SparseVolume, AllocatedBlockCoordsAreSortedAndComplete)
{
    SparseTsdfVolume volume(64, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    const std::array<Vec3i, 4> want = {
        Vec3i{5, 1, 2}, Vec3i{0, 3, 7}, Vec3i{5, 1, 1},
        Vec3i{2, 2, 2}};
    for (const Vec3i &b : want)
        ASSERT_NE(volume.allocateBlock(b.x, b.y, b.z), nullptr);
    const std::vector<Vec3i> got = volume.allocatedBlockCoords();
    ASSERT_EQ(got.size(), want.size());
    // Sorted lexicographically by (x, y, z).
    EXPECT_EQ(got[0].x, 0);
    EXPECT_EQ(got[1], (Vec3i{2, 2, 2}));
    EXPECT_EQ(got[2], (Vec3i{5, 1, 1}));
    EXPECT_EQ(got[3], (Vec3i{5, 1, 2}));
}

// --- mesh extraction ---

/** Canonical triangle soup: per-triangle vertex triples, sorted. */
std::vector<std::array<float, 9>>
canonicalTriangles(const TriangleMesh &mesh)
{
    std::vector<std::array<float, 9>> tris;
    tris.reserve(mesh.triangleCount());
    for (size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
        std::array<std::array<float, 3>, 3> corners;
        for (int c = 0; c < 3; ++c) {
            const auto &v = mesh.vertices[mesh.indices[t + c]];
            corners[c] = {v.x, v.y, v.z};
        }
        // Rotate the smallest corner first so winding is preserved
        // but the starting corner is canonical.
        const auto smallest = std::min_element(corners.begin(),
                                               corners.end());
        std::rotate(corners.begin(), smallest, corners.end());
        tris.push_back({corners[0][0], corners[0][1], corners[0][2],
                        corners[1][0], corners[1][1], corners[1][2],
                        corners[2][0], corners[2][1],
                        corners[2][2]});
    }
    std::sort(tris.begin(), tris.end());
    return tris;
}

TEST(SparseMesh, ExtractionMatchesDenseTriangleForTriangle)
{
    const auto k = CameraIntrinsics::fromFov(48, 48, 1.0f);
    TsdfVolume dense(48, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    SparseTsdfVolume sparse(48, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    WorkCounts counts;
    Image<float> wall(k.width, k.height, 1.0f);
    dense.integrate(wall, k, Mat4f{}, 0.1f, 100.0f, counts, nullptr,
                    scalarKernelBackend());
    sparse.integrate(wall, k, Mat4f{}, 0.1f, 100.0f, counts,
                     nullptr, scalarKernelBackend());
    const Image<float> depth = makeDepth(k, 31);
    dense.integrate(depth, k, Mat4f{}, 0.1f, 100.0f, counts,
                    nullptr, scalarKernelBackend());
    sparse.integrate(depth, k, Mat4f{}, 0.1f, 100.0f, counts,
                     nullptr, scalarKernelBackend());

    const TriangleMesh dense_mesh = extractMesh(dense);
    const TriangleMesh sparse_mesh = extractMesh(sparse);
    ASSERT_GT(dense_mesh.triangleCount(), 0u);
    ASSERT_EQ(sparse_mesh.triangleCount(),
              dense_mesh.triangleCount());

    // The sparse extractor walks blocks instead of the full grid, so
    // vertex ORDER differs; the triangle sets must be bitwise equal
    // after canonicalization.
    const auto dense_tris = canonicalTriangles(dense_mesh);
    const auto sparse_tris = canonicalTriangles(sparse_mesh);
    ASSERT_EQ(sparse_tris.size(), dense_tris.size());
    for (size_t i = 0; i < dense_tris.size(); ++i)
        ASSERT_EQ(sparse_tris[i], dense_tris[i]) << "triangle " << i;
}

TEST(SparseMesh, EmptyVolumeExtractsNothing)
{
    SparseTsdfVolume sparse(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    const TriangleMesh mesh = extractMesh(sparse);
    EXPECT_EQ(mesh.triangleCount(), 0u);
    EXPECT_TRUE(mesh.vertices.empty());
}

// --- concurrent integration determinism ---

TEST(SparseVolume, PooledIntegrationIsDeterministic)
{
    // Same frames, serial vs pooled vs a second pool width: block
    // runs are disjoint so the result must be identical regardless
    // of scheduling.
    const auto k = CameraIntrinsics::fromFov(40, 32, 1.1f);
    const Mat4f pose = slambench::math::lookAt(
        Vec3f{0.5f, 0.3f, -0.5f}, Vec3f{0.0f, 0.0f, 1.0f},
        Vec3f{0.0f, 1.0f, 0.0f});

    auto fuse = [&](ThreadPool *pool) {
        SparseTsdfVolume volume(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
        WorkCounts counts;
        for (uint64_t seed = 61; seed < 64; ++seed) {
            volume.integrate(makeDepth(k, seed), k,
                             seed % 2 ? pose : Mat4f{}, 0.1f, 100.0f,
                             counts, pool, scalarKernelBackend());
        }
        std::vector<Voxel> flat;
        flat.reserve(static_cast<size_t>(32) * 32 * 32);
        for (int x = 0; x < 32; ++x)
            for (int y = 0; y < 32; ++y)
                for (int z = 0; z < 32; ++z)
                    flat.push_back(volume.voxelAt(x, y, z));
        return flat;
    };

    const std::vector<Voxel> serial = fuse(nullptr);
    ThreadPool pool2(2), pool5(5);
    const std::vector<Voxel> pooled2 = fuse(&pool2);
    const std::vector<Voxel> pooled5 = fuse(&pool5);
    ASSERT_EQ(pooled2.size(), serial.size());
    ASSERT_EQ(pooled5.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(pooled2[i].tsdf, serial[i].tsdf) << "voxel " << i;
        ASSERT_EQ(pooled2[i].weight, serial[i].weight);
        ASSERT_EQ(pooled5[i].tsdf, serial[i].tsdf) << "voxel " << i;
        ASSERT_EQ(pooled5[i].weight, serial[i].weight);
    }
}

} // namespace
