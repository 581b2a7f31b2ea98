/**
 * @file
 * The "simd" kernel backend, Avx2Backend: its member functions are
 * the AVX2 flavors of the seven hot kernels. This is the only
 * translation unit compiled with -mavx2; everything else in the tree
 * stays at the baseline ISA, and the backend table (backend.cpp)
 * installs this backend only after a runtime CPUID check. Built
 * without -mavx2 the file has no backend to export:
 * detail::avx2Backend() returns nullptr.
 *
 * Bit-exactness strategy (the parity contract in
 * docs/ARCHITECTURE.md): every vector lane replays the scalar
 * kernel's operation sequence for exactly one work item, in the same
 * order, with the same rounding — no FMA contraction (the baseline
 * build has none, and no FMA intrinsics are used), no reassociation,
 * and compare/min semantics chosen to match the scalar expressions
 * including their NaN behavior. The ICP reduction is vectorized
 * across its accumulator slots rather than across pixels, so each
 * slot sees the identical sequential sum.
 */

#include "kfusion/backend_simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "kfusion/expf.hpp"
#include "math/aabb.hpp"

namespace slambench::kfusion::detail {

using math::Vec3f;

namespace {

/** The "simd" backend; every hook below is bit-exact versus scalar. */
class Avx2Backend final : public KernelBackend
{
  public:
    const char *name() const override { return "simd"; }

    void integrateColumn(const IntegrateContext &ctx, Voxel *column,
                         int z_begin, int z_end, Vec3f pos,
                         uint64_t *dirty) const override;

    Vec3f grad(const TsdfVolume &volume, const Vec3f &p) const override;

    void castRays(const TsdfVolume &volume, const Vec3f &origin,
                  const Vec3f *dirs, size_t count,
                  const RaycastParams &params,
                  RayHit *hits) const override;

    void castRays(const SparseTsdfVolume &volume, const Vec3f &origin,
                  const Vec3f *dirs, size_t count,
                  const RaycastParams &params,
                  RayHit *hits) const override;

    ReductionResult
    reduceRange(const support::Image<TrackData> &track_data,
                size_t begin, size_t end) const override;

    void bilateralRow(const BilateralContext &ctx,
                      size_t y) const override;

    void trackRow(const TrackContext &ctx, size_t y) const override;

    void vertex2normalRow(const Vertex2NormalContext &ctx,
                          size_t y) const override;
};

/** Per-lane stencil base of up to 8 trilinear samples. */
struct Stencil8
{
    __m256 lx, ly, lz;   ///< Voxel-center-relative coordinates.
    __m256i x0, y0, z0;  ///< Stencil base voxel (floor of l*).
    __m256i inBounds;    ///< The 2x2x2 stencil fits (lane mask).
};

/**
 * The stencil base of up to 8 world points, each lane replaying
 * TsdfVolume's stencilLocal / floor / bounds arithmetic exactly.
 * Shared by the sampler and the free-brick test, so both see the
 * same base voxel.
 */
Stencil8
stencil8(int res, const Vec3f &origin, float inv_vs, __m256 px,
         __m256 py, __m256 pz)
{
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 s = _mm256_set1_ps(inv_vs);

    // local = (p - origin) * (1 / vs) - 0.5, per component.
    const __m256 lx = _mm256_sub_ps(
        _mm256_mul_ps(_mm256_sub_ps(px, _mm256_set1_ps(origin.x)), s),
        half);
    const __m256 ly = _mm256_sub_ps(
        _mm256_mul_ps(_mm256_sub_ps(py, _mm256_set1_ps(origin.y)), s),
        half);
    const __m256 lz = _mm256_sub_ps(
        _mm256_mul_ps(_mm256_sub_ps(pz, _mm256_set1_ps(origin.z)), s),
        half);

    // x0 = (int)floor(local.x); out-of-range converts saturate to
    // INT_MIN and fail the bounds check below, like the scalar path.
    const __m256 fx0 = _mm256_floor_ps(lx);
    const __m256 fy0 = _mm256_floor_ps(ly);
    const __m256 fz0 = _mm256_floor_ps(lz);
    const __m256i x0 = _mm256_cvttps_epi32(fx0);
    const __m256i y0 = _mm256_cvttps_epi32(fy0);
    const __m256i z0 = _mm256_cvttps_epi32(fz0);

    // Valid iff 0 <= c0 and c0 + 1 < res on every axis.
    const __m256i minus1 = _mm256_set1_epi32(-1);
    const __m256i resm1 = _mm256_set1_epi32(res - 1);
    __m256i inb = _mm256_and_si256(
        _mm256_and_si256(_mm256_cmpgt_epi32(x0, minus1),
                         _mm256_cmpgt_epi32(y0, minus1)),
        _mm256_cmpgt_epi32(z0, minus1));
    inb = _mm256_and_si256(
        inb, _mm256_and_si256(
                 _mm256_and_si256(_mm256_cmpgt_epi32(resm1, x0),
                                  _mm256_cmpgt_epi32(resm1, y0)),
                 _mm256_cmpgt_epi32(resm1, z0)));
    return {lx, ly, lz, x0, y0, z0, inb};
}

/**
 * The trilinear blend of up to 8 samples (one per lane), each lane
 * replaying TsdfVolume::sampleTrilinear's weights, corner order and
 * sum exactly. Every sampler shares it; they differ only in how the
 * corners are loaded.
 *
 * @param stencil The samples' stencil8().
 * @param mask Lanes that load their corners (in bounds and active).
 * @param corner (c, tsdf&, weight&): corner c of every lane in
 *               @p mask, in the order 000, 100, 010, 110, 001, 101,
 *               011, 111; other lanes read 0.
 * @param[out] valid_out Per-lane validity (mask && any observed).
 * @return per-lane interpolated TSDF (1.0f when invalid).
 */
template <typename CornerFn>
__m256
trilinear8(const Stencil8 &stencil, __m256 mask, const CornerFn &corner,
           __m256 &valid_out)
{
    const auto &[lx, ly, lz, x0, y0, z0, inb] = stencil;

    // Fractional offsets and the eight corner weights, exactly the
    // scalar expressions (int -> float conversion is exact here).
    const __m256 fx = _mm256_sub_ps(lx, _mm256_cvtepi32_ps(x0));
    const __m256 fy = _mm256_sub_ps(ly, _mm256_cvtepi32_ps(y0));
    const __m256 fz = _mm256_sub_ps(lz, _mm256_cvtepi32_ps(z0));
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 wx0 = _mm256_sub_ps(one, fx), wx1 = fx;
    const __m256 wy0 = _mm256_sub_ps(one, fy), wy1 = fy;
    const __m256 wz0 = _mm256_sub_ps(one, fz), wz1 = fz;
    const __m256 wxc[8] = {wx0, wx1, wx0, wx1, wx0, wx1, wx0, wx1};
    const __m256 wyc[8] = {wy0, wy0, wy1, wy1, wy0, wy0, wy1, wy1};
    const __m256 wzc[8] = {wz0, wz0, wz0, wz0, wz1, wz1, wz1, wz1};

    const __m256 zero = _mm256_setzero_ps();
    __m256 value = zero;
    __m256 observed = zero; // accumulated as a sign-bit mask
    for (int c = 0; c < 8; ++c) {
        __m256 tsdf, weight;
        corner(c, tsdf, weight);
        observed = _mm256_or_ps(
            observed, _mm256_cmp_ps(weight, zero, _CMP_GT_OQ));
        // value += tsdf * wx * wy * wz with the scalar's left-to-
        // right products; starting from +0.0 preserves signed-zero
        // behavior of the scalar `value = 0.0f; value += ...`.
        value = _mm256_add_ps(
            value,
            _mm256_mul_ps(
                _mm256_mul_ps(_mm256_mul_ps(tsdf, wxc[c]), wyc[c]),
                wzc[c]));
    }

    valid_out = _mm256_and_ps(mask, observed);
    return _mm256_blendv_ps(one, value, valid_out);
}

/**
 * The dense volume's sampler: trilinear TSDF samples of up to 8
 * world points, each lane replaying TsdfVolume::sampleTrilinear
 * exactly, with the corners gathered from the z-major voxel array.
 */
struct DenseSampler8
{
    const float *voxels; ///< Interleaved {tsdf, weight} pairs.
    int res;             ///< Voxels per edge.

    /**
     * @param stencil The samples' stencil8().
     * @param active Lanes to sample (sign-bit mask); inactive lanes
     *               perform no memory access and return 1.0f/invalid.
     * @param[out] valid_out Per-lane validity (bounds && any
     *                       observed).
     * @return per-lane interpolated TSDF (1.0f when invalid).
     */
    __m256
    operator()(const Stencil8 &stencil, __m256 active,
               __m256 &valid_out) const
    {
        const __m256 gather_mask = _mm256_and_ps(
            _mm256_castsi256_ps(stencil.inBounds), active);

        // base = (x0 * res + y0) * res + z0, in voxels; the float pair
        // index is 2 * voxel index (max 2 * res^3 < 2^31 for
        // res <= 1024).
        const __m256i resv = _mm256_set1_epi32(res);
        const __m256i base = _mm256_add_epi32(
            _mm256_mullo_epi32(
                _mm256_add_epi32(_mm256_mullo_epi32(stencil.x0, resv),
                                 stencil.y0),
                resv),
            stencil.z0);

        const int sy = res;
        const int sx = res * res;
        const int corner_off[8] = {0,      sx,     sy,     sx + sy,
                                   1,      sx + 1, sy + 1, sx + sy + 1};
        const __m256 zero = _mm256_setzero_ps();
        return trilinear8(
            stencil, gather_mask,
            [&](int c, __m256 &tsdf, __m256 &weight) {
                const __m256i vidx = _mm256_slli_epi32(
                    _mm256_add_epi32(base,
                                     _mm256_set1_epi32(corner_off[c])),
                    1);
                tsdf = _mm256_mask_i32gather_ps(zero, voxels, vidx,
                                                gather_mask, 4);
                weight = _mm256_mask_i32gather_ps(zero, voxels + 1,
                                                  vidx, gather_mask, 4);
            },
            valid_out);
    }
};

/**
 * The sparse volume's packet sampler (see castRaysPacket). Each lane
 * resolves its stencil through its own block cache
 * (SparseTsdfVolume::stencilVoxels: each block the stencil spans,
 * once) and stages the eight corners; the blend is the dense
 * sampler's vector code, so a lane's result is bit-identical to the
 * dense volume's. Lane l's cache follows ray l for the whole packet
 * march.
 */
class SparseSampler8
{
  public:
    explicit SparseSampler8(const SparseTsdfVolume &volume)
        : volume_(volume)
    {
    }

    __m256
    operator()(const Stencil8 &stencil, __m256 active,
               __m256 &valid_out)
    {
        const __m256 mask =
            _mm256_and_ps(_mm256_castsi256_ps(stencil.inBounds), active);
        alignas(32) int x0[8], y0[8], z0[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(x0), stencil.x0);
        _mm256_store_si256(reinterpret_cast<__m256i *>(y0), stencil.y0);
        _mm256_store_si256(reinterpret_cast<__m256i *>(z0), stencil.z0);
        // [corner][lane]; lanes outside the mask read 0, as the dense
        // sampler's masked gathers do.
        alignas(32) float tsdf[8][8] = {};
        alignas(32) float weight[8][8] = {};
        for (int bits = _mm256_movemask_ps(mask); bits != 0;
             bits &= bits - 1) {
            const int l = __builtin_ctz(bits);
            const Voxel *corners[8];
            volume_.stencilVoxels(x0[l], y0[l], z0[l], caches_[l],
                                  corners);
            for (int c = 0; c < 8; ++c) {
                tsdf[c][l] = corners[c]->tsdf;
                weight[c][l] = corners[c]->weight;
            }
        }
        return trilinear8(
            stencil, mask,
            [&](int c, __m256 &t, __m256 &w) {
                t = _mm256_load_ps(tsdf[c]);
                w = _mm256_load_ps(weight[c]);
            },
            valid_out);
    }

  private:
    const SparseTsdfVolume &volume_;
    SparseTsdfVolume::LookupCache caches_[kRayPacketWidth];
};

/**
 * Per-lane FreeBrickGrid::sampleIsFree: the lane's stencil is out of
 * bounds, or based in a flagged brick. One 32-bit gather reads each
 * in-bounds lane's flag byte (the flag array is padded for it).
 *
 * @param grid The volume's free-brick flags.
 * @param s The samples' stencil8().
 * @param active Lanes to test; inactive lanes read no flag.
 * @return free lanes (sign-bit mask); only meaningful where active.
 */
__m256
freeMask8(const FreeBrickGrid &grid, const Stencil8 &s, __m256 active)
{
    const uint8_t *flags = grid.flags();
    const __m256i bv = _mm256_set1_epi32(grid.bricksPerEdge());
    const __m256i brick = _mm256_add_epi32(
        _mm256_mullo_epi32(
            _mm256_add_epi32(
                _mm256_mullo_epi32(
                    _mm256_srai_epi32(s.x0, kBrickShift), bv),
                _mm256_srai_epi32(s.y0, kBrickShift)),
            bv),
        _mm256_srai_epi32(s.z0, kBrickShift));
    const __m256i zero = _mm256_setzero_si256();
    const __m256i raw = _mm256_mask_i32gather_epi32(
        zero, reinterpret_cast<const int *>(flags), brick,
        _mm256_and_si256(s.inBounds, _mm256_castps_si256(active)), 1);
    const __m256i unflagged = _mm256_cmpeq_epi32(
        _mm256_and_si256(raw, _mm256_set1_epi32(0xff)), zero);
    // free = !inBounds || flagged = !(inBounds && unflagged).
    return _mm256_castsi256_ps(_mm256_xor_si256(
        _mm256_and_si256(s.inBounds, unflagged),
        _mm256_set1_epi32(-1)));
}

/** @return lane l of a float vector. */
float
lane(__m256 v, int l)
{
    alignas(32) float out[8];
    _mm256_store_ps(out, v);
    return out[l];
}

/** @return lane l of an int vector. */
int
lanei(__m256i v, int l)
{
    alignas(32) int out[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(out), v);
    return out[l];
}

} // namespace

void
Avx2Backend::integrateColumn(const IntegrateContext &ctx, Voxel *column,
                             int z_begin, int z_end, Vec3f pos,
                             uint64_t *dirty) const
{
    const __m256 fx = _mm256_set1_ps(ctx.intrinsics.fx);
    const __m256 fy = _mm256_set1_ps(ctx.intrinsics.fy);
    const __m256 cx = _mm256_set1_ps(ctx.intrinsics.cx);
    const __m256 cy = _mm256_set1_ps(ctx.intrinsics.cy);
    const __m256 zmin = _mm256_set1_ps(0.001f);
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 neg_mu = _mm256_set1_ps(-ctx.mu);
    const __m256 inv_mu = _mm256_set1_ps(ctx.invMu);
    const __m256 max_weight = _mm256_set1_ps(ctx.maxWeight);
    const __m256i widthv =
        _mm256_set1_epi32(static_cast<int>(ctx.width));
    const __m256i heightv =
        _mm256_set1_epi32(static_cast<int>(ctx.height));
    const __m256i minus1 = _mm256_set1_epi32(-1);

    int z = z_begin;
    for (; z_end - z >= 8; z += 8) {
        // Replay the scalar `pos += step` sweep serially so every
        // lane sees the bit-identical accumulated position.
        alignas(32) float posx[8], posy[8], posz[8];
        for (int l = 0; l < 8; ++l) {
            posx[l] = pos.x;
            posy[l] = pos.y;
            posz[l] = pos.z;
            pos += ctx.step;
        }
        const __m256 pxv = _mm256_load_ps(posx);
        const __m256 pyv = _mm256_load_ps(posy);
        const __m256 pzv = _mm256_load_ps(posz);

        // keep: !(pos.z <= 0.001f) — NLE matches the scalar branch
        // for NaN too.
        __m256 keep = _mm256_cmp_ps(pzv, zmin, _CMP_NLE_UQ);

        // pix = (fx * p.x / p.z + cx, fy * p.y / p.z + cy), truncated
        // toward zero exactly like static_cast<int>.
        const __m256i ipx = _mm256_cvttps_epi32(_mm256_add_ps(
            _mm256_div_ps(_mm256_mul_ps(fx, pxv), pzv), cx));
        const __m256i ipy = _mm256_cvttps_epi32(_mm256_add_ps(
            _mm256_div_ps(_mm256_mul_ps(fy, pyv), pzv), cy));

        const __m256i inb = _mm256_and_si256(
            _mm256_and_si256(_mm256_cmpgt_epi32(ipx, minus1),
                             _mm256_cmpgt_epi32(ipy, minus1)),
            _mm256_and_si256(_mm256_cmpgt_epi32(widthv, ipx),
                             _mm256_cmpgt_epi32(heightv, ipy)));
        keep = _mm256_and_ps(keep, _mm256_castsi256_ps(inb));

        const __m256i pix_idx = _mm256_add_epi32(
            _mm256_mullo_epi32(ipy, widthv), ipx);
        const __m256 measured = _mm256_mask_i32gather_ps(
            zero, ctx.depth, pix_idx, keep, 4);
        // keep: !(measured <= 0).
        keep = _mm256_and_ps(
            keep, _mm256_cmp_ps(measured, zero, _CMP_NLE_UQ));

        const __m256 lam = _mm256_mask_i32gather_ps(
            zero, ctx.lambda, pix_idx, keep, 4);
        const __m256 sdf =
            _mm256_mul_ps(_mm256_sub_ps(measured, pzv), lam);
        // keep: !(sdf < -mu).
        keep = _mm256_and_ps(
            keep, _mm256_cmp_ps(sdf, neg_mu, _CMP_NLT_UQ));
        if (_mm256_testz_ps(keep, keep))
            continue;

        // tsdf = min(1.0f, sdf / mu); min(x, 1) matches std::min's
        // operand order (NaN and equal cases included).
        const __m256 tsdf =
            _mm256_min_ps(_mm256_mul_ps(sdf, inv_mu), one);

        // Load 8 interleaved {tsdf, weight} voxels and deinterleave.
        const float *vf = reinterpret_cast<const float *>(column + z);
        const __m256 v01 = _mm256_loadu_ps(vf);
        const __m256 v23 = _mm256_loadu_ps(vf + 8);
        const __m256 tmix = _mm256_shuffle_ps(v01, v23,
                                              _MM_SHUFFLE(2, 0, 2, 0));
        const __m256 wmix = _mm256_shuffle_ps(v01, v23,
                                              _MM_SHUFFLE(3, 1, 3, 1));
        const __m256 vt = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(tmix), _MM_SHUFFLE(3, 1, 2, 0)));
        const __m256 vw = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(wmix), _MM_SHUFFLE(3, 1, 2, 0)));

        // v.tsdf = (v.tsdf * w + tsdf) / (w + 1);
        // v.weight = min(w + 1, max_weight).
        const __m256 wp1 = _mm256_add_ps(vw, one);
        const __m256 nt = _mm256_div_ps(
            _mm256_add_ps(_mm256_mul_ps(vt, vw), tsdf), wp1);
        const __m256 nw = _mm256_min_ps(wp1, max_weight);

        const __m256 bt = _mm256_blendv_ps(vt, nt, keep);
        const __m256 bw = _mm256_blendv_ps(vw, nw, keep);

        // Free-brick upkeep: fused lanes that leave tsdf == 1 (NEQ_UQ
        // is true for NaN, like the scalar `!=`). Eight lanes span at
        // most two bricks, so the first and last such lane mark every
        // brick the others would.
        if (const int m = _mm256_movemask_ps(_mm256_and_ps(
                _mm256_and_ps(keep, _mm256_cmp_ps(vt, one, _CMP_EQ_OQ)),
                _mm256_cmp_ps(nt, one, _CMP_NEQ_UQ)))) {
            markDirtyZ(dirty, z + __builtin_ctz(m));
            markDirtyZ(dirty, z + 31 - __builtin_clz(m));
        }

        // Re-interleave (the 64-bit permute is an involution) and
        // store; skipped lanes write back their original bytes.
        const __m256 tp = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(bt), _MM_SHUFFLE(3, 1, 2, 0)));
        const __m256 wp = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(bw), _MM_SHUFFLE(3, 1, 2, 0)));
        float *out = reinterpret_cast<float *>(column + z);
        _mm256_storeu_ps(out, _mm256_unpacklo_ps(tp, wp));
        _mm256_storeu_ps(out + 8, _mm256_unpackhi_ps(tp, wp));
    }

    // Scalar tail, byte-for-byte the reference loop.
    for (; z < z_end; ++z, pos += ctx.step) {
        if (pos.z <= 0.001f)
            continue;
        const math::Vec2f pix = ctx.intrinsics.project(pos);
        const int px = static_cast<int>(pix.x);
        const int py = static_cast<int>(pix.y);
        if (px < 0 || py < 0 || px >= static_cast<int>(ctx.width) ||
            py >= static_cast<int>(ctx.height))
            continue;
        const float measured =
            ctx.depth[static_cast<size_t>(py) * ctx.width +
                      static_cast<size_t>(px)];
        if (measured <= 0.0f)
            continue;
        const float lambda =
            ctx.lambda[static_cast<size_t>(py) * ctx.width +
                       static_cast<size_t>(px)];
        const float sdf = (measured - pos.z) * lambda;
        if (sdf < -ctx.mu)
            continue;
        const float tsdf = std::min(1.0f, sdf * ctx.invMu);
        Voxel &v = column[z];
        const float weight = v.weight;
        const bool was_one = v.tsdf == 1.0f;
        v.tsdf = (v.tsdf * weight + tsdf) / (weight + 1.0f);
        v.weight = std::min(weight + 1.0f, ctx.maxWeight);
        if (was_one && v.tsdf != 1.0f)
            markDirtyZ(dirty, z);
    }
}

Vec3f
Avx2Backend::grad(const TsdfVolume &volume, const Vec3f &p) const
{
    const float step = volume.voxelSize();
    const float inv_vs = 1.0f / volume.voxelSize();
    const float *voxels =
        reinterpret_cast<const float *>(&volume.at(0, 0, 0));

    // Six central-difference sample points in lanes 0..5, ordered
    // xp, xm, yp, ym, zp, zm like the scalar kernel.
    const __m256 px = _mm256_setr_ps(p.x + step, p.x - step, p.x, p.x,
                                     p.x, p.x, p.x, p.x);
    const __m256 py = _mm256_setr_ps(p.y, p.y, p.y + step, p.y - step,
                                     p.y, p.y, p.y, p.y);
    const __m256 pz = _mm256_setr_ps(p.z, p.z, p.z, p.z, p.z + step,
                                     p.z - step, p.z, p.z);
    const __m256 active = _mm256_castsi256_ps(_mm256_setr_epi32(
        -1, -1, -1, -1, -1, -1, 0, 0));

    __m256 valid;
    const int res = volume.resolution();
    const __m256 v = DenseSampler8{voxels, res}(
        stencil8(res, volume.origin(), inv_vs, px, py, pz), active,
        valid);
    const int ok = _mm256_movemask_ps(valid);

    // Per-axis early-outs in the scalar order: both samples of an
    // axis invalid -> zero gradient.
    if ((ok & 0x03) == 0)
        return Vec3f{};
    if ((ok & 0x0c) == 0)
        return Vec3f{};
    if ((ok & 0x30) == 0)
        return Vec3f{};
    alignas(32) float s[8];
    _mm256_store_ps(s, v);
    return {s[0] - s[1], s[2] - s[3], s[4] - s[5]};
}

namespace {

/**
 * The packet march of Avx2Backend::castRays on either volume:
 * castRayCore's control flow per lane, with the free-brick skip read
 * from the volume's FreeBrickGrid.
 *
 * @param volume TsdfVolume or SparseTsdfVolume.
 * @param sample (stencil, active, valid&) -> per-lane interp() of
 *               the stencil's samples (DenseSampler8,
 *               SparseSampler8).
 */
template <typename Volume, typename Sampler>
void
castRaysPacket(const Volume &volume, Sampler &sample,
               const Vec3f &origin, const Vec3f *dirs, size_t count,
               const RaycastParams &params, RayHit *hits)
{
    const float inv_vs = 1.0f / volume.voxelSize();
    const math::Aabb box{volume.origin(),
                         volume.origin() +
                             Vec3f::all(volume.size())};

    // Per-lane setup replays the scalar march prologue: AABB clip,
    // t/t_end clamping, and the miss-before-marching cases.
    alignas(32) float dx[8]{}, dy[8]{}, dz[8]{};
    alignas(32) float t0[8]{}, tend[8]{};
    alignas(32) int run0[8]{};
    for (size_t l = 0; l < count; ++l) {
        hits[l] = RayHit{};
        dx[l] = dirs[l].x;
        dy[l] = dirs[l].y;
        dz[l] = dirs[l].z;
        tend[l] = -1e30f; // keeps padded/missed lanes inactive
        float t_near, t_far;
        if (!math::intersectRayAabb(box, origin, dirs[l], t_near,
                                    t_far))
            continue;
        const float t = std::max(t_near, params.nearPlane);
        const float t_end = std::min(t_far, params.farPlane);
        if (t >= t_end)
            continue;
        t0[l] = t;
        tend[l] = t_end;
        run0[l] = -1;
    }

    __m256 t = _mm256_load_ps(t0);
    const __m256 t_end = _mm256_load_ps(tend);
    __m256 running = _mm256_castsi256_ps(_mm256_load_si256(
        reinterpret_cast<const __m256i *>(run0)));
    if (_mm256_testz_ps(running, running))
        return;

    const __m256 ox = _mm256_set1_ps(origin.x);
    const __m256 oy = _mm256_set1_ps(origin.y);
    const __m256 oz = _mm256_set1_ps(origin.z);
    const __m256 dxv = _mm256_load_ps(dx);
    const __m256 dyv = _mm256_load_ps(dy);
    const __m256 dzv = _mm256_load_ps(dz);
    const __m256 large = _mm256_set1_ps(params.largeStep);
    const __m256 fine = _mm256_set1_ps(params.step);
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 band = _mm256_set1_ps(0.8f);
    const __m256 eps = _mm256_set1_ps(1e-12f);
    const int res = volume.resolution();
    const Vec3f &vorigin = volume.origin();
    const FreeBrickGrid &grid = volume.freeBricks();

    const auto point_at = [&](__m256 tv, __m256 &px, __m256 &py,
                              __m256 &pz) {
        // origin + dir * t, per component: mul then add.
        px = _mm256_add_ps(ox, _mm256_mul_ps(dxv, tv));
        py = _mm256_add_ps(oy, _mm256_mul_ps(dyv, tv));
        pz = _mm256_add_ps(oz, _mm256_mul_ps(dzv, tv));
    };

    // The free-space skip, per lane as in castRayCore: a lane whose
    // sample is free skips the fetch, leaving f_t stale (`stale`) with
    // its t kept in t_stale for a re-fetch should the next sample
    // cross zero. The gathers run only for lanes that fetch, and not
    // at all when every running lane is free.
    __m256 t_stale = t;

    // Initial sample: f_t = interp(origin + dir * t); lanes that
    // start inside the surface (valid && f_t < 0) miss immediately.
    __m256 px, py, pz, valid = zero;
    point_at(t, px, py, pz);
    Stencil8 stencil = stencil8(res, vorigin, inv_vs, px, py, pz);
    __m256 stale = _mm256_and_ps(
        running, freeMask8(grid, stencil, running));
    __m256i skipped = _mm256_sub_epi32(_mm256_setzero_si256(),
                                       _mm256_castps_si256(stale));
    const __m256 fetch0 = _mm256_andnot_ps(stale, running);
    __m256 f_t = one;
    if (!_mm256_testz_ps(fetch0, fetch0))
        f_t = sample(stencil, fetch0, valid);
    running = _mm256_andnot_ps(
        _mm256_and_ps(valid, _mm256_cmp_ps(f_t, zero, _CMP_LT_OQ)),
        running);

    __m256 stepsize = large;
    __m256i steps = _mm256_setzero_si256();
    __m256 found = zero;
    __m256 hitx = zero, hity = zero, hitz = zero;

    while (true) {
        // Loop condition per lane: t < t_end; lanes failing it leave
        // the march as misses.
        running = _mm256_and_ps(
            running, _mm256_cmp_ps(t, t_end, _CMP_LT_OQ));
        if (_mm256_testz_ps(running, running))
            break;

        // ++steps; t += stepsize (active lanes only).
        steps = _mm256_sub_epi32(steps,
                                 _mm256_castps_si256(running));
        t = _mm256_blendv_ps(t, _mm256_add_ps(t, stepsize), running);

        point_at(t, px, py, pz);
        stencil = stencil8(res, vorigin, inv_vs, px, py, pz);

        // Free lanes: invalid or >= 0.8 either way, so the coarse
        // step, no crossing, and a stale f_t.
        const __m256 skip = _mm256_and_ps(
            running, freeMask8(grid, stencil, running));
        if (!_mm256_testz_ps(skip, skip)) {
            // Lanes in free space already take the coarse step; only
            // blend when one does not, so the next t does not wait on
            // this iteration's flag gather.
            const __m256 fine_skip = _mm256_and_ps(
                skip, _mm256_cmp_ps(stepsize, large, _CMP_NEQ_UQ));
            if (!_mm256_testz_ps(fine_skip, fine_skip))
                stepsize = _mm256_blendv_ps(stepsize, large, skip);
            stale = _mm256_or_ps(stale, skip);
            t_stale = _mm256_blendv_ps(t_stale, t, skip);
            skipped = _mm256_sub_epi32(skipped,
                                       _mm256_castps_si256(skip));
        }
        const __m256 fetch = _mm256_andnot_ps(skip, running);
        if (_mm256_testz_ps(fetch, fetch))
            continue;

        const __m256 f_tt = sample(stencil, fetch, valid);

        // Unknown space: f_t = 1, back to the coarse step, continue.
        const __m256 invalid = _mm256_andnot_ps(valid, fetch);
        f_t = _mm256_blendv_ps(f_t, one, invalid);
        stepsize = _mm256_blendv_ps(stepsize, large, invalid);

        const __m256 sampled = _mm256_and_ps(fetch, valid);
        // Zero crossing: linear refinement between samples, exactly
        // the scalar t + stepsize * f_tt / denom operation order.
        const __m256 crossing = _mm256_and_ps(
            sampled, _mm256_cmp_ps(f_tt, zero, _CMP_LT_OQ));
        if (!_mm256_testz_ps(crossing, crossing)) {
            // A crossing right after a skipped sample re-fetches
            // that sample's f_t at its stored t.
            const __m256 refetch = _mm256_and_ps(crossing, stale);
            if (!_mm256_testz_ps(refetch, refetch)) {
                __m256 sx, sy, sz, ok;
                point_at(t_stale, sx, sy, sz);
                f_t = _mm256_blendv_ps(
                    f_t,
                    sample(stencil8(res, vorigin, inv_vs, sx, sy, sz),
                           refetch, ok),
                    refetch);
            }
            const __m256 denom = _mm256_sub_ps(f_t, f_tt);
            const __m256 refine =
                _mm256_cmp_ps(denom, eps, _CMP_GT_OQ);
            const __m256 t_star = _mm256_blendv_ps(
                t,
                _mm256_add_ps(
                    t, _mm256_div_ps(_mm256_mul_ps(stepsize, f_tt),
                                     denom)),
                refine);
            __m256 hx, hy, hz;
            point_at(t_star, hx, hy, hz);
            hitx = _mm256_blendv_ps(hitx, hx, crossing);
            hity = _mm256_blendv_ps(hity, hy, crossing);
            hitz = _mm256_blendv_ps(hitz, hz, crossing);
            found = _mm256_or_ps(found, crossing);
            running = _mm256_andnot_ps(crossing, running);
        }

        // Near the surface: drop to the fine step.
        const __m256 marching = _mm256_andnot_ps(crossing, sampled);
        const __m256 next_step = _mm256_blendv_ps(
            large, fine, _mm256_cmp_ps(f_tt, band, _CMP_LT_OQ));
        stepsize = _mm256_blendv_ps(stepsize, next_step, marching);
        f_t = _mm256_blendv_ps(f_t, f_tt, marching);
        stale = _mm256_andnot_ps(fetch, stale);
    }

    const int found_bits = _mm256_movemask_ps(found);
    for (size_t l = 0; l < count; ++l) {
        hits[l].steps = lanei(steps, static_cast<int>(l));
        hits[l].skipped = lanei(skipped, static_cast<int>(l));
        if (found_bits & (1 << l)) {
            hits[l].found = true;
            hits[l].hit = {lane(hitx, static_cast<int>(l)),
                           lane(hity, static_cast<int>(l)),
                           lane(hitz, static_cast<int>(l))};
        }
    }
}

} // namespace

void
Avx2Backend::castRays(const TsdfVolume &volume, const Vec3f &origin,
                      const Vec3f *dirs, size_t count,
                      const RaycastParams &params, RayHit *hits) const
{
    DenseSampler8 sample{
        reinterpret_cast<const float *>(&volume.at(0, 0, 0)),
        volume.resolution()};
    castRaysPacket(volume, sample, origin, dirs, count, params, hits);
}

void
Avx2Backend::castRays(const SparseTsdfVolume &volume, const Vec3f &origin,
                      const Vec3f *dirs, size_t count,
                      const RaycastParams &params, RayHit *hits) const
{
    SparseSampler8 sample(volume);
    castRaysPacket(volume, sample, origin, dirs, count, params, hits);
}

ReductionResult
Avx2Backend::reduceRange(const support::Image<TrackData> &track_data,
                         size_t begin, size_t end) const
{
    // Slot-per-lane: the 6x8 products jac[r] * {j0..j5, e, 0} cover
    // the full J^T J (row-major) and J^T e in 12 register-resident
    // accumulators. Each slot accumulates sequentially over pixels,
    // so no sum is reassociated; float x float products are exact in
    // double, making every slot bit-identical to the scalar kernel.
    __m256d acc_lo[6], acc_hi[6];
    for (int r = 0; r < 6; ++r) {
        acc_lo[r] = _mm256_setzero_pd();
        acc_hi[r] = _mm256_setzero_pd();
    }
    double error_sq = 0.0;
    size_t valid_count = 0;

    for (size_t i = begin; i < end; ++i) {
        const TrackData &row = track_data[i];
        if (row.result != TrackResult::Ok)
            continue;
        ++valid_count;
        error_sq += static_cast<double>(row.error) * row.error;
        const __m256d dlo =
            _mm256_cvtps_pd(_mm_loadu_ps(row.jacobian.data()));
        const __m256d dhi = _mm256_cvtps_pd(
            _mm_setr_ps(row.jacobian[4], row.jacobian[5], row.error,
                        0.0f));
        for (int r = 0; r < 6; ++r) {
            const __m256d jr = _mm256_set1_pd(
                static_cast<double>(row.jacobian[r]));
            acc_lo[r] = _mm256_add_pd(acc_lo[r],
                                      _mm256_mul_pd(jr, dlo));
            acc_hi[r] = _mm256_add_pd(acc_hi[r],
                                      _mm256_mul_pd(jr, dhi));
        }
    }

    ReductionResult out;
    out.errorSq = error_sq;
    out.validCount = valid_count;
    size_t tslot = 0;
    for (int r = 0; r < 6; ++r) {
        alignas(32) double full[8];
        _mm256_store_pd(full, acc_lo[r]);
        _mm256_store_pd(full + 4, acc_hi[r]);
        for (int c = r; c < 6; ++c, ++tslot)
            out.jtj[tslot] = full[c];
        out.jte[static_cast<size_t>(r)] = full[6];
    }
    return out;
}

namespace {

/**
 * kfusion::expf on 4 lanes, each replaying the scalar form's double
 * arithmetic (the same table, no FMA), so every lane is bit-identical
 * to it.
 */
__m128
expf4(__m128 x)
{
    const __m256d z =
        _mm256_mul_pd(_mm256_set1_pd(kExpInvLn2N), _mm256_cvtps_pd(x));
    const __m256d shift = _mm256_set1_pd(kExpShift);
    const __m256d kd_shifted = _mm256_add_pd(z, shift);
    const __m256i ki = _mm256_castpd_si256(kd_shifted);
    const __m256d r = _mm256_sub_pd(z, _mm256_sub_pd(kd_shifted, shift));
    const __m256i index = _mm256_and_si256(
        ki, _mm256_set1_epi64x((1 << kExpTableBits) - 1));
    const __m256i t = _mm256_add_epi64(
        _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(kExpTable), index, 8),
        _mm256_slli_epi64(ki, 52 - kExpTableBits));
    const __m256d p = _mm256_add_pd(
        _mm256_mul_pd(_mm256_set1_pd(kExpC0), r), _mm256_set1_pd(kExpC1));
    const __m256d r2 = _mm256_mul_pd(r, r);
    __m256d y = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpC2), r),
                              _mm256_set1_pd(1.0));
    y = _mm256_add_pd(_mm256_mul_pd(p, r2), y);
    y = _mm256_mul_pd(y, _mm256_castsi256_pd(t));
    return _mm256_cvtpd_ps(y);
}

/** kfusion::expf on 8 lanes, its underflow and overflow included. */
__m256
expf8(__m256 x)
{
    __m256 y = _mm256_set_m128(expf4(_mm256_extractf128_ps(x, 1)),
                               expf4(_mm256_castps256_ps128(x)));
    y = _mm256_blendv_ps(
        y, _mm256_setzero_ps(),
        _mm256_cmp_ps(x, _mm256_set1_ps(kExpUnderflow), _CMP_LT_OQ));
    return _mm256_blendv_ps(
        y, _mm256_set1_ps(std::numeric_limits<float>::infinity()),
        _mm256_cmp_ps(x, _mm256_set1_ps(kExpOverflow), _CMP_GT_OQ));
}

} // namespace

void
expfAvx2(const float *x, float *out, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i, expf8(_mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        out[i] = expf(x[i]);
}

void
Avx2Backend::bilateralRow(const BilateralContext &ctx, size_t y) const
{
    // Lane l filters pixel x + l of the row, replaying bilateralPixels:
    // taps in (dy, dx) order, sum and weight updated only where the
    // scalar code adds (a blend, not an add of 0), the same final
    // division.
    const size_t w = ctx.width;
    const int radius = ctx.radius;
    const int side = 2 * radius + 1;
    const float *row = ctx.in + y * w;
    const __m256 zero = _mm256_setzero_ps();
    const __m256 sign = _mm256_set1_ps(-0.0f);
    const __m256 inv2e2 = _mm256_set1_ps(ctx.inv2e2);
    const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i width = _mm256_set1_epi32(static_cast<int>(w));
    // Row range of the window (the scalar loop skips rows outside).
    const long y_lo = std::max(-static_cast<long>(radius),
                               -static_cast<long>(y));
    const long y_hi = std::min(static_cast<long>(radius),
                               static_cast<long>(ctx.height - 1 - y));

    size_t x = 0;
    for (; x + 8 <= w; x += 8) {
        const __m256 center = _mm256_loadu_ps(row + x);
        // !(center <= 0): NaN centers are filtered, as in the scalar.
        const __m256 active = _mm256_cmp_ps(center, zero, _CMP_NLE_UQ);
        if (_mm256_movemask_ps(active) == 0) {
            _mm256_storeu_ps(ctx.out + y * w + x, zero);
            continue;
        }
        __m256 sum = zero;
        __m256 weight = zero;
        for (long dy = y_lo; dy <= y_hi; ++dy) {
            const float *src = ctx.in + (static_cast<long>(y) + dy) *
                                            static_cast<long>(w);
            const float *spatial =
                ctx.spatial + (dy + radius) * side + radius;
            for (int dx = -radius; dx <= radius; ++dx) {
                const long x0 = static_cast<long>(x) + dx;
                __m256 sample;
                if (x0 >= 0 && x0 + 8 <= static_cast<long>(w)) {
                    sample = _mm256_loadu_ps(src + x0);
                } else {
                    // The taps cross the row's end: gather only the
                    // lanes whose column lies inside the row; the
                    // others read 0, which the scalar loop skips
                    // like an outside column.
                    const __m256i cols = _mm256_add_epi32(
                        _mm256_set1_epi32(static_cast<int>(x0)),
                        lane_index);
                    const __m256 in_row = _mm256_castsi256_ps(
                        _mm256_andnot_si256(
                            _mm256_cmpgt_epi32(_mm256_setzero_si256(),
                                               cols),
                            _mm256_cmpgt_epi32(width, cols)));
                    sample = _mm256_mask_i32gather_ps(zero, src, cols,
                                                      in_row, 4);
                }
                // !(sample <= 0): the taps the scalar loop takes.
                const __m256 take =
                    _mm256_cmp_ps(sample, zero, _CMP_NLE_UQ);
                const __m256 diff = _mm256_sub_ps(sample, center);
                const __m256 range = expf8(_mm256_mul_ps(
                    _mm256_mul_ps(_mm256_xor_ps(diff, sign), diff),
                    inv2e2));
                const __m256 wgt =
                    _mm256_mul_ps(_mm256_set1_ps(spatial[dx]), range);
                sum = _mm256_blendv_ps(
                    sum, _mm256_add_ps(sum, _mm256_mul_ps(wgt, sample)),
                    take);
                weight = _mm256_blendv_ps(
                    weight, _mm256_add_ps(weight, wgt), take);
            }
        }
        const __m256 filtered = _mm256_and_ps(
            _mm256_div_ps(sum, weight),
            _mm256_cmp_ps(weight, zero, _CMP_GT_OQ));
        _mm256_storeu_ps(ctx.out + y * w + x,
                         _mm256_and_ps(filtered, active));
    }
    bilateralPixels(ctx, y, x, w);
}

namespace {

/**
 * Split 8 consecutive Vec3f (24 floats at @p p) into x, y and z lanes.
 * Lane l of component k is float 3l + k, which sits in load
 * (3l + k) / 8 at position (3l + k) % 8: one index vector per
 * component serves all three loads, and blends pick the load.
 */
inline void
loadVec3x8(const Vec3f *p, __m256 &x, __m256 &y, __m256 &z)
{
    const float *f = reinterpret_cast<const float *>(p);
    const __m256 a = _mm256_loadu_ps(f);
    const __m256 b = _mm256_loadu_ps(f + 8);
    const __m256 c = _mm256_loadu_ps(f + 16);
    const __m256i ix = _mm256_setr_epi32(0, 3, 6, 1, 4, 7, 2, 5);
    const __m256i iy = _mm256_setr_epi32(1, 4, 7, 2, 5, 0, 3, 6);
    const __m256i iz = _mm256_setr_epi32(2, 5, 0, 3, 6, 1, 4, 7);
    x = _mm256_blend_ps(
        _mm256_blend_ps(_mm256_permutevar8x32_ps(a, ix),
                        _mm256_permutevar8x32_ps(b, ix), 0x38),
        _mm256_permutevar8x32_ps(c, ix), 0xc0);
    y = _mm256_blend_ps(
        _mm256_blend_ps(_mm256_permutevar8x32_ps(a, iy),
                        _mm256_permutevar8x32_ps(b, iy), 0x18),
        _mm256_permutevar8x32_ps(c, iy), 0xe0);
    z = _mm256_blend_ps(
        _mm256_blend_ps(_mm256_permutevar8x32_ps(a, iz),
                        _mm256_permutevar8x32_ps(b, iz), 0x1c),
        _mm256_permutevar8x32_ps(c, iz), 0xe0);
}

/**
 * Interleave x, y and z lanes into 8 consecutive Vec3f at @p p, the
 * inverse of loadVec3x8: float e of the 24 is component e % 3 of
 * lane e / 3.
 */
inline void
storeVec3x8(Vec3f *p, __m256 x, __m256 y, __m256 z)
{
    float *f = reinterpret_cast<float *>(p);
    const __m256i ia = _mm256_setr_epi32(0, 0, 0, 1, 1, 1, 2, 2);
    const __m256i ib = _mm256_setr_epi32(2, 3, 3, 3, 4, 4, 4, 5);
    const __m256i ic = _mm256_setr_epi32(5, 5, 6, 6, 6, 7, 7, 7);
    _mm256_storeu_ps(
        f, _mm256_blend_ps(
               _mm256_blend_ps(_mm256_permutevar8x32_ps(x, ia),
                               _mm256_permutevar8x32_ps(y, ia), 0x92),
               _mm256_permutevar8x32_ps(z, ia), 0x24));
    _mm256_storeu_ps(
        f + 8, _mm256_blend_ps(
                   _mm256_blend_ps(_mm256_permutevar8x32_ps(x, ib),
                                   _mm256_permutevar8x32_ps(y, ib), 0x24),
                   _mm256_permutevar8x32_ps(z, ib), 0x49));
    _mm256_storeu_ps(
        f + 16, _mm256_blend_ps(
                    _mm256_blend_ps(_mm256_permutevar8x32_ps(x, ic),
                                    _mm256_permutevar8x32_ps(y, ic), 0x49),
                    _mm256_permutevar8x32_ps(z, ic), 0x92));
}

/** (a.x * b.x + a.y * b.y) + a.z * b.z on 8 lanes (Vec3f::dot). */
inline __m256
dot8(__m256 ax, __m256 ay, __m256 az, __m256 bx, __m256 by, __m256 bz)
{
    return _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(ax, bx), _mm256_mul_ps(ay, by)),
        _mm256_mul_ps(az, bz));
}

/** One row of a Mat4f, broadcast: ((m0 x + m1 y) + m2 z) + m3. */
struct MatRow8
{
    __m256 m0, m1, m2, m3;

    MatRow8(const math::Mat4f &m, int r)
        : m0(_mm256_set1_ps(m.m[r][0])), m1(_mm256_set1_ps(m.m[r][1])),
          m2(_mm256_set1_ps(m.m[r][2])), m3(_mm256_set1_ps(m.m[r][3]))
    {}

    /** Mat4f::transformDir's row: (m0 x + m1 y) + m2 z. */
    __m256
    dir(__m256 x, __m256 y, __m256 z) const
    {
        return dot8(m0, m1, m2, x, y, z);
    }

    /** Mat4f::transformPoint's row. */
    __m256
    point(__m256 x, __m256 y, __m256 z) const
    {
        return _mm256_add_ps(dir(x, y, z), m3);
    }
};

/** Transpose 8 rows of 8 floats in place (row r, lane l -> row l, lane r). */
inline void
transpose8x8(__m256 r[8])
{
    __m256 t[8], u[8];
    for (int i = 0; i < 8; i += 2) {
        t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    for (int i = 0; i < 8; i += 4) {
        u[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
        u[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xee);
        u[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
        u[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xee);
    }
    for (int i = 0; i < 4; ++i) {
        r[i] = _mm256_permute2f128_ps(u[i], u[i + 4], 0x20);
        r[i + 4] = _mm256_permute2f128_ps(u[i], u[i + 4], 0x31);
    }
}

} // namespace

void
Avx2Backend::trackRow(const TrackContext &ctx, size_t y) const
{
    // Lane l tracks pixel x + l of the row, replaying trackPixels: the
    // gates in the scalar order with ordered-quiet compares (a NaN
    // takes the scalar branch), the reference maps read by gathers
    // masked to the lanes that reached each read, and the result code
    // of the first gate a lane fails.
    static_assert(sizeof(TrackData) == 32 &&
                      offsetof(TrackData, error) == 4 &&
                      offsetof(TrackData, jacobian) == 8,
                  "trackRow stores TrackData as 8 dwords");
    const size_t w = ctx.width;
    const Vec3f *live_vertex = ctx.liveVertex + y * w;
    const Vec3f *live_normal = ctx.liveNormal + y * w;
    TrackData *out = ctx.out + y * w;
    const MatRow8 pose[3] = {{ctx.pose, 0}, {ctx.pose, 1}, {ctx.pose, 2}};
    const MatRow8 to_ref[3] = {
        {ctx.worldToRef, 0}, {ctx.worldToRef, 1}, {ctx.worldToRef, 2}};
    const __m256 fx = _mm256_set1_ps(ctx.refIntrinsics.fx);
    const __m256 fy = _mm256_set1_ps(ctx.refIntrinsics.fy);
    const __m256 cx = _mm256_set1_ps(ctx.refIntrinsics.cx);
    const __m256 cy = _mm256_set1_ps(ctx.refIntrinsics.cy);
    const __m256 dist_threshold = _mm256_set1_ps(ctx.distThreshold);
    const __m256 normal_threshold = _mm256_set1_ps(ctx.normalThreshold);
    const __m256i ref_w = _mm256_set1_epi32(static_cast<int>(ctx.refWidth));
    const __m256i ref_h =
        _mm256_set1_epi32(static_cast<int>(ctx.refHeight));
    const __m256i minus1 = _mm256_set1_epi32(-1);
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    const float *ref_vertex = reinterpret_cast<const float *>(ctx.refVertex);
    const float *ref_normal = reinterpret_cast<const float *>(ctx.refNormal);
    const bool point_to_point = ctx.residual == IcpResidual::PointToPoint;
    // Point-to-point: lane l's axis is (x + y + l) % 3. lane_axis holds
    // l % 3, so lane_axis + (x + y) % 3 is at most 4 and one
    // conditional subtraction of 3 finishes the % 3.
    const __m256i lane_axis = _mm256_setr_epi32(0, 1, 2, 0, 1, 2, 0, 1);
    const __m256i two = _mm256_set1_epi32(2);
    const __m256i three = _mm256_set1_epi32(3);
    // Store masks: an Ok record takes every byte but the padding after
    // result; any other record takes only result.
    const __m256i take_ok = _mm256_setr_epi32(0xff, -1, -1, -1, -1, -1, -1, -1);
    const __m256i take_result = _mm256_setr_epi32(0xff, 0, 0, 0, 0, 0, 0, 0);

    auto code = [](TrackResult r) {
        return _mm256_set1_epi32(static_cast<int>(r));
    };
    auto select = [](__m256i base, __m256i value, __m256 mask) {
        return _mm256_castps_si256(_mm256_blendv_ps(
            _mm256_castsi256_ps(base), _mm256_castsi256_ps(value), mask));
    };

    size_t x = 0;
    for (; x + 8 <= w; x += 8) {
        __m256 vx, vy, vz, nx, ny, nz;
        loadVec3x8(live_vertex + x, vx, vy, vz);
        loadVec3x8(live_normal + x, nx, ny, nz);
        const __m256 no_input = _mm256_or_ps(
            _mm256_cmp_ps(dot8(vx, vy, vz, vx, vy, vz), zero, _CMP_EQ_OQ),
            _mm256_cmp_ps(dot8(nx, ny, nz, nx, ny, nz), zero, _CMP_EQ_OQ));

        const __m256 wx = pose[0].point(vx, vy, vz);
        const __m256 wy = pose[1].point(vx, vy, vz);
        const __m256 wz = pose[2].point(vx, vy, vz);
        const __m256 rx = to_ref[0].point(wx, wy, wz);
        const __m256 ry = to_ref[1].point(wx, wy, wz);
        const __m256 rz = to_ref[2].point(wx, wy, wz);
        // project: (f * p) / z + c, truncated like static_cast<int>.
        const __m256i px = _mm256_cvttps_epi32(
            _mm256_add_ps(_mm256_div_ps(_mm256_mul_ps(fx, rx), rz), cx));
        const __m256i py = _mm256_cvttps_epi32(
            _mm256_add_ps(_mm256_div_ps(_mm256_mul_ps(fy, ry), rz), cy));
        const __m256i inside = _mm256_and_si256(
            _mm256_and_si256(_mm256_cmpgt_epi32(px, minus1),
                             _mm256_cmpgt_epi32(py, minus1)),
            _mm256_and_si256(_mm256_cmpgt_epi32(ref_w, px),
                             _mm256_cmpgt_epi32(ref_h, py)));
        const __m256 outside = _mm256_or_ps(
            _mm256_cmp_ps(rz, zero, _CMP_LE_OQ),
            _mm256_castsi256_ps(_mm256_xor_si256(inside, minus1)));

        // Reference reads, masked so that no lane reads outside the maps.
        const __m256 reach_normal = _mm256_andnot_ps(
            _mm256_or_ps(no_input, outside), _mm256_castsi256_ps(minus1));
        const __m256i ref = _mm256_mullo_epi32(
            _mm256_add_epi32(_mm256_mullo_epi32(py, ref_w), px), three);
        const __m256i ref_y = _mm256_add_epi32(ref, _mm256_set1_epi32(1));
        const __m256i ref_z = _mm256_add_epi32(ref, two);
        const __m256 rnx =
            _mm256_mask_i32gather_ps(zero, ref_normal, ref, reach_normal, 4);
        const __m256 rny = _mm256_mask_i32gather_ps(zero, ref_normal, ref_y,
                                                    reach_normal, 4);
        const __m256 rnz = _mm256_mask_i32gather_ps(zero, ref_normal, ref_z,
                                                    reach_normal, 4);
        const __m256 no_ref_normal =
            _mm256_cmp_ps(dot8(rnx, rny, rnz, rnx, rny, rnz), zero,
                          _CMP_EQ_OQ);
        const __m256 reach_vertex =
            _mm256_andnot_ps(no_ref_normal, reach_normal);
        const __m256 rvx =
            _mm256_mask_i32gather_ps(zero, ref_vertex, ref, reach_vertex, 4);
        const __m256 rvy = _mm256_mask_i32gather_ps(zero, ref_vertex, ref_y,
                                                    reach_vertex, 4);
        const __m256 rvz = _mm256_mask_i32gather_ps(zero, ref_vertex, ref_z,
                                                    reach_vertex, 4);

        const __m256 dx = _mm256_sub_ps(rvx, wx);
        const __m256 dy = _mm256_sub_ps(rvy, wy);
        const __m256 dz = _mm256_sub_ps(rvz, wz);
        const __m256 too_far =
            _mm256_cmp_ps(_mm256_sqrt_ps(dot8(dx, dy, dz, dx, dy, dz)),
                          dist_threshold, _CMP_GT_OQ);
        const __m256 mismatch = _mm256_cmp_ps(
            dot8(pose[0].dir(nx, ny, nz), pose[1].dir(nx, ny, nz),
                 pose[2].dir(nx, ny, nz), rnx, rny, rnz),
            normal_threshold, _CMP_LT_OQ);

        // The first failed gate wins: blend from the last to the first.
        __m256i result = code(TrackResult::Ok);
        result = select(result, code(TrackResult::NormalMismatch), mismatch);
        result = select(result, code(TrackResult::TooFar), too_far);
        result = select(result, code(TrackResult::NoRefNormal), no_ref_normal);
        result =
            select(result, code(TrackResult::ProjectedOutside), outside);
        result = select(result, code(TrackResult::NoInputVertex), no_input);
        const int ok = _mm256_movemask_ps(_mm256_castsi256_ps(
            _mm256_cmpeq_epi32(result, code(TrackResult::Ok))));

        __m256 dir_x = rnx, dir_y = rny, dir_z = rnz;
        if (point_to_point) {
            __m256i axis = _mm256_add_epi32(
                lane_axis, _mm256_set1_epi32(static_cast<int>((x + y) % 3)));
            axis = _mm256_sub_epi32(
                axis, _mm256_and_si256(_mm256_cmpgt_epi32(axis, two), three));
            dir_x = _mm256_and_ps(
                one, _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                         axis, _mm256_setzero_si256())));
            dir_y = _mm256_and_ps(
                one, _mm256_castsi256_ps(
                         _mm256_cmpeq_epi32(axis, _mm256_set1_epi32(1))));
            dir_z = _mm256_and_ps(
                one, _mm256_castsi256_ps(_mm256_cmpeq_epi32(axis, two)));
        }

        // Fields in TrackData order, then one record per row.
        __m256 rec[8] = {
            _mm256_castsi256_ps(result),
            dot8(dir_x, dir_y, dir_z, dx, dy, dz),
            dir_x,
            dir_y,
            dir_z,
            // world_vertex.cross(direction)
            _mm256_sub_ps(_mm256_mul_ps(wy, dir_z), _mm256_mul_ps(wz, dir_y)),
            _mm256_sub_ps(_mm256_mul_ps(wz, dir_x), _mm256_mul_ps(wx, dir_z)),
            _mm256_sub_ps(_mm256_mul_ps(wx, dir_y), _mm256_mul_ps(wy, dir_x)),
        };
        transpose8x8(rec);
        for (int l = 0; l < 8; ++l) {
            __m256i *slot = reinterpret_cast<__m256i *>(out + x + l);
            const __m256i take = (ok >> l) & 1 ? take_ok : take_result;
            _mm256_storeu_si256(
                slot, _mm256_blendv_epi8(_mm256_loadu_si256(slot),
                                         _mm256_castps_si256(rec[l]), take));
        }
    }
    trackPixels(ctx, y, x, w);
}

void
Avx2Backend::vertex2normalRow(const Vertex2NormalContext &ctx,
                              size_t y) const
{
    // Lane l computes pixel x + l, replaying vertex2normalPixels. The
    // last row has no pixel below and the last column no pixel to the
    // right: the scalar body writes their zeros.
    const size_t w = ctx.width;
    if (y + 1 >= ctx.height) {
        vertex2normalPixels(ctx, y, 0, w);
        return;
    }
    const Vec3f *row = ctx.in + y * w;
    const Vec3f *below = row + w;
    Vec3f *out = ctx.out + y * w;
    const __m256 zero = _mm256_setzero_ps();
    const __m256 sign = _mm256_set1_ps(-0.0f);
    const __m256 min_sq = _mm256_set1_ps(1e-18f);

    size_t x = 0;
    for (; x + 8 < w; x += 8) {
        __m256 cx, cy, cz, rx, ry, rz, dx, dy, dz;
        loadVec3x8(row + x, cx, cy, cz);
        loadVec3x8(row + x + 1, rx, ry, rz);
        loadVec3x8(below + x, dx, dy, dz);
        __m256 invalid = _mm256_or_ps(
            _mm256_or_ps(
                _mm256_cmp_ps(dot8(cx, cy, cz, cx, cy, cz), zero,
                              _CMP_EQ_OQ),
                _mm256_cmp_ps(dot8(rx, ry, rz, rx, ry, rz), zero,
                              _CMP_EQ_OQ)),
            _mm256_cmp_ps(dot8(dx, dy, dz, dx, dy, dz), zero, _CMP_EQ_OQ));
        const __m256 ux = _mm256_sub_ps(rx, cx);
        const __m256 uy = _mm256_sub_ps(ry, cy);
        const __m256 uz = _mm256_sub_ps(rz, cz);
        const __m256 vx = _mm256_sub_ps(dx, cx);
        const __m256 vy = _mm256_sub_ps(dy, cy);
        const __m256 vz = _mm256_sub_ps(dz, cz);
        // n = du.cross(dv)
        __m256 nx = _mm256_sub_ps(_mm256_mul_ps(uy, vz), _mm256_mul_ps(uz, vy));
        __m256 ny = _mm256_sub_ps(_mm256_mul_ps(uz, vx), _mm256_mul_ps(ux, vz));
        __m256 nz = _mm256_sub_ps(_mm256_mul_ps(ux, vy), _mm256_mul_ps(uy, vx));
        const __m256 sq = dot8(nx, ny, nz, nx, ny, nz);
        invalid = _mm256_or_ps(invalid, _mm256_cmp_ps(sq, min_sq, _CMP_LT_OQ));
        // normalized(): n / norm when norm > 0, else n unchanged.
        const __m256 norm = _mm256_sqrt_ps(sq);
        const __m256 scale = _mm256_cmp_ps(norm, zero, _CMP_GT_OQ);
        nx = _mm256_blendv_ps(nx, _mm256_div_ps(nx, norm), scale);
        ny = _mm256_blendv_ps(ny, _mm256_div_ps(ny, norm), scale);
        nz = _mm256_blendv_ps(nz, _mm256_div_ps(nz, norm), scale);
        // Orient toward the camera: negate where n.dot(center) > 0.
        const __m256 flip = _mm256_and_ps(
            sign, _mm256_cmp_ps(dot8(nx, ny, nz, cx, cy, cz), zero,
                                _CMP_GT_OQ));
        storeVec3x8(out + x,
                    _mm256_andnot_ps(invalid, _mm256_xor_ps(nx, flip)),
                    _mm256_andnot_ps(invalid, _mm256_xor_ps(ny, flip)),
                    _mm256_andnot_ps(invalid, _mm256_xor_ps(nz, flip)));
    }
    vertex2normalPixels(ctx, y, x, w);
}

const KernelBackend *
avx2Backend()
{
    static const Avx2Backend backend;
    return &backend;
}

} // namespace slambench::kfusion::detail

#else // !defined(__AVX2__)

#include "support/logging.hpp"

namespace slambench::kfusion::detail {

const KernelBackend *
avx2Backend()
{
    return nullptr;
}

// Callers check simdBackendIsAccelerated() first; this keeps the
// build linking.
void
expfAvx2(const float *, float *, size_t)
{
    support::fatal("expfAvx2: AVX2 not compiled in");
}

} // namespace slambench::kfusion::detail

#endif // defined(__AVX2__)
