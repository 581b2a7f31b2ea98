#include "kfusion/tracking.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kfusion/backend.hpp"
#include "kfusion/kernels.hpp"
#include "math/se3.hpp"
#include "math/solve.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

using math::Mat4f;
using math::Vec3f;

namespace {

/** @return a static span name for pyramid level @p li. */
const char *
icpLevelSpanName(size_t li)
{
    switch (li) {
      case 0: return "icp_level_0";
      case 1: return "icp_level_1";
      case 2: return "icp_level_2";
      case 3: return "icp_level_3";
      default: return "icp_level_n";
    }
}

} // namespace

std::vector<PyramidLevel>
makePyramid(const math::CameraIntrinsics &finest, size_t levels)
{
    std::vector<PyramidLevel> pyramid(levels);
    math::CameraIntrinsics level_k = finest;
    for (PyramidLevel &level : pyramid) {
        level.intrinsics = level_k;
        level_k = level_k.scaled(2);
    }
    return pyramid;
}

std::string
checkPyramidSize(const math::CameraIntrinsics &finest, size_t levels)
{
    for (const PyramidLevel &level : makePyramid(finest, levels)) {
        if (level.intrinsics.width < 4 || level.intrinsics.height < 4)
            return "too many pyramid levels for the compute image "
                   "size";
    }
    return "";
}

void
preprocessDepth(support::Image<float> &raw_depth,
                std::vector<PyramidLevel> &pyramid,
                const support::Image<uint16_t> &depth_mm,
                const KFusionConfig &config, WorkCounts &work,
                support::ThreadPool *pool, const KernelBackend &backend)
{
    TRACE_SCOPE("preprocess");
    {
        KernelTimer timer(work, KernelId::Mm2Meters);
        mm2metersKernel(raw_depth, depth_mm, config.computeSizeRatio,
                        pool);
        work.addItems(KernelId::Mm2Meters,
                      static_cast<double>(raw_depth.size()));
        work.addBytes(KernelId::Mm2Meters,
                      static_cast<double>(raw_depth.size()) * 6.0);
    }
    {
        KernelTimer timer(work, KernelId::BilateralFilter);
        bilateralFilterKernel(pyramid[0].depth, raw_depth,
                              config.filterRadius, config.gaussianDelta,
                              config.eDelta, pool, backend);
        const double per_pixel =
            bilateralItemsPerPixel(config.filterRadius);
        work.addItems(KernelId::BilateralFilter,
                      static_cast<double>(pyramid[0].depth.size()) *
                          per_pixel);
        work.addBytes(KernelId::BilateralFilter,
                      static_cast<double>(pyramid[0].depth.size()) *
                          (per_pixel * 4.0 + 4.0));
    }
}

void
buildPyramid(std::vector<PyramidLevel> &pyramid,
             const KFusionConfig &config, WorkCounts &work,
             support::ThreadPool *pool, const KernelBackend &backend)
{
    TRACE_SCOPE("build_pyramid");
    for (size_t l = 1; l < pyramid.size(); ++l) {
        KernelTimer timer(work, KernelId::HalfSample);
        halfSampleRobustKernel(pyramid[l].depth, pyramid[l - 1].depth,
                               config.eDelta * 3.0f, pool);
        work.addItems(KernelId::HalfSample,
                      static_cast<double>(pyramid[l].depth.size()));
        work.addBytes(KernelId::HalfSample,
                      static_cast<double>(pyramid[l].depth.size()) *
                          20.0);
    }
    for (PyramidLevel &level : pyramid) {
        {
            KernelTimer timer(work, KernelId::Depth2Vertex);
            depth2vertexKernel(level.vertex, level.depth,
                               level.intrinsics, pool);
            work.addItems(KernelId::Depth2Vertex,
                          static_cast<double>(level.vertex.size()));
            work.addBytes(KernelId::Depth2Vertex,
                          static_cast<double>(level.vertex.size()) *
                              16.0);
        }
        {
            KernelTimer timer(work, KernelId::Vertex2Normal);
            vertex2normalKernel(level.normal, level.vertex, pool,
                                backend);
            work.addItems(KernelId::Vertex2Normal,
                          static_cast<double>(level.normal.size()));
            work.addBytes(KernelId::Vertex2Normal,
                          static_cast<double>(level.normal.size()) *
                              48.0);
        }
    }
}

void
trackPixels(const TrackContext &ctx, size_t y, size_t x_begin,
            size_t x_end)
{
    for (size_t x = x_begin; x < x_end; ++x) {
        const size_t i = y * ctx.width + x;
        TrackData &row = ctx.out[i];
        const Vec3f &in_vertex = ctx.liveVertex[i];
        const Vec3f &in_normal = ctx.liveNormal[i];
        if (in_vertex.squaredNorm() == 0.0f ||
            in_normal.squaredNorm() == 0.0f) {
            row.result = TrackResult::NoInputVertex;
            continue;
        }

        const Vec3f world_vertex = ctx.pose.transformPoint(in_vertex);
        const Vec3f ref_cam = ctx.worldToRef.transformPoint(world_vertex);
        if (ref_cam.z <= 0.0f) {
            row.result = TrackResult::ProjectedOutside;
            continue;
        }
        const math::Vec2f pix = ctx.refIntrinsics.project(ref_cam);
        const int px = static_cast<int>(pix.x);
        const int py = static_cast<int>(pix.y);
        if (px < 0 || py < 0 || px >= static_cast<int>(ctx.refWidth) ||
            py >= static_cast<int>(ctx.refHeight)) {
            row.result = TrackResult::ProjectedOutside;
            continue;
        }

        const size_t ref = static_cast<size_t>(py) * ctx.refWidth +
                           static_cast<size_t>(px);
        const Vec3f &r_normal = ctx.refNormal[ref];
        if (r_normal.squaredNorm() == 0.0f) {
            row.result = TrackResult::NoRefNormal;
            continue;
        }
        const Vec3f &r_vertex = ctx.refVertex[ref];

        const Vec3f diff = r_vertex - world_vertex;
        if (diff.norm() > ctx.distThreshold) {
            row.result = TrackResult::TooFar;
            continue;
        }
        const Vec3f world_normal = ctx.pose.transformDir(in_normal);
        if (world_normal.dot(r_normal) < ctx.normalThreshold) {
            row.result = TrackResult::NormalMismatch;
            continue;
        }

        row.result = TrackResult::Ok;
        // Point-to-plane projects the correspondence difference onto
        // the reference normal. Point-to-point minimizes the full 3D
        // difference; its three component residuals are round-robined
        // across pixels so the scalar reduction sees an (evenly
        // subsampled) full-rank system.
        Vec3f direction = r_normal;
        if (ctx.residual == IcpResidual::PointToPoint) {
            const size_t axis = (x + y) % 3;
            direction = Vec3f{};
            direction[axis] = 1.0f;
        }
        row.error = direction.dot(diff);
        const Vec3f jw = world_vertex.cross(direction);
        row.jacobian = {direction.x, direction.y, direction.z,
                        jw.x, jw.y, jw.z};
    }
}

void
trackKernel(support::Image<TrackData> &track_data,
            const support::Image<Vec3f> &live_vertex,
            const support::Image<Vec3f> &live_normal,
            const Mat4f &pose, const support::Image<Vec3f> &ref_vertex,
            const support::Image<Vec3f> &ref_normal,
            const math::CameraIntrinsics &ref_intrinsics,
            const Mat4f &ref_pose, float dist_threshold,
            float normal_threshold, support::ThreadPool *pool,
            const KernelBackend &backend, IcpResidual residual)
{
    const size_t w = live_vertex.width();
    const size_t h = live_vertex.height();
    // Every record gets its result below, so a buffer of the right
    // size (icpTrack's, from the previous iteration) is not cleared.
    track_data.sizeForOverwrite(w, h);

    TrackContext ctx;
    ctx.out = track_data.data();
    ctx.liveVertex = live_vertex.data();
    ctx.liveNormal = live_normal.data();
    ctx.width = w;
    ctx.height = h;
    ctx.pose = pose;
    ctx.worldToRef = ref_pose.rigidInverse();
    ctx.refVertex = ref_vertex.data();
    ctx.refNormal = ref_normal.data();
    ctx.refWidth = ref_vertex.width();
    ctx.refHeight = ref_vertex.height();
    ctx.refIntrinsics = ref_intrinsics;
    ctx.distThreshold = dist_threshold;
    ctx.normalThreshold = normal_threshold;
    ctx.residual = residual;
    auto process_row = [&](size_t y) { backend.trackRow(ctx, y); };

    if (pool) {
        pool->parallelFor(0, h, process_row);
    } else {
        for (size_t y = 0; y < h; ++y)
            process_row(y);
    }
}

ReductionResult
reduceKernel(const support::Image<TrackData> &track_data,
             support::ThreadPool *pool, const KernelBackend &backend)
{
    // The reduction is associative; compute per-chunk partials and
    // merge. The sequential path is a single chunk. The per-chunk
    // body lives in the kernel backend (the scalar backend carries
    // the original reduce_range loop).
    auto reduce_range = [&](size_t begin,
                            size_t end) -> ReductionResult {
        return backend.reduceRange(track_data, begin, end);
    };

    ReductionResult total;
    total.pixelCount = track_data.size();

    if (pool && track_data.size() > 4096) {
        const size_t chunks = pool->numThreads() * 2;
        const size_t n = track_data.size();
        std::vector<ReductionResult> partials(chunks);
        pool->parallelFor(0, chunks, [&](size_t c) {
            const size_t begin = n * c / chunks;
            const size_t end = n * (c + 1) / chunks;
            partials[c] = reduce_range(begin, end);
        });
        for (const ReductionResult &p : partials) {
            total.validCount += p.validCount;
            total.errorSq += p.errorSq;
            for (size_t i = 0; i < total.jtj.size(); ++i)
                total.jtj[i] += p.jtj[i];
            for (size_t i = 0; i < total.jte.size(); ++i)
                total.jte[i] += p.jte[i];
        }
    } else {
        const ReductionResult p = reduce_range(0, track_data.size());
        total.validCount = p.validCount;
        total.errorSq = p.errorSq;
        total.jtj = p.jtj;
        total.jte = p.jte;
    }
    return total;
}

bool
updatePose(Mat4f &pose, const ReductionResult &reduction,
           double &twist_norm)
{
    twist_norm = 0.0;
    if (reduction.validCount < 6)
        return false;

    // Expand the packed upper triangle into a full symmetric matrix.
    std::array<double, 36> a{};
    size_t t = 0;
    for (int r = 0; r < 6; ++r) {
        for (int c = r; c < 6; ++c, ++t) {
            a[static_cast<size_t>(r * 6 + c)] = reduction.jtj[t];
            a[static_cast<size_t>(c * 6 + r)] = reduction.jtj[t];
        }
    }

    std::array<double, 6> x{};
    if (!math::solveLdlt6(a, reduction.jte, x)) {
        // Rank-deficient system (e.g. point-to-point residuals with
        // a single correspondence direction): retry with Levenberg
        // damping, which steps along the observable subspace only.
        double trace = 0.0;
        for (int i = 0; i < 6; ++i)
            trace += a[static_cast<size_t>(i * 7)];
        bool solved = false;
        double lambda = std::max(1e-9, 1e-6 * trace);
        for (int attempt = 0; attempt < 8 && !solved; ++attempt) {
            std::array<double, 36> damped = a;
            for (int i = 0; i < 6; ++i)
                damped[static_cast<size_t>(i * 7)] += lambda;
            solved = math::solveLdlt6(damped, reduction.jte, x);
            lambda *= 10.0;
        }
        if (!solved)
            return false;
    }

    const math::Vec3d v{x[0], x[1], x[2]};
    const math::Vec3d w{x[3], x[4], x[5]};
    twist_norm = std::sqrt(v.squaredNorm() + w.squaredNorm());

    const math::Mat4d delta = math::expSe3(v, w);
    pose = (delta.cast<float>() * pose);
    return true;
}

TrackingStats
icpTrack(Mat4f &pose, const std::vector<PyramidLevel> &live,
         const support::Image<Vec3f> &ref_vertex,
         const support::Image<Vec3f> &ref_normal,
         const math::CameraIntrinsics &ref_intrinsics,
         const Mat4f &ref_pose, const KFusionConfig &config,
         WorkCounts &counts, support::ThreadPool *pool,
         const KernelBackend &backend,
         support::Image<TrackData> &track_data)
{
    TRACE_SCOPE("icp_track");
    TrackingStats stats;
    if (live.empty())
        support::panic("icpTrack: empty pyramid");

    const Mat4f old_pose = pose;
    ReductionResult last_reduction;
    bool have_reduction = false;

    // Coarse-to-fine schedule.
    for (size_t li = live.size(); li-- > 0;) {
        TRACE_SCOPE(icpLevelSpanName(li));
        const PyramidLevel &level = live[li];
        const int iterations =
            config.pyramidIterations[li];
        for (int iter = 0; iter < iterations; ++iter) {
            {
                KernelTimer timer(counts, KernelId::Track);
                trackKernel(track_data, level.vertex, level.normal,
                            pose, ref_vertex, ref_normal,
                            ref_intrinsics, ref_pose,
                            config.distThreshold,
                            config.normalThreshold, pool, backend,
                            config.icpResidual);
                counts.addItems(
                    KernelId::Track,
                    static_cast<double>(level.vertex.size()));
                counts.addBytes(
                    KernelId::Track,
                    static_cast<double>(level.vertex.size()) * 80.0);
            }
            ReductionResult reduction;
            {
                KernelTimer timer(counts, KernelId::Reduce);
                reduction = reduceKernel(track_data, pool, backend);
                counts.addItems(
                    KernelId::Reduce,
                    static_cast<double>(track_data.size()));
                counts.addBytes(
                    KernelId::Reduce,
                    static_cast<double>(track_data.size()) * 32.0);
            }
            last_reduction = reduction;
            have_reduction = true;
            ++stats.iterations;

            double twist_norm = 0.0;
            bool solved;
            {
                KernelTimer timer(counts, KernelId::Solve);
                solved = updatePose(pose, reduction, twist_norm);
                counts.addItems(KernelId::Solve, 1.0);
                counts.addBytes(KernelId::Solve, 512.0);
            }
            if (!solved)
                break;
            if (twist_norm < config.icpThreshold)
                break;
        }
    }
    TRACE_COUNTER("icp_iterations", stats.iterations);
    static support::metrics::Counter &iterations_counter =
        support::metrics::Registry::instance().counter(
            "tracking.icp_iterations");
    iterations_counter.add(
        static_cast<uint64_t>(std::max(stats.iterations, 0)));

    if (!have_reduction) {
        // No iterations configured: keep the prior pose, report it
        // as tracked so the pipeline can continue (open-loop mode).
        stats.tracked = true;
        return stats;
    }

    stats.inlierFraction =
        last_reduction.pixelCount
            ? static_cast<double>(last_reduction.validCount) /
                  static_cast<double>(last_reduction.pixelCount)
            : 0.0;
    stats.rmse =
        last_reduction.validCount
            ? std::sqrt(last_reduction.errorSq /
                        static_cast<double>(last_reduction.validCount))
            : std::numeric_limits<double>::infinity();

    // Pose acceptance gates (KFusion's checkPoseKernel).
    if (stats.rmse > config.trackResidualLimit ||
        stats.inlierFraction < config.trackInlierFraction) {
        pose = old_pose;
        stats.tracked = false;
        static support::metrics::Counter &rejections_counter =
            support::metrics::Registry::instance().counter(
                "tracking.pose_rejections");
        rejections_counter.add(1);
    } else {
        stats.tracked = true;
    }
    return stats;
}

} // namespace slambench::kfusion
