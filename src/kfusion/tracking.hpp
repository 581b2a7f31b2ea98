#ifndef SLAMBENCH_KFUSION_TRACKING_HPP
#define SLAMBENCH_KFUSION_TRACKING_HPP

/**
 * @file
 * Frame-to-model ICP camera tracking (point-to-plane), the
 * KinectFusion tracking stage.
 *
 * Each iteration projects the live vertex map into the reference
 * (raycasted model) view, gates correspondences by distance and
 * normal agreement, accumulates the 6x6 Gauss-Newton normal
 * equations, and applies the se(3) twist that solves them.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "kfusion/config.hpp"
#include "kfusion/work_counters.hpp"
#include "math/camera.hpp"
#include "math/mat.hpp"
#include "math/vec.hpp"
#include "support/image.hpp"
#include "support/thread_pool.hpp"

namespace slambench::kfusion {

class KernelBackend;

/** Per-pixel correspondence outcome (mirrors KFusion's TrackData). */
enum class TrackResult : int8_t {
    Ok = 1,               ///< Valid correspondence found.
    NoInputVertex = -1,   ///< Live pixel has no depth.
    ProjectedOutside = -2,///< Projects outside the reference image.
    NoRefNormal = -3,     ///< Reference pixel has no normal.
    TooFar = -4,          ///< Distance gate failed.
    NormalMismatch = -5,  ///< Normal-agreement gate failed.
};

/** Per-pixel tracking record. */
struct TrackData
{
    TrackResult result = TrackResult::NoInputVertex;
    float error = 0.0f;          ///< Point-to-plane residual.
    std::array<float, 6> jacobian{}; ///< d(error)/d(twist).
};

/** Residual statistics of one ICP solve. */
struct TrackingStats
{
    bool tracked = false;     ///< Pose accepted by the gates.
    double rmse = 0.0;        ///< RMS point-to-plane residual, meters.
    double inlierFraction = 0.0; ///< Valid correspondences / pixels.
    int iterations = 0;       ///< Total ICP iterations executed.
};

/** Inputs the tracker needs per pyramid level. */
struct PyramidLevel
{
    support::Image<float> depth;
    support::Image<math::Vec3f> vertex;
    support::Image<math::Vec3f> normal;
    math::CameraIntrinsics intrinsics;
};

// --- The depth front end: preprocessing and the tracking pyramid ---
//
// KinectFusion and the odometry baseline run and charge these kernels
// through the functions below, so both systems do the same work for
// the same frame.

/**
 * @return @p levels pyramid levels for a compute image of intrinsics
 * @p finest, each half the size of the one before, with their
 * intrinsics set and their images empty.
 */
std::vector<PyramidLevel> makePyramid(
    const math::CameraIntrinsics &finest, size_t levels);

/**
 * The pyramid size rule: every one of @p levels levels of a compute
 * image of intrinsics @p finest is at least 4x4.
 *
 * @return an empty string when it holds, else the problem.
 */
std::string checkPyramidSize(const math::CameraIntrinsics &finest,
                             size_t levels);

/**
 * Depth preprocessing (span "preprocess"): mm2meters at
 * config.computeSizeRatio into @p raw_depth, then the bilateral
 * filter into pyramid[0].depth. Charged to Mm2Meters and
 * BilateralFilter.
 *
 * @param[out] raw_depth Metric depth at the compute size.
 * @param[in,out] pyramid Levels from makePyramid; level 0's depth
 *                is written.
 * @param depth_mm Sensor depth in millimeters.
 * @param config Compute-size ratio and bilateral parameters.
 * @param[in,out] work Work accounting.
 * @param pool Optional worker pool.
 * @param backend Kernel backend running the bilateral rows.
 */
void preprocessDepth(support::Image<float> &raw_depth,
                     std::vector<PyramidLevel> &pyramid,
                     const support::Image<uint16_t> &depth_mm,
                     const KFusionConfig &config, WorkCounts &work,
                     support::ThreadPool *pool,
                     const KernelBackend &backend);

/**
 * Build the tracking pyramid from pyramid[0].depth (span
 * "build_pyramid"): halfSample at config.eDelta * 3 down the levels,
 * then depth2vertex and vertex2normal on each. Charged to HalfSample,
 * Depth2Vertex and Vertex2Normal.
 *
 * @param[in,out] pyramid Levels from makePyramid, level 0's depth
 *                filled by preprocessDepth.
 * @param config Bilateral range sigma (eDelta).
 * @param[in,out] work Work accounting.
 * @param pool Optional worker pool.
 * @param backend Kernel backend running the normal rows.
 */
void buildPyramid(std::vector<PyramidLevel> &pyramid,
                  const KFusionConfig &config, WorkCounts &work,
                  support::ThreadPool *pool,
                  const KernelBackend &backend);

/**
 * Multi-level ICP aligning the live pyramid to the reference model
 * maps (raycasted vertex/normal at the reference pose).
 *
 * @param[in,out] pose Camera-to-world estimate; updated in place.
 * @param live Pyramid of the current frame (level 0 = finest).
 * @param ref_vertex Model vertex map (world frame) at level-0 size.
 * @param ref_normal Model normal map (world frame) at level-0 size.
 * @param ref_intrinsics Intrinsics of the reference maps.
 * @param ref_pose Camera-to-world pose the reference maps were
 *                 raycast from.
 * @param config Gates, per-level iterations, convergence threshold.
 * @param[in,out] counts Work accounting (Track/Reduce/Solve).
 * @param pool Optional worker pool.
 * @param backend Kernel backend running the track rows and the
 *                reduction.
 * @param[in,out] track_data Buffer every iteration tracks into (see
 *             trackKernel); afterwards it holds the per-pixel records
 *             of the last executed iteration (GUI pane), and is
 *             untouched when no iteration ran.
 * @return residual statistics and whether the pose was accepted.
 */
TrackingStats icpTrack(math::Mat4f &pose,
                       const std::vector<PyramidLevel> &live,
                       const support::Image<math::Vec3f> &ref_vertex,
                       const support::Image<math::Vec3f> &ref_normal,
                       const math::CameraIntrinsics &ref_intrinsics,
                       const math::Mat4f &ref_pose,
                       const KFusionConfig &config, WorkCounts &counts,
                       support::ThreadPool *pool,
                       const KernelBackend &backend,
                       support::Image<TrackData> &track_data);

/**
 * One correspondence+residual evaluation over a full image (exposed
 * separately for unit tests and the point-to-point ablation).
 *
 * @param[in,out] track_data Per-pixel records, sized like
 *             live_vertex (resized, and so cleared, only when its
 *             size differs). Every result is written; a record whose
 *             result is not Ok keeps the error and jacobian it held.
 * @param live_vertex Live vertex map (camera frame).
 * @param live_normal Live normal map (camera frame).
 * @param pose Current camera-to-world estimate.
 * @param ref_vertex Reference vertex map (world frame).
 * @param ref_normal Reference normal map (world frame).
 * @param ref_intrinsics Intrinsics of the reference maps.
 * @param ref_pose Reference camera pose (camera-to-world).
 * @param dist_threshold Distance gate, meters.
 * @param normal_threshold Normal-agreement gate, cosine.
 * @param pool Optional worker pool.
 * @param backend Kernel backend tracking each row.
 * @param residual Residual formulation: point-to-plane projects the
 *                 correspondence difference onto the reference
 *                 normal; point-to-point projects it onto its own
 *                 direction (classic ICP distance, linearized).
 */
void trackKernel(support::Image<TrackData> &track_data,
                 const support::Image<math::Vec3f> &live_vertex,
                 const support::Image<math::Vec3f> &live_normal,
                 const math::Mat4f &pose,
                 const support::Image<math::Vec3f> &ref_vertex,
                 const support::Image<math::Vec3f> &ref_normal,
                 const math::CameraIntrinsics &ref_intrinsics,
                 const math::Mat4f &ref_pose, float dist_threshold,
                 float normal_threshold, support::ThreadPool *pool,
                 const KernelBackend &backend,
                 IcpResidual residual = IcpResidual::PointToPlane);

/**
 * Inputs and output of one trackKernel call (its loop invariants),
 * as trackKernel hands them to KernelBackend::trackRow.
 */
struct TrackContext
{
    TrackData *out = nullptr;              ///< Per-pixel records.
    const math::Vec3f *liveVertex = nullptr; ///< Camera frame.
    const math::Vec3f *liveNormal = nullptr; ///< Camera frame.
    size_t width = 0;  ///< Live image width, pixels.
    size_t height = 0; ///< Live image height, pixels.
    math::Mat4f pose;       ///< Current camera-to-world estimate.
    math::Mat4f worldToRef; ///< Inverse of the reference pose.
    const math::Vec3f *refVertex = nullptr; ///< World frame.
    const math::Vec3f *refNormal = nullptr; ///< World frame.
    size_t refWidth = 0;  ///< Reference image width, pixels.
    size_t refHeight = 0; ///< Reference image height, pixels.
    math::CameraIntrinsics refIntrinsics; ///< Of the reference maps.
    float distThreshold = 0.1f;   ///< Distance gate, meters.
    float normalThreshold = 0.8f; ///< Normal-agreement gate, cosine.
    IcpResidual residual = IcpResidual::PointToPlane;
};

/**
 * The reference track body: pixels [@p x_begin, @p x_end) of live row
 * @p y. A pixel whose result is not Ok gets only its result written;
 * its error and jacobian keep whatever they held. Every backend's row
 * must match it bit for bit, those untouched fields included.
 */
void trackPixels(const TrackContext &ctx, size_t y, size_t x_begin,
                 size_t x_end);

/** Reduction output: J^T J (upper triangle), J^T e, error, count. */
struct ReductionResult
{
    std::array<double, 21> jtj{}; ///< Upper triangle, row-major.
    std::array<double, 6> jte{};
    double errorSq = 0.0;
    size_t validCount = 0;
    size_t pixelCount = 0;
};

/**
 * Sum the normal equations over all valid pixels of @p track_data.
 *
 * @param track_data Per-pixel records from trackKernel.
 * @param pool Optional worker pool (chunked partial sums).
 * @param backend Kernel backend running each chunk's reduction.
 */
ReductionResult reduceKernel(const support::Image<TrackData> &track_data,
                             support::ThreadPool *pool,
                             const KernelBackend &backend);

/**
 * Solve the reduced system and left-multiply the pose by exp(twist).
 *
 * @param[in,out] pose Camera-to-world estimate.
 * @param reduction Accumulated normal equations.
 * @param[out] twist_norm Norm of the applied twist.
 * @return false when the system was singular (pose unchanged).
 */
bool updatePose(math::Mat4f &pose, const ReductionResult &reduction,
                double &twist_norm);

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_TRACKING_HPP
