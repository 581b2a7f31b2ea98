#ifndef SLAMBENCH_SERVE_SESSION_HPP
#define SLAMBENCH_SERVE_SESSION_HPP

/**
 * @file
 * One tenant of the multi-session SLAM service: an independent
 * KinectFusion pipeline fed by a simulated device stream (fleet
 * device model x procedural dataset generator).
 *
 * A TenantSession owns everything one client of `slambench_serve`
 * needs — the generated RGB-D sequence, the SLAM system, the device
 * model that converts per-frame WorkCounts into simulated
 * device-side time/energy, and the per-tenant labeled registry
 * metrics (`serve.tenant.*{tenant="<id>"}`, rendered with per-tenant
 * labels on /metrics by the telemetry server's labeled-name support).
 *
 * Sessions are single-threaded consumers: processNext() must not be
 * called concurrently for the same session. The StreamScheduler
 * guarantees this by submitting at most one frame task per session
 * per tick.
 */

#include <cstdint>
#include <memory>
#include <string>

#include "core/slam_system.hpp"
#include "dataset/generator.hpp"
#include "devices/device_model.hpp"
#include "kfusion/config.hpp"
#include "support/metrics.hpp"

namespace slambench::serve {

/** Everything needed to stand up one tenant. */
struct TenantConfig
{
    /** Stable tenant identifier; becomes the `tenant` label value on
     *  /metrics and the per-frame label in run reports. */
    std::string id = "t00";

    /** Device this tenant's stream is simulated on. */
    devices::DeviceModel device;

    /** The tenant's input stream (rendered once at construction). */
    dataset::SequenceSpec sequence;

    /** Algorithmic configuration of the tenant's pipeline. */
    kfusion::KFusionConfig kfusion;
};

/** Outcome of one tenant frame. */
struct TenantFrameStats
{
    /** Tenant-local frame index (monotonic across stream wraps). */
    uint64_t frame = 0;
    /** Host wall time of the frame, seconds. */
    double wallSeconds = 0.0;
    /** Simulated device-side time of the frame's work, seconds. */
    double deviceSeconds = 0.0;
    /** Simulated device energy of the frame, joules. */
    double deviceJoules = 0.0;
};

/**
 * One tenant: stream + pipeline + device model + labeled metrics.
 */
class TenantSession
{
  public:
    /**
     * Generate the tenant's sequence and construct its pipeline.
     * The pipeline starts at the sequence's ground-truth initial
     * pose (the SLAMBench protocol).
     */
    explicit TenantSession(const TenantConfig &config);

    TenantSession(const TenantSession &) = delete;
    TenantSession &operator=(const TenantSession &) = delete;

    /** @return the tenant identifier. */
    const std::string &id() const { return config_.id; }

    /** @return the device this tenant streams from. */
    const devices::DeviceModel &device() const
    {
        return config_.device;
    }

    /**
     * Process the tenant's next stream frame through its pipeline.
     * When the stream is exhausted it wraps: the pipeline is
     * re-initialized from ground truth (a fresh session epoch, like
     * a client reconnecting), so the service can run indefinitely on
     * a finite rendered sequence. Updates the per-tenant metrics and
     * finishes the frame with core::completeFrame().
     *
     * Not thread-safe per session; the scheduler serializes calls.
     *
     * @param liveFrame Service-wide index for the live-telemetry hook.
     * @param row Frame-table row to fill (nullptr: none).
     */
    TenantFrameStats
    processNext(uint64_t liveFrame,
                support::metrics::FrameTelemetry *row = nullptr);

    /**
     * Count one shed (dropped) frame against this tenant — called by
     * the scheduler instead of processNext() while load shedding has
     * this tenant's stream paused.
     */
    void noteShed();

    /** @return frames processed (excludes shed frames). */
    uint64_t framesProcessed() const { return framesProcessed_; }

    /** @return frames shed by admission control. */
    uint64_t framesShed() const { return framesShed_; }

    /** @return stream wraps (pipeline re-initializations). */
    uint64_t epochs() const { return epochs_; }

    /** @return number of frames in the rendered stream. */
    size_t streamLength() const { return sequence_.frames.size(); }

    /**
     * @return resident bytes of this tenant's TSDF volume after the
     * last processed frame (constant for the dense backend, growing
     * with the observed surface for sparse). Published on /metrics as
     * `serve.tenant.volume_bytes{tenant="<id>"}`; the scheduler feeds
     * the per-tick peak to the admission controller's
     * maxTenantVolumeBytes bound.
     */
    uint64_t volumeBytes() const { return volumeBytes_; }

  private:
    TenantConfig config_;
    dataset::Sequence sequence_;
    std::unique_ptr<core::KFusionSystem> system_;

    size_t cursor_ = 0; ///< Next stream frame to feed.
    uint64_t framesProcessed_ = 0;
    uint64_t framesShed_ = 0;
    uint64_t epochs_ = 0;
    uint64_t volumeBytes_ = 0;

    /** Registry name of the tenant's frame-latency histogram. */
    std::string frameSecondsName_;

    // Cached per-tenant labeled registry handles (stable for the
    // process lifetime, like all Registry references).
    support::metrics::Counter &framesCounter_;
    support::metrics::Counter &shedCounter_;
    support::metrics::Counter &epochsCounter_;
    support::metrics::Counter &trackingFailuresCounter_;
    support::metrics::LatencyHistogram &frameSecondsHistogram_;
    support::metrics::LatencyHistogram &deviceSecondsHistogram_;
    support::metrics::Gauge &lastAteGauge_;
    support::metrics::Gauge &volumeBytesGauge_;
};

} // namespace slambench::serve

#endif // SLAMBENCH_SERVE_SESSION_HPP
