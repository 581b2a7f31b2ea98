#include "serve/session.hpp"

#include <chrono>

#include "core/benchmark.hpp"
#include "support/logging.hpp"
#include "support/telemetry_server.hpp"

namespace slambench::serve {

namespace {

using support::metrics::Registry;
using support::telemetry::labeledMetricName;

/** Shorthand for the per-tenant labeled registry names. */
std::string
tenantMetric(const char *family, const std::string &tenant)
{
    return labeledMetricName(family, "tenant", tenant);
}

/** @return resident bytes of the pipeline's volume, dense or sparse. */
uint64_t
residentBytes(const kfusion::KFusion &pipeline)
{
    return std::visit(
        [](const auto &volume) { return volume.memoryStats().bytes; },
        pipeline.volume());
}

} // namespace

TenantSession::TenantSession(const TenantConfig &config)
    : config_(config),
      sequence_(dataset::generateSequence(config.sequence)),
      frameSecondsName_(
          tenantMetric("serve.tenant.frame_seconds", config.id)),
      framesCounter_(Registry::instance().counter(
          tenantMetric("serve.tenant.frames", config.id))),
      shedCounter_(Registry::instance().counter(
          tenantMetric("serve.tenant.shed", config.id))),
      epochsCounter_(Registry::instance().counter(
          tenantMetric("serve.tenant.epochs", config.id))),
      trackingFailuresCounter_(Registry::instance().counter(
          tenantMetric("serve.tenant.tracking_failures", config.id))),
      frameSecondsHistogram_(
          Registry::instance().histogram(frameSecondsName_)),
      deviceSecondsHistogram_(Registry::instance().histogram(
          tenantMetric("serve.tenant.device_seconds", config.id))),
      lastAteGauge_(Registry::instance().gauge(
          tenantMetric("serve.tenant.last_ate_m", config.id))),
      volumeBytesGauge_(Registry::instance().gauge(
          tenantMetric("serve.tenant.volume_bytes", config.id)))
{
    if (sequence_.frames.empty())
        support::fatal("TenantSession: tenant '" + config_.id +
                       "' generated an empty sequence");
    // Sequential per tenant: the serve layer's parallelism axis is
    // across tenants on the shared scheduler pool, not within one
    // tenant's kernels.
    system_ = std::make_unique<core::KFusionSystem>(
        config_.kfusion, kfusion::Implementation::Sequential);
    system_->initialize(sequence_.intrinsics,
                        sequence_.groundTruth.pose(0));
    epochs_ = 1;
    epochsCounter_.add();
    volumeBytes_ = residentBytes(system_->pipeline());
    volumeBytesGauge_.set(static_cast<double>(volumeBytes_));
}

TenantFrameStats
TenantSession::processNext(uint64_t liveFrame,
                           support::metrics::FrameTelemetry *row)
{
    if (cursor_ >= sequence_.frames.size()) {
        // Stream wrap: a fresh session epoch on the same stream, as
        // if the client reconnected — fresh volume, ground-truth
        // starting pose, cursor back to frame 0.
        cursor_ = 0;
        system_ = std::make_unique<core::KFusionSystem>(
            config_.kfusion, kfusion::Implementation::Sequential);
        system_->initialize(sequence_.intrinsics,
                            sequence_.groundTruth.pose(0));
        ++epochs_;
        epochsCounter_.add();
    }

    const size_t stream_index = cursor_++;
    const auto start = std::chrono::steady_clock::now();
    const bool tracked =
        system_->processFrame(sequence_.frames[stream_index]);
    const auto end = std::chrono::steady_clock::now();

    TenantFrameStats stats;
    stats.frame = framesProcessed_++;
    stats.wallSeconds =
        std::chrono::duration<double>(end - start).count();
    const kfusion::WorkCounts &work = system_->frameWork().back();
    stats.deviceSeconds = config_.device.frameSeconds(work);
    stats.deviceJoules = config_.device.frameJoules(work);

    framesCounter_.add();
    if (!tracked) {
        trackingFailuresCounter_.add();
        support::logWarn()
            << "serve: tenant " << config_.id
            << " tracking failure at frame " << stats.frame;
    }
    frameSecondsHistogram_.record(stats.wallSeconds);
    deviceSecondsHistogram_.record(stats.deviceSeconds);
    volumeBytes_ = residentBytes(system_->pipeline());
    volumeBytesGauge_.set(static_cast<double>(volumeBytes_));

    // The request-trace context completeFrame() finishes was
    // installed by the pool from the scheduler's submission. Serve
    // adds top-bucket retention, and a retained trace becomes the
    // exemplar of the tenant's frame-latency histogram.
    core::FrameOutcome outcome;
    outcome.frame = stats.frame;
    outcome.liveFrame = liveFrame;
    outcome.label = config_.id;
    outcome.wallSeconds = stats.wallSeconds;
    outcome.tracked = tracked;
    outcome.estimatedPose = system_->currentPose();
    if (stream_index < sequence_.groundTruth.size())
        outcome.groundTruthPose =
            &sequence_.groundTruth.pose(stream_index);
    outcome.work = &work;
    outcome.simJoules = stats.deviceJoules;
    outcome.simSeconds = stats.deviceSeconds;
    outcome.latencyHistogram = &frameSecondsHistogram_;
    outcome.exemplarMetric = &frameSecondsName_;
    lastAteGauge_.set(core::completeFrame(outcome, row));
    return stats;
}

void
TenantSession::noteShed()
{
    ++framesShed_;
    shedCounter_.add();
}

} // namespace slambench::serve
