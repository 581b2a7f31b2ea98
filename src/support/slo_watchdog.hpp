#ifndef SLAMBENCH_SUPPORT_SLO_WATCHDOG_HPP
#define SLAMBENCH_SUPPORT_SLO_WATCHDOG_HPP

/**
 * @file
 * Live service-level-objective watchdog plus the per-frame live
 * telemetry hook.
 *
 * The watchdog evaluates configurable thresholds — frame-time p99,
 * per-frame ATE, consecutive tracking failures, and thread-pool
 * queue stall — against live metric snapshots on every processed
 * frame. A breached SLO is latched: it flips /healthz (served by
 * support/telemetry_server.hpp) to 503, emits exactly one structured
 * Warn log line, bumps the `slo.breaches` counter, zeroes the
 * `slo.healthy` gauge, and records an SloBreach flight-recorder
 * event. Breaches stay latched until reset() so a scrape after the
 * incident still sees it.
 *
 * frameTick() is the single hook the frame loops call: it records
 * the `live.*` registry metrics, feeds the flight recorder, and runs
 * the watchdog. It is gated by liveTelemetry() — a single relaxed
 * atomic load when telemetry is off, keeping the frame loop
 * zero-cost for non-telemetry runs.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace slambench::support::telemetry {

/**
 * Threshold set for the watchdog. A threshold <= 0 disables that
 * check; the default-constructed set disables everything.
 */
struct SloThresholds
{
    /** Max acceptable live frame-time p99, seconds. */
    double frameP99Seconds = 0.0;
    /** Max acceptable per-frame ATE, meters. */
    double maxAteMeters = 0.0;
    /** Max acceptable consecutive tracking failures. */
    int64_t maxConsecutiveTrackingFailures = 0;
    /** Max time a non-empty pool queue may go without completing a
     *  task before it counts as stalled, seconds. */
    double poolQueueStallSeconds = 0.0;

    /** @return whether any threshold is active. */
    bool
    anyEnabled() const
    {
        return frameP99Seconds > 0.0 || maxAteMeters > 0.0 ||
               maxConsecutiveTrackingFailures > 0 ||
               poolQueueStallSeconds > 0.0;
    }

    /** @return whether a frame's wall time or ATE is above its
     *  threshold (the request tracer's tail-retention predicate). */
    bool
    frameBreached(double wallSeconds, double ateMeters) const
    {
        return (frameP99Seconds > 0.0 && wallSeconds > frameP99Seconds) ||
               (maxAteMeters > 0.0 && ateMeters > maxAteMeters);
    }
};

/** One latched SLO breach. */
struct SloBreach
{
    /** Stable breach identifier ("frame_p99_seconds", "ate_meters",
     *  "consecutive_tracking_failures", "pool_queue_stall"). */
    std::string slo;
    double value = 0.0; ///< Observed value at breach time.
    double limit = 0.0; ///< The configured threshold.
    uint64_t frame = 0; ///< Frame index at breach time.
    uint64_t ns = 0;    ///< Monotonic timestamp of the breach.
};

/**
 * Process-wide watchdog. configure() arms it; onFrame() /
 * checkPools() evaluate the thresholds; healthy() is the /healthz
 * verdict. Thread-safe; the hot-path guards are relaxed atomics.
 */
class SloWatchdog
{
  public:
    /** @return the process-wide watchdog. */
    static SloWatchdog &instance();

    SloWatchdog(const SloWatchdog &) = delete;
    SloWatchdog &operator=(const SloWatchdog &) = delete;

    /** Arm the watchdog with @p thresholds (replacing any previous
     *  set) and clear latched breaches. */
    void configure(const SloThresholds &thresholds);

    /** Disarm and clear latched breaches (tests, endpoint teardown). */
    void reset();

    /** @return whether any threshold is armed. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** @return a copy of the armed thresholds (all-disabled when the
     *  watchdog is not configured). The request tracer's tail
     *  retention compares each frame against these directly. */
    SloThresholds thresholds() const;

    /**
     * Evaluate the frame-scoped SLOs after one processed frame.
     *
     * @param frame Frame index.
     * @param ateMeters Live per-frame ATE, meters.
     * @param consecutiveFailures Current run of tracking failures.
     */
    void onFrame(uint64_t frame, double ateMeters,
                 int64_t consecutiveFailures);

    /**
     * Evaluate the pool-queue-stall SLO against every live
     * ThreadPool (queue non-empty and tasksExecuted() unchanged for
     * longer than the threshold). Called from frameTick(); cheap
     * when the stall threshold is disabled.
     *
     * @param frame Frame index attributed to a detected stall.
     */
    void checkPools(uint64_t frame);

    /** @return false once any SLO has been breached (latched). */
    bool
    healthy() const
    {
        return healthy_.load(std::memory_order_relaxed);
    }

    /** @return copies of all latched breaches, oldest first. */
    std::vector<SloBreach> breaches() const;

    /** @return the /healthz body: "ok\n" when healthy, else one
     *  "breach: ..." line per latched breach. */
    std::string healthzText() const;

  private:
    SloWatchdog() = default;

    /** Latch @p slo (once), log, count, and record the event. */
    void recordBreach(const char *slo, double value, double limit,
                      uint64_t frame);

    std::atomic<bool> enabled_{false};
    std::atomic<bool> healthy_{true};

    mutable std::mutex mutex_;
    SloThresholds thresholds_;
    std::vector<SloBreach> breaches_;
    /** Pool-stall bookkeeping, keyed by pool address. */
    struct PoolState
    {
        const void *pool = nullptr;
        uint64_t tasksExecuted = 0;
        uint64_t sinceNs = 0; ///< When this count was first seen.
    };
    std::vector<PoolState> poolStates_;
};

namespace detail {
/** Master gate for the per-frame live-telemetry hook. */
extern std::atomic<bool> g_live_telemetry;
} // namespace detail

/** @return whether frameTick() is armed (single relaxed load). */
inline bool
liveTelemetry()
{
    return detail::g_live_telemetry.load(std::memory_order_relaxed);
}

/** Arm / disarm the per-frame live-telemetry hook. */
void setLiveTelemetry(bool enabled);

/**
 * Per-frame live telemetry hook. Callers gate on liveTelemetry()
 * so disabled runs pay one relaxed load and no call.
 *
 * Records the `live.*` registry metrics (frame-time and ATE
 * histograms, frame/tracking-failure counters, last-value gauges),
 * appends Frame / TrackingFailure flight-recorder events, maintains
 * the consecutive-tracking-failure run length, and drives the SLO
 * watchdog (onFrame + checkPools).
 *
 * @param frame Frame index within the run.
 * @param wallSeconds Host wall time of the frame.
 * @param ateMeters Live per-frame ATE, meters (0 when no ground
 *        truth is available).
 * @param tracked Whether the pose was accepted by the gates.
 */
void frameTick(uint64_t frame, double wallSeconds, double ateMeters,
               bool tracked);

} // namespace slambench::support::telemetry

#endif // SLAMBENCH_SUPPORT_SLO_WATCHDOG_HPP
