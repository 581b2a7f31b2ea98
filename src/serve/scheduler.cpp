#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "support/logging.hpp"
#include "support/slo_watchdog.hpp"
#include "support/trace.hpp"

namespace slambench::serve {

namespace {

using support::metrics::Registry;

/** p99 by nearest-rank over a scratch copy of @p samples. */
double
p99Of(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t rank = static_cast<size_t>(
        0.99 * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(rank, samples.size() - 1)];
}

} // namespace

StreamScheduler::StreamScheduler(
    std::vector<std::unique_ptr<TenantSession>> sessions,
    const SchedulerOptions &options)
    : sessions_(std::move(sessions)), options_(options),
      pool_(std::make_unique<support::ThreadPool>(options.threads)),
      admission_(options.admission),
      aggregateFrameSeconds_(Registry::instance().histogram(
          "serve.frame_seconds"))
{
    if (sessions_.empty())
        support::fatal("StreamScheduler: no tenant sessions");
    Registry::instance().gauge("serve.tenants").set(
        static_cast<double>(sessions_.size()));
    if (options_.monitorPeriodMs < 1)
        options_.monitorPeriodMs = 1;
    monitor_ = std::thread([this] { monitorLoop(); });
}

StreamScheduler::~StreamScheduler()
{
    monitorStop_.store(true, std::memory_order_relaxed);
    if (monitor_.joinable())
        monitor_.join();
}

void
StreamScheduler::monitorLoop()
{
    auto &watchdog = support::telemetry::SloWatchdog::instance();
    auto &peak_gauge =
        Registry::instance().gauge("serve.tick.peak_queue_depth");
    while (!monitorStop_.load(std::memory_order_relaxed)) {
        const size_t depth = pool_->queueDepth();
        size_t peak = peakQueueDepth_.load(std::memory_order_relaxed);
        while (depth > peak &&
               !peakQueueDepth_.compare_exchange_weak(
                   peak, depth, std::memory_order_relaxed))
            ;
        peak_gauge.setMax(static_cast<double>(depth));
        // Stall detection must live here: during a stall no frame
        // completes, so the per-frame frameTick() hook (the usual
        // checkPools caller) never runs.
        watchdog.checkPools(
            globalFrame_.load(std::memory_order_relaxed));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.monitorPeriodMs));
    }
}

TickReport
StreamScheduler::runTick(support::metrics::RunSession *session)
{
    auto &registry = Registry::instance();
    static auto &ticks_counter = registry.counter("serve.ticks");
    static auto &frames_counter = registry.counter("serve.frames");
    static auto &shed_counter = registry.counter("serve.frames_shed");
    static auto &shedding_gauge = registry.gauge("serve.shedding");
    static auto &engages_counter =
        registry.counter("serve.shed_engaged");
    static auto &clears_counter =
        registry.counter("serve.shed_cleared");

    TickReport report;
    report.tick = ++tick_;
    ticks_counter.add();

    peakQueueDepth_.store(0, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(tickMutex_);
        tickWallSeconds_.clear();
    }

    support::ThreadPool::TaskGroup group;

    if (options_.stallAtTick != 0 &&
        report.tick == options_.stallAtTick &&
        options_.stallMs > 0.0) {
        // One blocker per runner (workers + the waiting scheduler
        // thread): every runner sleeps, so this tick's frame tasks
        // sit queued for stallMs — a real queue stall, visible to the
        // monitor and (past the --slo threshold) the watchdog.
        const size_t runners = pool_->numThreads() + 1;
        const auto sleep_ms = options_.stallMs;
        support::logWarn()
            << "serve: injecting " << runners << " blocker tasks of "
            << sleep_ms << " ms at tick " << report.tick;
        for (size_t i = 0; i < runners; ++i) {
            pool_->submit(group, [sleep_ms] {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        sleep_ms));
            });
        }
    }

    // Admission: while shedding, pause a rotating half of the
    // tenants this tick. Rotation keeps every stream advancing (no
    // tenant starves); halving the batch lets the queue drain.
    const bool shed_now = admission_.shedding();
    const size_t n = sessions_.size();
    const size_t admitted_count =
        shed_now ? std::max<size_t>(1, n / 2) : n;
    const size_t rotation = shedRotation_;
    if (shed_now)
        shedRotation_ = (shedRotation_ + admitted_count) % n;

    struct FrameSlot
    {
        TenantSession *tenant = nullptr;
        TenantFrameStats stats;
        support::metrics::FrameTelemetry row;
        bool ran = false;
    };
    std::vector<FrameSlot> slots(n);

    for (size_t i = 0; i < n; ++i) {
        TenantSession &tenant = *sessions_[i];
        const bool admitted =
            !shed_now ||
            (i + n - rotation) % n < admitted_count;
        if (!admitted) {
            tenant.noteShed();
            shed_counter.add();
            ++framesShed_;
            ++report.framesShed;
            continue;
        }
        FrameSlot &slot = slots[i];
        slot.tenant = &tenant;
        // One request trace per (tenant, frame), begun at submission
        // so the time queued before a worker picks the task up is
        // inside the trace (the pool synthesizes the queue_wait
        // span). Installing the context around submit() is what
        // hands it to the pool; processNext() finishes the frame,
        // trace included, through core::completeFrame().
        support::trace::TraceContext trace_ctx;
        if (support::trace::requestTracingArmed())
            trace_ctx = support::trace::RequestTracer::instance()
                            .begin(tenant.id(),
                                   tenant.framesProcessed());
        support::trace::ScopedTraceContext trace_scope(trace_ctx);
        pool_->submit(group, [this, &slot, session] {
            slot.stats = slot.tenant->processNext(
                globalFrame_.fetch_add(1, std::memory_order_relaxed),
                session != nullptr ? &slot.row : nullptr);
            slot.ran = true;
            aggregateFrameSeconds_.record(slot.stats.wallSeconds);
            std::lock_guard<std::mutex> lock(tickMutex_);
            tickWallSeconds_.push_back(slot.stats.wallSeconds);
        });
    }

    pool_->wait(group);

    for (const FrameSlot &slot : slots) {
        if (!slot.ran)
            continue;
        frames_counter.add();
        ++framesProcessed_;
        ++report.framesProcessed;
        if (session != nullptr)
            session->addFrame(slot.row);
    }

    {
        std::lock_guard<std::mutex> lock(tickMutex_);
        report.tickP99Seconds = p99Of(tickWallSeconds_);
    }
    report.peakQueueDepth =
        peakQueueDepth_.load(std::memory_order_relaxed);

    LoadSignals signals;
    signals.peakQueueDepth = report.peakQueueDepth;
    signals.tickP99Seconds = report.tickP99Seconds;
    signals.sloBreaches =
        Registry::instance().counter("slo.breaches").value();
    // Safe to read un-synchronized: the tick's frame tasks finished
    // at pool_->wait(group) above, and sessions are only mutated by
    // those tasks.
    for (const auto &tenant : sessions_)
        signals.peakTenantVolumeBytes =
            std::max(signals.peakTenantVolumeBytes,
                     tenant->volumeBytes());
    static auto &peak_volume_gauge = Registry::instance().gauge(
        "serve.tick.peak_tenant_volume_bytes");
    peak_volume_gauge.set(
        static_cast<double>(signals.peakTenantVolumeBytes));

    const uint64_t engages_before = admission_.engageCount();
    const uint64_t clears_before = admission_.clearCount();
    report.shedding = admission_.onTick(signals);
    if (admission_.engageCount() > engages_before)
        engages_counter.add(admission_.engageCount() -
                            engages_before);
    if (admission_.clearCount() > clears_before)
        clears_counter.add(admission_.clearCount() - clears_before);
    shedding_gauge.set(report.shedding ? 1.0 : 0.0);
    registry.gauge("serve.admission.p99_ewma_seconds")
        .set(admission_.smoothedP99Seconds());
    return report;
}

uint64_t
StreamScheduler::runLoop(uint64_t max_ticks,
                         support::metrics::RunSession *session)
{
    uint64_t ticks = 0;
    while ((max_ticks == 0 || ticks < max_ticks) &&
           !drainRequested()) {
        runTick(session);
        ++ticks;
    }
    if (drainRequested()) {
        support::logInfo()
            << "serve: drained after " << ticks << " ticks ("
            << framesProcessed_ << " frames processed, "
            << framesShed_ << " shed)";
    }
    return ticks;
}

double
StreamScheduler::aggregateFrameP99Seconds() const
{
    return aggregateFrameSeconds_.quantile(0.99);
}

} // namespace slambench::serve
