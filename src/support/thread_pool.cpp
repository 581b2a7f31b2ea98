#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "metrics/timing.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace slambench::support {

namespace {

// Registry of live pools for ThreadPool::forEachPool. Function-local
// statics avoid init-order issues with pools constructed during
// static initialization.
std::mutex &
poolRegistryMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::vector<ThreadPool *> &
poolRegistry()
{
    static std::vector<ThreadPool *> pools;
    return pools;
}

} // namespace

ThreadPool::ThreadPool(size_t num_threads)
{
    size_t n = num_threads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    threads_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
    {
        std::lock_guard<std::mutex> lock(poolRegistryMutex());
        poolRegistry().push_back(this);
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(poolRegistryMutex());
        auto &pools = poolRegistry();
        pools.erase(std::remove(pools.begin(), pools.end(), this),
                    pools.end());
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::enqueue(TaskGroup &group, std::function<void()> task,
                    const trace::TaskContext &context)
{
    Task entry;
    entry.fn = std::move(task);
    entry.group = &group;
    entry.context = context;
    entry.enqueuedNs = slambench::metrics::now_ns();
    group.pending_.fetch_add(1, std::memory_order_acq_rel);
    queueDepth_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(entry));
    }
    wake_.notify_one();
    // A waiter blocked on done_ may steal this task cooperatively.
    done_.notify_one();
}

void
ThreadPool::submit(TaskGroup &group, std::function<void()> task)
{
    // Attribute worker-side execution to the span open at submission
    // (e.g. the DSE loop's scope) and carry the request context
    // across the queue so the worker's spans join the right trace.
    enqueue(group, std::move(task), trace::captureTaskContext());
}

void
ThreadPool::execute(Task task)
{
    const size_t active =
        activeTasks_.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t peak = peakActive_.load(std::memory_order_relaxed);
    while (active > peak &&
           !peakActive_.compare_exchange_weak(
               peak, active, std::memory_order_relaxed)) {
    }

    // Queue stall vs. execute time, so saturation shows up directly
    // instead of only through the SLO watchdog's depth sampling.
    // Recorded in milliseconds (the _ms suffix; the histogram's
    // buckets are unit-agnostic). Registry handles are
    // process-stable, so cache them.
    static metrics::LatencyHistogram &queue_wait_hist =
        metrics::Registry::instance().histogram(
            "pool.task.queue_wait_ms");
    static metrics::LatencyHistogram &run_hist =
        metrics::Registry::instance().histogram("pool.task.run_ms");
    const uint64_t start_ns = slambench::metrics::now_ns();
    queue_wait_hist.record(
        static_cast<double>(start_ns - task.enqueuedNs) * 1e-6);

    // Reinstate the submitter's frame stamp and request context for
    // the task body (no-op for an inactive context), and make the
    // time the task sat queued visible in its trace as a queue_wait
    // span ending where execution starts.
    trace::ScopedFrame frame_scope(task.context.frame);
    trace::ScopedTraceContext request_scope(task.context.request);
    trace::recordQueueWait(task.context.request, task.enqueuedNs,
                           start_ns);
    if (task.context.spanName) {
        trace::ScopedSpan span(task.context.spanName,
                               trace::Category::Worker);
        task.fn();
    } else {
        task.fn();
    }

    run_hist.record(
        static_cast<double>(slambench::metrics::now_ns() - start_ns) *
        1e-6);

    activeTasks_.fetch_sub(1, std::memory_order_relaxed);
    tasksExecuted_.fetch_add(1, std::memory_order_relaxed);
    if (task.group->pending_.fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
        // The (empty) critical section orders this notify after any
        // waiter's predicate check in wait(): the predicate runs under
        // mutex_, and done_.wait() releases the lock atomically with
        // blocking, so once we have acquired mutex_ a waiter that saw
        // pending != 0 is already blocked and receives the notify.
        // Without the lock, the decrement + notify could land between
        // a waiter's predicate check and its block, losing the wakeup.
        { std::lock_guard<std::mutex> lock(mutex_); }
        done_.notify_all();
    }
}

bool
ThreadPool::tryRunOneTask(TaskGroup *prefer)
{
    Task task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        auto it = queue_.begin();
        if (prefer) {
            // Serve the waited-on group's own tasks first so a
            // latency-sensitive waiter is not detained by a long
            // unrelated task when its own work is still queued.
            const auto own = std::find_if(
                queue_.begin(), queue_.end(),
                [prefer](const Task &t) { return t.group == prefer; });
            if (own != queue_.end())
                it = own;
        }
        task = std::move(*it);
        queue_.erase(it);
        queueDepth_.fetch_sub(1, std::memory_order_relaxed);
    }
    execute(std::move(task));
    return true;
}

void
ThreadPool::wait(TaskGroup &group)
{
    for (;;) {
        if (group.pending() == 0)
            return;
        // Cooperative draining: run queued tasks — the waited group's
        // own first, then any other group's — so a nested region on a
        // saturated pool cannot deadlock and a 1-thread pool makes
        // progress on the caller's thread. Draining foreign tasks
        // means a waiter can execute an unrelated long task (e.g. a
        // whole DSE pipeline evaluation) before returning; that
        // latency cost is the price of deadlock freedom.
        if (tryRunOneTask(&group))
            continue;
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this, &group] {
            return group.pending() == 0 || !queue_.empty();
        });
    }
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)> &body)
{
    const std::function<void(size_t, size_t)> chunked =
        [&body](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                body(i);
        };
    parallelForChunked(begin, end, chunked);
}

void
ThreadPool::parallelForChunked(
    size_t begin, size_t end,
    const std::function<void(size_t, size_t)> &body)
{
    if (begin >= end)
        return;

    const size_t count = end - begin;
    // Aim for ~4 chunks per worker to absorb imbalance without
    // excessive dispatch overhead.
    const size_t target_chunks = std::max<size_t>(threads_.size() * 4, 1);
    const size_t chunk = std::max<size_t>(1, count / target_chunks);
    const size_t num_chunks = (count + chunk - 1) / chunk;

    // Chunks are claimed from a shared cursor by up to
    // numThreads() runner tasks plus the caller, which participates
    // directly: a 1-thread pool (or a pool busy with other work)
    // still makes forward progress on the calling thread.
    struct LoopState
    {
        std::atomic<size_t> next;
        size_t end;
        size_t chunk;
        const std::function<void(size_t, size_t)> *body;
        const char *traceName;
    };
    // Attribute every chunk (caller- or worker-run) to the span that
    // dispatched the loop (e.g. a KernelTimer's kernel span); the
    // runners carry the frame stamp and request context, not the
    // span.
    const trace::TaskContext context = trace::captureTaskContext();
    LoopState state{{begin}, end, chunk, &body, context.spanName};

    const auto run_chunks = [&state] {
        for (;;) {
            const size_t lo = state.next.fetch_add(
                state.chunk, std::memory_order_relaxed);
            if (lo >= state.end)
                return;
            const size_t hi = std::min(state.end, lo + state.chunk);
            if (state.traceName) {
                trace::ScopedSpan chunk_span(state.traceName,
                                             trace::Category::Worker);
                (*state.body)(lo, hi);
                continue;
            }
            (*state.body)(lo, hi);
        }
    };

    // state outlives the runners: wait() below returns only once
    // every submitted runner has finished.
    TaskGroup group;
    const size_t helpers = std::min(threads_.size(), num_chunks - 1);
    for (size_t i = 0; i < helpers; ++i)
        enqueue(group, run_chunks,
                {nullptr, context.frame, context.request});
    run_chunks();
    wait(group);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                // stopping_ and nothing left to drain.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            queueDepth_.fetch_sub(1, std::memory_order_relaxed);
        }
        execute(std::move(task));
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

void
ThreadPool::forEachPool(
    const std::function<void(const ThreadPool &)> &fn)
{
    std::lock_guard<std::mutex> lock(poolRegistryMutex());
    for (const ThreadPool *pool : poolRegistry())
        fn(*pool);
}

} // namespace slambench::support
