#ifndef SLAMBENCH_SUPPORT_THREAD_POOL_HPP
#define SLAMBENCH_SUPPORT_THREAD_POOL_HPP

/**
 * @file
 * Task-queue worker pool with blocking parallelFor on top.
 *
 * This is the substrate behind the `Threaded` kernel implementations
 * (mirroring SLAMBench's OpenMP builds without an OpenMP dependency),
 * the parallel DSE drivers, which submit whole pipeline runs as
 * tasks, and dataset::renderFrame, which splits its rows over
 * global(). Unlike the original single-job broadcast design, the pool
 * is a task-queue executor: any number of threads may submit work
 * concurrently, and a task running on a worker may itself open a
 * nested parallel region — waiters execute queued tasks cooperatively
 * instead of blocking the thread (or panicking, as the old
 * implementation did).
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/trace.hpp"

namespace slambench::support {

/**
 * A fixed set of worker threads draining a shared FIFO task queue.
 *
 * Three usage layers, all safe to mix from any thread (including from
 * inside a task running on the pool itself):
 *
 *  - parallelFor / parallelForChunked: blocking data-parallel loops.
 *    The caller cooperatively executes queued chunks while waiting,
 *    so a 1-thread pool still makes forward progress and nested
 *    regions cannot deadlock.
 *  - submit + wait(TaskGroup): explicit fork/join. Each submitted
 *    task is tracked by a TaskGroup; wait() drains queue work until
 *    the group's tasks have all finished.
 *  - Concurrent submissions: independent threads may run their own
 *    parallelFor or task groups on the same pool simultaneously;
 *    tasks interleave in the single queue.
 */
class ThreadPool
{
  public:
    /**
     * Completion tracker for a set of submitted tasks. A group may be
     * reused for several submit/wait rounds; it must outlive every
     * task submitted against it.
     */
    class TaskGroup
    {
      public:
        TaskGroup() = default;
        TaskGroup(const TaskGroup &) = delete;
        TaskGroup &operator=(const TaskGroup &) = delete;

        /** @return number of submitted-but-unfinished tasks. */
        size_t
        pending() const
        {
            return pending_.load(std::memory_order_acquire);
        }

      private:
        friend class ThreadPool;
        std::atomic<size_t> pending_{0};
    };

    /**
     * @param num_threads Worker count; 0 selects hardware_concurrency().
     */
    explicit ThreadPool(size_t num_threads = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Drains the queue, then joins the workers. */
    ~ThreadPool();

    /** @return number of worker threads (always >= 1). */
    size_t numThreads() const { return threads_.size(); }

    /**
     * Enqueue @p task for execution by the workers, tracked by
     * @p group. Thread-safe; callable from inside a running task.
     */
    void submit(TaskGroup &group, std::function<void()> task);

    /**
     * Block until every task submitted against @p group has finished.
     * While waiting, the calling thread cooperatively executes queued
     * tasks — @p group's own tasks first, then tasks of any other
     * group — so nested waits make forward progress on a saturated
     * pool instead of deadlocking. Note the latency implication: once
     * the group's own tasks are all taken, a waiter may still pick up
     * an unrelated long-running task (e.g. a whole DSE evaluation
     * submitted by another client of the shared pool) and only return
     * after it completes.
     */
    void wait(TaskGroup &group);

    /**
     * Run @p body(i) for every i in [begin, end), split into chunks
     * executed by the workers. Blocks until all iterations complete.
     * May be called concurrently from several threads and from inside
     * another parallelFor's body (nested regions run cooperatively).
     * On a shared pool the implied wait() can drain one unrelated
     * queued task after the loop's own chunks are exhausted (see
     * wait()), so wall time is not bounded by the loop body alone.
     *
     * @param begin First index.
     * @param end One past the last index.
     * @param body Callable invoked once per index; must be thread-safe.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &body);

    /**
     * Chunked variant: @p body(chunk_begin, chunk_end) is called once
     * per contiguous chunk, which lets the body keep per-chunk state.
     */
    void parallelForChunked(
        size_t begin, size_t end,
        const std::function<void(size_t, size_t)> &body);

    /** @return total tasks executed since construction (occupancy /
     *  test introspection; relaxed). */
    uint64_t
    tasksExecuted() const
    {
        return tasksExecuted_.load(std::memory_order_relaxed);
    }

    /** @return high-water mark of simultaneously running tasks. */
    size_t
    peakActiveTasks() const
    {
        return peakActive_.load(std::memory_order_relaxed);
    }

    /** @return tasks currently queued and not yet claimed by any
     *  runner (live saturation signal; relaxed). */
    size_t
    queueDepth() const
    {
        return queueDepth_.load(std::memory_order_relaxed);
    }

    /** @return a process-wide shared pool sized to the host. */
    static ThreadPool &global();

    /**
     * Invoke @p fn once for every live pool (the global pool plus any
     * explicitly constructed ones). The internal registry lock is
     * held across the calls, so @p fn must be quick and must not
     * construct or destroy pools. Used by the SLO watchdog to sample
     * queueDepth()/tasksExecuted() for stall detection.
     */
    static void
    forEachPool(const std::function<void(const ThreadPool &)> &fn);

  private:
    struct Task
    {
        std::function<void()> fn;
        TaskGroup *group = nullptr;
        /** The submitter's span name (a Worker span of that name
         *  wraps the task; null = none), frame stamp and request
         *  context (both reinstated on the executing thread). */
        trace::TaskContext context;
        /** metrics::now_ns() at enqueue, for the
         *  pool.task.queue_wait_ms histogram and the queue_wait
         *  request span (see docs/OBSERVABILITY.md). */
        uint64_t enqueuedNs = 0;
    };

    void workerLoop();
    /** Push one task carrying @p context. */
    void enqueue(TaskGroup &group, std::function<void()> task,
                 const trace::TaskContext &context);
    /** Run one task (queue lock NOT held) and settle its group. */
    void execute(Task task);
    /** Pop-and-run one queued task, preferring tasks of @p prefer
     *  when non-null; @return false if queue empty. */
    bool tryRunOneTask(TaskGroup *prefer = nullptr);

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    /** Signals workers: queue non-empty or stopping. */
    std::condition_variable wake_;
    /** Signals waiters: some group finished or new work to steal. */
    std::condition_variable done_;
    std::deque<Task> queue_;
    bool stopping_ = false;

    std::atomic<uint64_t> tasksExecuted_{0};
    std::atomic<size_t> activeTasks_{0};
    std::atomic<size_t> peakActive_{0};
    std::atomic<size_t> queueDepth_{0};
};

} // namespace slambench::support

#endif // SLAMBENCH_SUPPORT_THREAD_POOL_HPP
