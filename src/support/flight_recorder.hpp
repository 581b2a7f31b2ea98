#ifndef SLAMBENCH_SUPPORT_FLIGHT_RECORDER_HPP
#define SLAMBENCH_SUPPORT_FLIGHT_RECORDER_HPP

/**
 * @file
 * Crash-surviving event telemetry: a fixed-size lock-free ring of
 * recent structured events (frame telemetry, tracking failures, DSE
 * evaluations, SLO breaches) plus an async-signal-safe fatal-signal
 * handler that dumps the ring and a metrics-registry snapshot to a
 * JSON file.
 *
 * The run reports of `support/metrics.hpp` are only written when a
 * run ends cleanly; a hung sweep or a crashed pipeline leaves
 * nothing to inspect. The flight recorder closes that gap: hot paths
 * append events at a cost of one relaxed atomic increment plus a
 * bounded copy (nothing is recorded while disabled — a single
 * relaxed load), and when the process dies on SIGSEGV / SIGABRT /
 * SIGBUS / SIGFPE / SIGILL / SIGTERM / SIGINT the handler writes the
 * last <= FlightRecorder::kCapacity events as
 * `slambench-crash-dump` JSON (schema in docs/OBSERVABILITY.md)
 * using only async-signal-safe primitives (write(2), no allocation,
 * no stdio, no locks), then re-raises the signal.
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace slambench::support::telemetry {

/** What a flight-recorder event describes. */
enum class EventKind : uint32_t {
    Frame = 1,           ///< One processed pipeline frame.
    TrackingFailure = 2, ///< A frame whose pose was rejected.
    DseEvaluation = 3,   ///< One DSE configuration evaluation.
    SloBreach = 4,       ///< An SLO watchdog threshold breach.
    Note = 5,            ///< Free-form annotation.
};

/** @return the stable lower-case name of @p kind ("frame", ...). */
const char *eventKindName(EventKind kind);

/**
 * One fixed-size structured event. The two scalars are
 * kind-specific: Frame carries (wall seconds, live ATE m),
 * DseEvaluation (eval wall seconds, primary objective), SloBreach
 * (observed value, limit).
 */
struct Event
{
    /** Monotonic timestamp (metrics::now_ns clock). */
    uint64_t ns = 0;
    EventKind kind = EventKind::Note;
    /** Frame index / evaluation ordinal, kind-specific. */
    uint64_t frame = 0;
    double a = 0.0; ///< First kind-specific scalar.
    double b = 0.0; ///< Second kind-specific scalar.
    /** NUL-terminated label (truncated to the field size). */
    char detail[48] = {};
};

/**
 * Process-wide fixed-capacity ring of recent events.
 *
 * Writers are lock-free and wait-free: a ticket from one atomic
 * fetch_add picks the slot, a per-slot sequence word published with
 * release ordering makes torn slots detectable by readers (seqlock
 * per slot, writer-preferring). Readers — snapshot() and the crash
 * handler — skip slots whose sequence does not match the expected
 * ticket, so a reader racing an active writer drops that slot
 * instead of observing a half-written event.
 *
 * Disabled by default; record() is a single relaxed load until
 * setEnabled(true) (done by TelemetryEndpoint when any live
 * telemetry flag is armed).
 */
class FlightRecorder
{
  public:
    /** Default ring capacity (slots; overridden by setCapacity /
     *  `--recorder-slots`). */
    static constexpr size_t kCapacity = 1024;

    /** 64-bit words needed to hold one serialized Event. */
    static constexpr size_t kEventWords = (sizeof(Event) + 7) / 8;

    /** @return the process-wide recorder. */
    static FlightRecorder &instance();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Arm / disarm recording (relaxed; thread-safe). */
    void
    setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** @return whether record() currently stores events. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Append one event (no-op while disabled). Thread-safe and
     * lock-free; @p detail is truncated to Event::detail.
     */
    void record(EventKind kind, uint64_t frame, double a, double b,
                const char *detail);

    /**
     * Resize the ring to @p slots (rounded up to a power of two,
     * clamped to [64, 1<<20]) and drop all retained events. NOT safe
     * against concurrent record()/snapshot(): call it at startup
     * before recording is enabled (TelemetryEndpoint does, from
     * `--recorder-slots`). The default 1024 slots wrap within
     * seconds under a many-tenant soak; size the ring to the event
     * rate times the post-incident window you want to inspect.
     */
    void setCapacity(size_t slots);

    /** @return the current ring capacity, slots. */
    size_t
    capacity() const
    {
        return capacity_;
    }

    /** @return events recorded since construction (not capped). */
    uint64_t
    totalRecorded() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    /**
     * Copy the retained events, oldest first. Slots being written
     * concurrently (or already overwritten) are skipped, so the
     * result holds at most capacity() fully-consistent events.
     */
    std::vector<Event> snapshot() const;

    /** Drop all retained events and zero totalRecorded() (tests). */
    void reset();

  private:
    FlightRecorder();

    friend void writeCrashDump(int fd, int signal_number);

    struct Slot
    {
        /** Publication word: 0 = empty/in-progress, else the ticket
         *  of the event stored in `words`. */
        std::atomic<uint64_t> seq{0};
        /** The Event, serialized to relaxed-atomic words so reader /
         *  writer races stay well-defined (the seqlock check decides
         *  whether the reassembled copy is consistent). */
        std::array<std::atomic<uint64_t>, kEventWords> words{};
    };

    std::atomic<bool> enabled_{false};
    /** Tickets issued; ticket t lives in slots_[t & mask_]. */
    std::atomic<uint64_t> head_{0};
    /** Ring storage; capacity_ is a power of two, mask_ its - 1.
     *  Reallocated only by setCapacity() (startup, pre-enable), so
     *  the async-signal-safe crash dump can read it lock-free. */
    size_t capacity_ = 0;
    uint64_t mask_ = 0;
    std::unique_ptr<Slot[]> slots_;
};

/**
 * Install the fatal-signal crash handler: on SIGSEGV, SIGABRT,
 * SIGBUS, SIGFPE, SIGILL, SIGTERM, or SIGINT, dump the flight
 * recorder ring plus a registry snapshot to @p path as
 * `slambench-crash-dump` JSON, restore the default disposition, and
 * re-raise so the process still dies with the original signal.
 * Also enables the recorder. Idempotent; the last path wins.
 *
 * @param path Output file (truncated at crash time, not before).
 * @param generator Producing binary's name, stamped into the dump.
 */
void installCrashDump(const std::string &path,
                      const std::string &generator);

/**
 * Undo installCrashDump: restore the signal dispositions it replaced
 * (those in place at the first install since the last uninstall) and
 * clear crashDumpPath(). The dump reads registry metrics, so whoever
 * owns them uninstalls before they go. No-op when not installed.
 */
void uninstallCrashDump();

/** @return the installed crash-dump path ("" when not installed). */
const char *crashDumpPath();

/**
 * Write the crash-dump JSON to @p fd now. This is the handler's
 * body, exposed for tests; it is async-signal-safe (write(2) only,
 * no allocation, no locks, no stdio).
 *
 * @param fd Open file descriptor to write to.
 * @param signal_number Value stored in the dump's "signal" field
 *        (0 = not a signal, e.g. an on-demand dump).
 */
void writeCrashDump(int fd, int signal_number);

} // namespace slambench::support::telemetry

#endif // SLAMBENCH_SUPPORT_FLIGHT_RECORDER_HPP
