#include "support/flight_recorder.hpp"

#include <cstring>
#include <iterator>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "metrics/timing.hpp"
#include "support/metrics.hpp"

namespace slambench::support::telemetry {

namespace {

// --- Async-signal-safe formatting -------------------------------
//
// The crash handler may run on a corrupted heap, so everything below
// uses only stack buffers and write(2): no allocation, no stdio, no
// locale, no locks.

/** Append @p v as decimal digits; @return characters written. */
size_t
fmtU64(char *out, uint64_t v)
{
    char tmp[24];
    size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    for (size_t i = 0; i < n; ++i)
        out[i] = tmp[n - 1 - i];
    return n;
}

/** Append @p v as a signed decimal; @return characters written. */
size_t
fmtI64(char *out, int64_t v)
{
    size_t n = 0;
    uint64_t u;
    if (v < 0) {
        out[n++] = '-';
        u = static_cast<uint64_t>(-(v + 1)) + 1;
    } else {
        u = static_cast<uint64_t>(v);
    }
    return n + fmtU64(out + n, u);
}

/**
 * Append @p v as a JSON number in normalized scientific form with 9
 * significant digits ("1.23456789e-3"). Non-finite values become 0
 * (matching the run-report writer). @return characters written.
 */
size_t
fmtDouble(char *out, double v)
{
    if (!(v > -1e308 && v < 1e308)) { // NaN or +-inf
        out[0] = '0';
        return 1;
    }
    size_t n = 0;
    if (v < 0.0) {
        out[n++] = '-';
        v = -v;
    }
    if (v == 0.0) {
        out[n++] = '0';
        return n;
    }
    int exp = 0;
    while (v >= 10.0) {
        v /= 10.0;
        ++exp;
    }
    while (v < 1.0) {
        v *= 10.0;
        --exp;
    }
    // Round to 9 significant digits; rounding can carry (9.99... ->
    // 10.0), which bumps the exponent.
    auto mantissa = static_cast<uint64_t>(v * 1e8 + 0.5);
    if (mantissa >= 1000000000ull) {
        mantissa /= 10;
        ++exp;
    }
    char digits[24];
    const size_t dn = fmtU64(digits, mantissa);
    out[n++] = digits[0];
    size_t last = dn;
    while (last > 1 && digits[last - 1] == '0')
        --last;
    if (last > 1) {
        out[n++] = '.';
        for (size_t i = 1; i < last; ++i)
            out[n++] = digits[i];
    }
    if (exp != 0) {
        out[n++] = 'e';
        n += fmtI64(out + n, exp);
    }
    return n;
}

/** Buffered write(2) sink for the crash dump. */
class FdWriter
{
  public:
    explicit FdWriter(int fd) : fd_(fd) {}
    ~FdWriter() { flush(); }

    /** Append @p n raw bytes. */
    void
    put(const char *data, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            if (len_ == sizeof(buf_))
                flush();
            buf_[len_++] = data[i];
        }
    }

    /** Append a NUL-terminated string verbatim. */
    void str(const char *s) { put(s, std::strlen(s)); }

    /** Append a JSON string literal with minimal escaping. */
    void
    jsonString(const char *s)
    {
        put("\"", 1);
        for (; *s; ++s) {
            const char c = *s;
            if (c == '"' || c == '\\') {
                put("\\", 1);
                put(&c, 1);
            } else if (static_cast<unsigned char>(c) < 0x20) {
                // Control bytes become spaces: a crash dump values
                // parseability over fidelity of exotic labels.
                put(" ", 1);
            } else {
                put(&c, 1);
            }
        }
        put("\"", 1);
    }

    /** Append an unsigned decimal. */
    void
    u64(uint64_t v)
    {
        char tmp[24];
        put(tmp, fmtU64(tmp, v));
    }

    /** Append a signed decimal. */
    void
    i64(int64_t v)
    {
        char tmp[24];
        put(tmp, fmtI64(tmp, v));
    }

    /** Append a JSON number. */
    void
    dbl(double v)
    {
        char tmp[40];
        put(tmp, fmtDouble(tmp, v));
    }

    /** Drain the buffer to the descriptor. */
    void
    flush()
    {
        size_t off = 0;
        while (off < len_) {
            const ssize_t n = ::write(fd_, buf_ + off, len_ - off);
            if (n <= 0)
                break; // nothing more we can do in a handler
            off += static_cast<size_t>(n);
        }
        len_ = 0;
    }

  private:
    int fd_;
    char buf_[4096];
    size_t len_ = 0;
};

// --- Crash-handler state ----------------------------------------

/** Dump path; fixed storage so the handler never allocates. */
char g_crash_path[1024] = {0};
/** Producing binary's name, stamped into the dump. */
char g_crash_generator[128] = {0};
/** First-crash latch: nested/concurrent faults skip the dump. */
std::atomic<bool> g_crash_dumping{false};
/** Signals covered by the handler. */
constexpr int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
                                 SIGILL,  SIGTERM, SIGINT};
/** Whether the handler is installed (g_saved_actions is live). */
bool g_crash_installed = false;
/** The dispositions the handler replaced, per kCrashSignals entry. */
struct sigaction g_saved_actions[std::size(kCrashSignals)];

extern "C" void
slambenchCrashHandler(int sig)
{
    if (!g_crash_dumping.exchange(true)) {
        const int fd = ::open(g_crash_path,
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            writeCrashDump(fd, sig);
            ::close(fd);
        }
    }
    // Restore the default disposition and re-raise so the process
    // still terminates with the original signal (exit status and
    // core-dump behavior are preserved for the parent).
    struct sigaction dfl;
    std::memset(&dfl, 0, sizeof(dfl));
    dfl.sa_handler = SIG_DFL;
    ::sigemptyset(&dfl.sa_mask);
    ::sigaction(sig, &dfl, nullptr);
    ::raise(sig);
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
    case EventKind::Frame: return "frame";
    case EventKind::TrackingFailure: return "tracking_failure";
    case EventKind::DseEvaluation: return "dse_evaluation";
    case EventKind::SloBreach: return "slo_breach";
    case EventKind::Note: return "note";
    }
    return "unknown";
}

FlightRecorder &
FlightRecorder::instance()
{
    static FlightRecorder recorder;
    return recorder;
}

FlightRecorder::FlightRecorder()
{
    setCapacity(kCapacity);
}

void
FlightRecorder::setCapacity(size_t slots)
{
    size_t capacity = 64;
    while (capacity < slots && capacity < (1u << 20))
        capacity <<= 1;
    slots_ = std::make_unique<Slot[]>(capacity);
    capacity_ = capacity;
    mask_ = capacity - 1;
    head_.store(0, std::memory_order_relaxed);
}

void
FlightRecorder::record(EventKind kind, uint64_t frame, double a,
                       double b, const char *detail)
{
    if (!enabled())
        return;
    Event e;
    e.ns = slambench::metrics::now_ns();
    e.kind = kind;
    e.frame = frame;
    e.a = a;
    e.b = b;
    if (detail) {
        std::strncpy(e.detail, detail, sizeof(e.detail) - 1);
        e.detail[sizeof(e.detail) - 1] = '\0';
    }

    const uint64_t ticket =
        head_.fetch_add(1, std::memory_order_relaxed) + 1;
    Slot &slot = slots_[ticket & mask_];
    // Per-slot seqlock: invalidate, publish words, then publish the
    // ticket. Readers whose before/after sequence reads disagree (or
    // do not equal the expected ticket) discard the slot.
    slot.seq.store(0, std::memory_order_release);
    uint64_t words[kEventWords] = {};
    std::memcpy(words, &e, sizeof(e));
    for (size_t i = 0; i < kEventWords; ++i)
        slot.words[i].store(words[i], std::memory_order_relaxed);
    slot.seq.store(ticket, std::memory_order_release);
}

std::vector<Event>
FlightRecorder::snapshot() const
{
    std::vector<Event> out;
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (head == 0)
        return out;
    const uint64_t first =
        head > capacity_ ? head - capacity_ + 1 : 1;
    out.reserve(static_cast<size_t>(head - first + 1));
    for (uint64_t t = first; t <= head; ++t) {
        const Slot &slot = slots_[t & mask_];
        if (slot.seq.load(std::memory_order_acquire) != t)
            continue;
        uint64_t words[kEventWords];
        for (size_t i = 0; i < kEventWords; ++i)
            words[i] = slot.words[i].load(std::memory_order_relaxed);
        if (slot.seq.load(std::memory_order_acquire) != t)
            continue;
        Event e;
        std::memcpy(&e, words, sizeof(e));
        out.push_back(e);
    }
    return out;
}

void
FlightRecorder::reset()
{
    head_.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < capacity_; ++i)
        slots_[i].seq.store(0, std::memory_order_relaxed);
}

void
installCrashDump(const std::string &path,
                 const std::string &generator)
{
    std::strncpy(g_crash_path, path.c_str(),
                 sizeof(g_crash_path) - 1);
    g_crash_path[sizeof(g_crash_path) - 1] = '\0';
    std::strncpy(g_crash_generator, generator.c_str(),
                 sizeof(g_crash_generator) - 1);
    g_crash_generator[sizeof(g_crash_generator) - 1] = '\0';

    FlightRecorder::instance().setEnabled(true);

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = slambenchCrashHandler;
    ::sigemptyset(&sa.sa_mask);
    // Only the first install saves: a re-install would save the
    // handler itself.
    for (size_t i = 0; i < std::size(kCrashSignals); ++i)
        ::sigaction(kCrashSignals[i], &sa,
                    g_crash_installed ? nullptr : &g_saved_actions[i]);
    g_crash_installed = true;
}

void
uninstallCrashDump()
{
    if (!g_crash_installed)
        return;
    for (size_t i = 0; i < std::size(kCrashSignals); ++i)
        ::sigaction(kCrashSignals[i], &g_saved_actions[i], nullptr);
    g_crash_installed = false;
    g_crash_path[0] = '\0';
}

const char *
crashDumpPath()
{
    return g_crash_path;
}

void
writeCrashDump(int fd, int signal_number)
{
    using metrics::CrashIndexNode;
    FdWriter w(fd);

    w.str("{\n  \"schema\": \"slambench-crash-dump\",\n");
    w.str("  \"schema_version\": 1,\n");
    w.str("  \"signal\": ");
    w.i64(signal_number);
    w.str(",\n  \"generator\": ");
    w.jsonString(g_crash_generator);
    w.str(",\n  \"dump_ns\": ");
    w.u64(slambench::metrics::now_ns());

    // --- Flight-recorder ring, oldest surviving event first. ---
    const FlightRecorder &rec = FlightRecorder::instance();
    const uint64_t head = rec.head_.load(std::memory_order_acquire);
    w.str(",\n  \"events_recorded\": ");
    w.u64(head);
    w.str(",\n  \"events\": [");
    const uint64_t first =
        head > rec.capacity_ ? head - rec.capacity_ + 1 : 1;
    bool first_event = true;
    for (uint64_t t = first; t <= head && head > 0; ++t) {
        const FlightRecorder::Slot &slot = rec.slots_[t & rec.mask_];
        if (slot.seq.load(std::memory_order_acquire) != t)
            continue;
        uint64_t words[FlightRecorder::kEventWords];
        for (size_t i = 0; i < FlightRecorder::kEventWords; ++i)
            words[i] =
                slot.words[i].load(std::memory_order_relaxed);
        if (slot.seq.load(std::memory_order_acquire) != t)
            continue;
        Event e;
        std::memcpy(&e, words, sizeof(e));
        w.str(first_event ? "\n    {" : ",\n    {");
        first_event = false;
        w.str("\"ns\": ");
        w.u64(e.ns);
        w.str(", \"kind\": ");
        w.jsonString(eventKindName(e.kind));
        w.str(", \"frame\": ");
        w.u64(e.frame);
        w.str(", \"a\": ");
        w.dbl(e.a);
        w.str(", \"b\": ");
        w.dbl(e.b);
        w.str(", \"detail\": ");
        w.jsonString(e.detail);
        w.str("}");
    }
    w.str(first_event ? "]" : "\n  ]");

    // --- Registry snapshot via the lock-free crash index (stable
    // metric handles; no Registry mutex, no allocation). ---
    w.str(",\n  \"counters\": {");
    bool first_metric = true;
    for (const CrashIndexNode *node = metrics::crashIndexHead();
         node; node = node->next) {
        if (node->kind != CrashIndexNode::Kind::Counter)
            continue;
        w.str(first_metric ? "\n    " : ",\n    ");
        first_metric = false;
        w.jsonString(node->name);
        w.str(": ");
        w.u64(static_cast<const metrics::Counter *>(node->metric)
                  ->value());
    }
    w.str(first_metric ? "}" : "\n  }");

    w.str(",\n  \"gauges\": {");
    first_metric = true;
    for (const CrashIndexNode *node = metrics::crashIndexHead();
         node; node = node->next) {
        if (node->kind != CrashIndexNode::Kind::Gauge)
            continue;
        w.str(first_metric ? "\n    " : ",\n    ");
        first_metric = false;
        w.jsonString(node->name);
        w.str(": ");
        w.dbl(static_cast<const metrics::Gauge *>(node->metric)
                  ->value());
    }
    w.str(first_metric ? "}" : "\n  }");

    w.str(",\n  \"histograms\": {");
    first_metric = true;
    for (const CrashIndexNode *node = metrics::crashIndexHead();
         node; node = node->next) {
        if (node->kind != CrashIndexNode::Kind::Histogram)
            continue;
        const auto *histogram =
            static_cast<const metrics::LatencyHistogram *>(
                node->metric);
        w.str(first_metric ? "\n    " : ",\n    ");
        first_metric = false;
        w.jsonString(node->name);
        w.str(": {\"count\": ");
        w.u64(histogram->count());
        w.str(", \"sum\": ");
        w.dbl(histogram->sum());
        w.str(", \"min\": ");
        w.dbl(histogram->min());
        w.str(", \"max\": ");
        w.dbl(histogram->max());
        w.str(", \"p50\": ");
        w.dbl(histogram->quantile(0.50));
        w.str(", \"p90\": ");
        w.dbl(histogram->quantile(0.90));
        w.str(", \"p99\": ");
        w.dbl(histogram->quantile(0.99));
        w.str("}");
    }
    w.str(first_metric ? "}\n}\n" : "\n  }\n}\n");
    w.flush();
}

} // namespace slambench::support::telemetry
