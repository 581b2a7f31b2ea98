#include "support/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <ostream>

#include <sys/resource.h>

#include "metrics/timing.hpp"
#include "support/csv.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

// Build provenance stamped into every run report; the root
// CMakeLists defines these from `git describe` and the toolchain.
#ifndef SLAMBENCH_GIT_DESCRIBE
#define SLAMBENCH_GIT_DESCRIBE "unknown"
#endif
#ifndef SLAMBENCH_BUILD_TYPE
#define SLAMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SLAMBENCH_COMPILER
#define SLAMBENCH_COMPILER "unknown"
#endif
#ifndef SLAMBENCH_CXX_FLAGS
#define SLAMBENCH_CXX_FLAGS ""
#endif

namespace slambench::support::metrics {

namespace {

/** Newest node of the lock-free crash index (see crashIndexHead). */
std::atomic<const CrashIndexNode *> g_crash_index_head{nullptr};

/**
 * Publish one crash-index node for a just-created metric. Called
 * under the Registry mutex but uses CAS anyway so crashIndexHead()
 * readers (signal handlers) need no lock; the node and its name copy
 * intentionally leak — metrics live for the process lifetime.
 */
void
pushCrashIndexNode(const std::string &name,
                   CrashIndexNode::Kind kind, const void *metric)
{
    auto *name_copy = new char[name.size() + 1];
    std::memcpy(name_copy, name.c_str(), name.size() + 1);
    auto *node = new CrashIndexNode{name_copy, kind, metric, nullptr};
    const CrashIndexNode *head =
        g_crash_index_head.load(std::memory_order_relaxed);
    do {
        node->next = head;
    } while (!g_crash_index_head.compare_exchange_weak(
        head, node, std::memory_order_release,
        std::memory_order_relaxed));
}

/** CAS-add for pre-C++20-hardware-support atomic doubles. */
void
atomicAdd(std::atomic<double> &target, double delta)
{
    double expected = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed))
        ;
}

void
atomicMin(std::atomic<double> &target, double value)
{
    double expected = target.load(std::memory_order_relaxed);
    while (value < expected &&
           !target.compare_exchange_weak(expected, value,
                                         std::memory_order_relaxed))
        ;
}

void
atomicMax(std::atomic<double> &target, double value)
{
    double expected = target.load(std::memory_order_relaxed);
    while (value > expected &&
           !target.compare_exchange_weak(expected, value,
                                         std::memory_order_relaxed))
        ;
}

/** Append @p value to @p out as JSON-escaped string content. */
void
appendEscaped(std::string &out, const std::string &value)
{
    for (const char c : value) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

std::string
jsonString(const std::string &value)
{
    std::string out = "\"";
    appendEscaped(out, value);
    out += "\"";
    return out;
}

/** Format a finite JSON number; non-finite values become 0. */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return buf;
}

} // namespace

void
Gauge::setMax(double v)
{
    atomicMax(value_, v);
}

void
LatencyHistogram::record(double seconds)
{
    buckets_[bucketIndex(seconds)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, seconds);
    atomicMin(min_, seconds);
    atomicMax(max_, seconds);
}

double
LatencyHistogram::mean() const
{
    const uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
}

double
LatencyHistogram::min() const
{
    return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double
LatencyHistogram::max() const
{
    return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

size_t
LatencyHistogram::bucketIndex(double seconds) const
{
    const double lo = std::pow(10.0, kLogLo);
    if (!(seconds >= lo)) // also catches NaN and negatives
        return 0;
    const double position =
        (std::log10(seconds) - kLogLo) *
        static_cast<double>(kBucketsPerDecade);
    const long bounded =
        static_cast<long>(kNumBuckets) - 2; // bounded bucket count
    const long raw = static_cast<long>(std::floor(position));
    if (raw >= bounded)
        return kNumBuckets - 1; // overflow
    return static_cast<size_t>(std::max(raw, 0L)) + 1;
}

size_t
LatencyHistogram::highestPopulatedBucket() const
{
    for (size_t i = kNumBuckets; i-- > 0;) {
        if (buckets_[i].load(std::memory_order_relaxed) != 0)
            return i;
    }
    return kNumBuckets;
}

double
LatencyHistogram::bucketLo(size_t i) const
{
    if (i == 0)
        return 0.0;
    return std::pow(10.0,
                    kLogLo + static_cast<double>(i - 1) /
                                 static_cast<double>(
                                     kBucketsPerDecade));
}

double
LatencyHistogram::bucketHi(size_t i) const
{
    if (i + 1 == kNumBuckets)
        return std::numeric_limits<double>::infinity();
    return std::pow(10.0,
                    kLogLo + static_cast<double>(i) /
                                 static_cast<double>(
                                     kBucketsPerDecade));
}

double
LatencyHistogram::quantile(double q) const
{
    const uint64_t n = count();
    if (n == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(n);
    double cumulative = 0.0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
        const double in_bucket =
            static_cast<double>(bucketCount(i));
        if (in_bucket == 0.0)
            continue;
        if (cumulative + in_bucket >= target) {
            const double frac =
                std::clamp((target - cumulative) / in_bucket, 0.0,
                           1.0);
            double lo = bucketLo(i);
            double hi = bucketHi(i);
            // The exact envelope tightens the unbounded/edge buckets.
            lo = std::max(lo, min());
            hi = std::min(hi, max());
            if (!(hi > lo))
                return std::clamp(lo, min(), max());
            return lo + frac * (hi - lo);
        }
        cumulative += in_bucket;
    }
    return max();
}

void
LatencyHistogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

const CrashIndexNode *
crashIndexHead()
{
    return g_crash_index_head.load(std::memory_order_acquire);
}

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot) {
        slot = std::make_unique<Counter>();
        pushCrashIndexNode(name, CrashIndexNode::Kind::Counter,
                           slot.get());
    }
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot) {
        slot = std::make_unique<Gauge>();
        pushCrashIndexNode(name, CrashIndexNode::Kind::Gauge,
                           slot.get());
    }
    return *slot;
}

LatencyHistogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot) {
        slot = std::make_unique<LatencyHistogram>();
        pushCrashIndexNode(name, CrashIndexNode::Kind::Histogram,
                           slot.get());
    }
    return *slot;
}

std::vector<std::pair<std::string, uint64_t>>
Registry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        out.emplace_back(name, counter->value());
    return out;
}

std::vector<std::pair<std::string, double>>
Registry::gauges() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(gauges_.size());
    for (const auto &[name, gauge] : gauges_)
        out.emplace_back(name, gauge->value());
    return out;
}

std::vector<std::pair<std::string, const LatencyHistogram *>>
Registry::histograms() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, const LatencyHistogram *>> out;
    out.reserve(histograms_.size());
    for (const auto &[name, histogram] : histograms_)
        out.emplace_back(name, histogram.get());
    return out;
}

void
Registry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, gauge] : gauges_)
        gauge->reset();
    for (auto &[name, histogram] : histograms_)
        histogram->reset();
}

const char *
gitDescribe()
{
    return SLAMBENCH_GIT_DESCRIBE;
}

const char *
buildType()
{
    return SLAMBENCH_BUILD_TYPE;
}

double
peakRssBytes()
{
#ifdef __linux__
    // VmHWM is the resident-set high-water mark in kB.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            const double kb = std::atof(line.c_str() + 6);
            if (kb > 0.0)
                return kb * 1024.0;
        }
    }
#endif
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0)
        // ru_maxrss is kB on Linux (bytes on macOS, close enough
        // for a fallback that Linux never takes).
        return static_cast<double>(usage.ru_maxrss) * 1024.0;
    return 0.0;
}

double
processCpuSeconds()
{
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    auto seconds = [](const struct timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

/** Guards g_current_session; function-local for init-order safety. */
std::mutex &
currentSessionMutex()
{
    static std::mutex mutex;
    return mutex;
}

/** The process's current active session (nullptr when none). */
RunSession *g_current_session = nullptr;

/** Header of the per-frame CSV (streaming and writeFramesCsv). */
std::vector<std::string>
frameCsvColumns(const std::vector<std::string> &kernel_names)
{
    std::vector<std::string> columns{
        "label",         "frame",      "wall_ms",
        "preprocess_ms", "track_ms",   "integrate_ms",
        "raycast_ms",    "ate_m",      "tracked",
        "integrated",    "sim_joules", "rss_peak_bytes",
        "sim_seconds"};
    for (const std::string &name : kernel_names)
        columns.push_back("kernel_" + name + "_ms");
    for (const std::string &name : kernel_names)
        columns.push_back("kernel_" + name + "_items");
    return columns;
}

/** @return values[i], or 0 past the end of @p values. */
double
valueAt(const std::vector<double> &values, size_t i)
{
    return i < values.size() ? values[i] : 0.0;
}

/** Append one frame row with @p kernels kernel columns to @p csv. */
void
appendFrameRow(CsvWriter &csv, const FrameTelemetry &t, size_t kernels)
{
    csv.beginRow()
        .cell(t.label)
        .cell(static_cast<uint64_t>(t.frame))
        .cell(t.wallSeconds * 1e3)
        .cell(t.preprocessSeconds * 1e3)
        .cell(t.trackSeconds * 1e3)
        .cell(t.integrateSeconds * 1e3)
        .cell(t.raycastSeconds * 1e3)
        .cell(t.ateMeters)
        .cell(t.tracked ? "1" : "0")
        .cell(t.integrated ? "1" : "0")
        .cell(t.simJoules)
        .cell(t.rssPeakBytes)
        .cell(t.simSeconds);
    for (size_t k = 0; k < kernels; ++k)
        csv.cell(valueAt(t.kernelSeconds, k) * 1e3);
    for (size_t k = 0; k < kernels; ++k)
        csv.cell(valueAt(t.kernelItems, k));
    csv.endRow();
}

} // namespace

RunSession::RunSession() = default;

RunSession::RunSession(std::string json_path, std::string csv_path,
                       std::string generator,
                       std::vector<std::string> kernel_names)
    : jsonPath_(std::move(json_path)), csvPath_(std::move(csv_path)),
      generator_(std::move(generator)),
      kernelNames_(std::move(kernel_names))
{
    if (jsonPath_.empty() && csvPath_.empty())
        return;
    active_ = true;
    startNs_ = slambench::metrics::now_ns();
    startCpuSeconds_ = processCpuSeconds();
    if (!csvPath_.empty()) {
        // Stream rows as frames arrive (flushed per window in
        // addFrame) so a crash loses at most one window.
        csvStream_ = std::make_unique<std::ofstream>(csvPath_);
        if (*csvStream_) {
            csvWriter_ = std::make_unique<CsvWriter>(
                *csvStream_, frameCsvColumns(kernelNames_));
        } else {
            logError() << "metrics: cannot write " << csvPath_;
            csvStream_.reset();
        }
    }
    registerCurrent();
}

RunSession::RunSession(RunSession &&other) noexcept
{
    std::lock_guard<std::mutex> lock(currentSessionMutex());
    jsonPath_ = std::move(other.jsonPath_);
    csvPath_ = std::move(other.csvPath_);
    generator_ = std::move(other.generator_);
    kernelNames_ = std::move(other.kernelNames_);
    active_ = other.active_;
    startNs_ = other.startNs_;
    startCpuSeconds_ = other.startCpuSeconds_;
    params_ = std::move(other.params_);
    extraSummary_ = std::move(other.extraSummary_);
    frames_ = std::move(other.frames_);
    mutex_ = std::move(other.mutex_);
    csvStream_ = std::move(other.csvStream_);
    csvWriter_ = std::move(other.csvWriter_);
    csvRowsFlushed_ = other.csvRowsFlushed_;
    other.active_ = false;
    other.mutex_ = std::make_unique<std::mutex>();
    if (g_current_session == &other)
        g_current_session = this;
}

RunSession &
RunSession::operator=(RunSession &&other) noexcept
{
    if (this != &other) {
        finish();
        std::lock_guard<std::mutex> lock(currentSessionMutex());
        jsonPath_ = std::move(other.jsonPath_);
        csvPath_ = std::move(other.csvPath_);
        generator_ = std::move(other.generator_);
        kernelNames_ = std::move(other.kernelNames_);
        active_ = other.active_;
        startNs_ = other.startNs_;
        startCpuSeconds_ = other.startCpuSeconds_;
        params_ = std::move(other.params_);
        extraSummary_ = std::move(other.extraSummary_);
        frames_ = std::move(other.frames_);
        mutex_ = std::move(other.mutex_);
        csvStream_ = std::move(other.csvStream_);
        csvWriter_ = std::move(other.csvWriter_);
        csvRowsFlushed_ = other.csvRowsFlushed_;
        other.active_ = false;
        other.mutex_ = std::make_unique<std::mutex>();
        if (g_current_session == &other)
            g_current_session = this;
    }
    return *this;
}

RunSession::~RunSession() { finish(); }

void
RunSession::registerCurrent()
{
    std::lock_guard<std::mutex> lock(currentSessionMutex());
    g_current_session = this;
}

void
RunSession::unregisterCurrent()
{
    std::lock_guard<std::mutex> lock(currentSessionMutex());
    if (g_current_session == this)
        g_current_session = nullptr;
}

bool
RunSession::writeCurrentJson(std::ostream &os)
{
    // Holding the global lock across writeJson keeps the session
    // alive for the duration (finish() and moves take it too); the
    // instance lock inside writeJson orders us against addFrame.
    std::lock_guard<std::mutex> lock(currentSessionMutex());
    if (!g_current_session)
        return false;
    g_current_session->writeJson(os);
    return true;
}

void
RunSession::setParam(const std::string &key, const std::string &value)
{
    if (!active_)
        return;
    std::lock_guard<std::mutex> lock(*mutex_);
    for (auto &[existing, existing_value] : params_) {
        if (existing == key) {
            existing_value = value;
            return;
        }
    }
    params_.emplace_back(key, value);
}

void
RunSession::setSummary(const std::string &key, double value)
{
    if (!active_)
        return;
    std::lock_guard<std::mutex> lock(*mutex_);
    for (auto &[existing, existing_value] : extraSummary_) {
        if (existing == key) {
            existing_value = value;
            return;
        }
    }
    extraSummary_.emplace_back(key, value);
}

void
RunSession::addFrame(const FrameTelemetry &telemetry)
{
    if (!active_)
        return;
    std::lock_guard<std::mutex> lock(*mutex_);
    frames_.push_back(telemetry);
    if (csvWriter_) {
        appendFrameRow(*csvWriter_, telemetry, kernelNames_.size());
        flushCsvLocked(false);
    }
}

void
RunSession::flushCsvLocked(bool final_flush)
{
    if (!csvWriter_)
        return;
    const size_t rows = csvWriter_->rowCount();
    const size_t pending = rows - csvRowsFlushed_;
    if (pending == 0 ||
        (!final_flush && pending < kCsvFlushInterval))
        return;
    csvStream_->flush();
    Registry::instance()
        .counter("metrics.frames.flushed")
        .add(pending);
    csvRowsFlushed_ = rows;
}

void
RunSession::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(*mutex_);
    // Exact per-frame distributions for the summary block; the
    // quantiles reuse support::percentile (linear interpolation).
    std::vector<double> wall;
    std::vector<double> ate;
    wall.reserve(frames_.size());
    ate.reserve(frames_.size());
    size_t tracked = 0;
    size_t integrated = 0;
    double sim_joules = 0.0;
    double frame_rss_peak = 0.0;
    for (const FrameTelemetry &t : frames_) {
        wall.push_back(t.wallSeconds);
        ate.push_back(t.ateMeters);
        tracked += t.tracked ? 1 : 0;
        integrated += t.integrated ? 1 : 0;
        sim_joules += t.simJoules;
        frame_rss_peak = std::max(frame_rss_peak, t.rssPeakBytes);
    }
    double wall_sum = 0.0;
    double wall_max = 0.0;
    double ate_sum = 0.0;
    double ate_max = 0.0;
    for (double w : wall) {
        wall_sum += w;
        wall_max = std::max(wall_max, w);
    }
    for (double a : ate) {
        ate_sum += a;
        ate_max = std::max(ate_max, a);
    }
    const double n = static_cast<double>(frames_.size());
    const double rss_peak =
        std::max(frame_rss_peak, peakRssBytes());

    os << "{\n";
    os << "  \"schema\": \"slambench-run-report\",\n";
    os << "  \"schema_version\": " << kSchemaVersion << ",\n";
    os << "  \"generator\": " << jsonString(generator_) << ",\n";
    os << "  \"created_unix\": "
       << static_cast<long long>(std::time(nullptr)) << ",\n";
    os << "  \"git_describe\": "
       << jsonString(SLAMBENCH_GIT_DESCRIBE) << ",\n";
    os << "  \"build\": {\n";
    os << "    \"build_type\": " << jsonString(SLAMBENCH_BUILD_TYPE)
       << ",\n";
    os << "    \"compiler\": " << jsonString(SLAMBENCH_COMPILER)
       << ",\n";
    os << "    \"cxx_flags\": " << jsonString(SLAMBENCH_CXX_FLAGS)
       << "\n  },\n";

    os << "  \"config\": {";
    for (size_t i = 0; i < params_.size(); ++i) {
        os << (i ? ",\n    " : "\n    ")
           << jsonString(params_[i].first) << ": "
           << jsonString(params_[i].second);
    }
    os << (params_.empty() ? "},\n" : "\n  },\n");

    const double wall_seconds =
        active_ ? static_cast<double>(slambench::metrics::now_ns() -
                                      startNs_) *
                      1e-9
                : 0.0;
    os << "  \"run\": {\n";
    os << "    \"wall_seconds\": " << jsonNumber(wall_seconds)
       << ",\n";
    os << "    \"cpu_seconds\": "
       << jsonNumber(processCpuSeconds() - startCpuSeconds_) << ",\n";
    os << "    \"frames\": " << frames_.size() << ",\n";
    os << "    \"tracked_frames\": " << tracked << ",\n";
    os << "    \"integrated_frames\": " << integrated << ",\n";
    os << "    \"peak_rss_bytes\": " << jsonNumber(rss_peak)
       << "\n  },\n";

    os << "  \"summary\": {\n";
    os << "    \"frame_wall_seconds_mean\": "
       << jsonNumber(n > 0.0 ? wall_sum / n : 0.0) << ",\n";
    os << "    \"frame_wall_seconds_p50\": "
       << jsonNumber(support::percentile(wall, 50.0)) << ",\n";
    os << "    \"frame_wall_seconds_p90\": "
       << jsonNumber(support::percentile(wall, 90.0)) << ",\n";
    os << "    \"frame_wall_seconds_p99\": "
       << jsonNumber(support::percentile(wall, 99.0)) << ",\n";
    os << "    \"frame_wall_seconds_max\": " << jsonNumber(wall_max)
       << ",\n";
    os << "    \"ate_mean_m\": "
       << jsonNumber(n > 0.0 ? ate_sum / n : 0.0) << ",\n";
    os << "    \"ate_max_m\": " << jsonNumber(ate_max) << ",\n";
    os << "    \"tracked_fraction\": "
       << jsonNumber(n > 0.0 ? static_cast<double>(tracked) / n
                             : 0.0)
       << ",\n";
    os << "    \"sim_joules_total\": " << jsonNumber(sim_joules)
       << ",\n";
    os << "    \"peak_rss_bytes\": " << jsonNumber(rss_peak);
    for (const auto &[key, value] : extraSummary_)
        os << ",\n    " << jsonString(key) << ": "
           << jsonNumber(value);
    os << "\n  },\n";

    const Registry &registry = Registry::instance();
    os << "  \"counters\": {";
    const auto counters = registry.counters();
    for (size_t i = 0; i < counters.size(); ++i) {
        os << (i ? ",\n    " : "\n    ")
           << jsonString(counters[i].first) << ": "
           << counters[i].second;
    }
    os << (counters.empty() ? "},\n" : "\n  },\n");

    os << "  \"gauges\": {";
    const auto gauges = registry.gauges();
    for (size_t i = 0; i < gauges.size(); ++i) {
        os << (i ? ",\n    " : "\n    ")
           << jsonString(gauges[i].first) << ": "
           << jsonNumber(gauges[i].second);
    }
    os << (gauges.empty() ? "},\n" : "\n  },\n");

    os << "  \"histograms\": {";
    const auto histograms = registry.histograms();
    bool first_histogram = true;
    for (const auto &[name, histogram] : histograms) {
        os << (first_histogram ? "\n    " : ",\n    ")
           << jsonString(name) << ": {\n";
        first_histogram = false;
        os << "      \"count\": " << histogram->count() << ",\n";
        os << "      \"sum\": " << jsonNumber(histogram->sum())
           << ",\n";
        os << "      \"mean\": " << jsonNumber(histogram->mean())
           << ",\n";
        os << "      \"min\": " << jsonNumber(histogram->min())
           << ",\n";
        os << "      \"max\": " << jsonNumber(histogram->max())
           << ",\n";
        os << "      \"p50\": "
           << jsonNumber(histogram->quantile(0.50)) << ",\n";
        os << "      \"p90\": "
           << jsonNumber(histogram->quantile(0.90)) << ",\n";
        os << "      \"p99\": "
           << jsonNumber(histogram->quantile(0.99)) << ",\n";
        os << "      \"buckets\": [";
        bool first_bucket = true;
        for (size_t i = 0; i < histogram->numBuckets(); ++i) {
            const uint64_t bucket_count = histogram->bucketCount(i);
            if (bucket_count == 0)
                continue;
            os << (first_bucket ? "\n        [" : ",\n        [");
            first_bucket = false;
            os << jsonNumber(histogram->bucketLo(i)) << ", ";
            const double hi = histogram->bucketHi(i);
            if (std::isfinite(hi))
                os << jsonNumber(hi);
            else
                os << "null";
            os << ", " << bucket_count << "]";
        }
        os << (first_bucket ? "]\n    }" : "\n      ]\n    }");
    }
    os << (histograms.empty() ? "}\n" : "\n  }\n");
    os << "}\n";
}

void
RunSession::writeFramesCsv(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(*mutex_);
    CsvWriter csv(os, frameCsvColumns(kernelNames_));
    for (const FrameTelemetry &t : frames_)
        appendFrameRow(csv, t, kernelNames_.size());
}

void
RunSession::finish()
{
    if (!active_)
        return;
    unregisterCurrent();
    if (!jsonPath_.empty()) {
        std::ofstream os(jsonPath_);
        if (os) {
            writeJson(os);
            logInfo() << "metrics: wrote " << jsonPath_;
        } else {
            logError() << "metrics: cannot write " << jsonPath_;
        }
    }
    if (csvWriter_) {
        {
            std::lock_guard<std::mutex> lock(*mutex_);
            flushCsvLocked(true);
            csvWriter_.reset();
            csvStream_.reset();
        }
        logInfo() << "metrics: wrote " << csvPath_;
    }
    double wall_sum = 0.0;
    double ate_max = 0.0;
    for (const FrameTelemetry &t : frames_) {
        wall_sum += t.wallSeconds;
        ate_max = std::max(ate_max, t.ateMeters);
    }
    logInfo() << support::format(
        "metrics: %s: %zu frames, mean %.2f ms/frame, max ATE "
        "%.4f m, peak RSS %.1f MB",
        generator_.c_str(), frames_.size(),
        frames_.empty()
            ? 0.0
            : wall_sum * 1e3 / static_cast<double>(frames_.size()),
        ate_max, peakRssBytes() / (1024.0 * 1024.0));
    active_ = false;
}

} // namespace slambench::support::metrics
