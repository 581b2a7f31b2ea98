/**
 * @file
 * Tests for the live-telemetry subsystem: Prometheus text exposition
 * rendering, the HTTP endpoint behavior (/metrics, /healthz, /runz),
 * the SLO watchdog, the flight-recorder ring, streaming CSV flushes,
 * and the crash-dump writer (including a fork-based fatal-signal
 * test, which the TSan smoke run excludes by suite name).
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmark.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/slo_watchdog.hpp"
#include "support/telemetry_server.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace {

using namespace slambench::support::telemetry;
namespace metrics = slambench::support::metrics;
namespace trace = slambench::support::trace;
using slambench::support::ThreadPool;

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Lines of @p text that start with @p prefix. */
std::vector<std::string>
linesStartingWith(const std::string &text, const std::string &prefix)
{
    std::vector<std::string> out;
    for (const std::string &line : splitLines(text))
        if (line.rfind(prefix, 0) == 0)
            out.push_back(line);
    return out;
}

std::string
tempPath(const std::string &stem)
{
    return ::testing::TempDir() + stem + "_" +
           std::to_string(::getpid());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Blocking one-shot HTTP client against 127.0.0.1:@p port. */
std::string
httpRequest(int port, const std::string &request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    size_t off = 0;
    while (off < request.size()) {
        const ssize_t n = ::write(fd, request.data() + off,
                                  request.size() - off);
        if (n <= 0) {
            ADD_FAILURE() << "short write to telemetry server";
            break;
        }
        off += static_cast<size_t>(n);
    }
    std::string response;
    char buf[4096];
    ssize_t got;
    while ((got = ::read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, static_cast<size_t>(got));
    ::close(fd);
    return response;
}

std::string
httpGet(int port, const std::string &path)
{
    return httpRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

// --- Minimal JSON validator for the crash-dump schema -----------
//
// Recursive-descent recognizer: accepts exactly the JSON grammar
// (objects, arrays, strings with escapes, numbers, literals) and
// nothing else. The crash dumps are also validated by Python in the
// telemetry smoke script; this keeps the unit test self-contained.

struct JsonCursor
{
    const char *p;
    const char *end;
};

void
skipWs(JsonCursor &c)
{
    while (c.p < c.end && (*c.p == ' ' || *c.p == '\t' ||
                           *c.p == '\n' || *c.p == '\r'))
        ++c.p;
}

bool parseJsonValue(JsonCursor &c);

bool
parseJsonString(JsonCursor &c)
{
    if (c.p >= c.end || *c.p != '"')
        return false;
    ++c.p;
    while (c.p < c.end && *c.p != '"') {
        if (*c.p == '\\') {
            ++c.p;
            if (c.p >= c.end)
                return false;
        }
        ++c.p;
    }
    if (c.p >= c.end)
        return false;
    ++c.p; // closing quote
    return true;
}

bool
parseJsonNumber(JsonCursor &c)
{
    const char *start = c.p;
    if (c.p < c.end && *c.p == '-')
        ++c.p;
    while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p)))
        ++c.p;
    if (c.p == start || (*start == '-' && c.p == start + 1))
        return false;
    if (c.p < c.end && *c.p == '.') {
        ++c.p;
        if (c.p >= c.end || !std::isdigit(static_cast<unsigned char>(*c.p)))
            return false;
        while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p)))
            ++c.p;
    }
    if (c.p < c.end && (*c.p == 'e' || *c.p == 'E')) {
        ++c.p;
        if (c.p < c.end && (*c.p == '+' || *c.p == '-'))
            ++c.p;
        if (c.p >= c.end || !std::isdigit(static_cast<unsigned char>(*c.p)))
            return false;
        while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p)))
            ++c.p;
    }
    return true;
}

bool
parseJsonObject(JsonCursor &c)
{
    ++c.p; // '{'
    skipWs(c);
    if (c.p < c.end && *c.p == '}') {
        ++c.p;
        return true;
    }
    while (true) {
        skipWs(c);
        if (!parseJsonString(c))
            return false;
        skipWs(c);
        if (c.p >= c.end || *c.p != ':')
            return false;
        ++c.p;
        if (!parseJsonValue(c))
            return false;
        skipWs(c);
        if (c.p >= c.end)
            return false;
        if (*c.p == ',') {
            ++c.p;
            continue;
        }
        if (*c.p == '}') {
            ++c.p;
            return true;
        }
        return false;
    }
}

bool
parseJsonArray(JsonCursor &c)
{
    ++c.p; // '['
    skipWs(c);
    if (c.p < c.end && *c.p == ']') {
        ++c.p;
        return true;
    }
    while (true) {
        if (!parseJsonValue(c))
            return false;
        skipWs(c);
        if (c.p >= c.end)
            return false;
        if (*c.p == ',') {
            ++c.p;
            continue;
        }
        if (*c.p == ']') {
            ++c.p;
            return true;
        }
        return false;
    }
}

bool
parseJsonValue(JsonCursor &c)
{
    skipWs(c);
    if (c.p >= c.end)
        return false;
    switch (*c.p) {
    case '{': return parseJsonObject(c);
    case '[': return parseJsonArray(c);
    case '"': return parseJsonString(c);
    case 't':
        if (c.end - c.p >= 4 && std::strncmp(c.p, "true", 4) == 0) {
            c.p += 4;
            return true;
        }
        return false;
    case 'f':
        if (c.end - c.p >= 5 && std::strncmp(c.p, "false", 5) == 0) {
            c.p += 5;
            return true;
        }
        return false;
    case 'n':
        if (c.end - c.p >= 4 && std::strncmp(c.p, "null", 4) == 0) {
            c.p += 4;
            return true;
        }
        return false;
    default: return parseJsonNumber(c);
    }
}

bool
isValidJson(const std::string &text)
{
    JsonCursor c{text.data(), text.data() + text.size()};
    if (!parseJsonValue(c))
        return false;
    skipWs(c);
    return c.p == c.end;
}

/** Occurrences of @p needle in @p haystack. */
size_t
countOccurrences(const std::string &haystack,
                 const std::string &needle)
{
    size_t count = 0;
    for (size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

// --- Prometheus exposition rendering ----------------------------

TEST(PrometheusExposition, SanitizeMetricName)
{
    EXPECT_EQ(sanitizeMetricName("live.frame_wall_seconds"),
              "live_frame_wall_seconds");
    EXPECT_EQ(sanitizeMetricName("dse.pool.occupancy"),
              "dse_pool_occupancy");
    EXPECT_EQ(sanitizeMetricName("a:b_c9"), "a:b_c9");
    EXPECT_EQ(sanitizeMetricName("3d.vision"), "_3d_vision");
    EXPECT_EQ(sanitizeMetricName(""), "_");
    EXPECT_EQ(sanitizeMetricName("kernel/ms"), "kernel_ms");
}

TEST(PrometheusExposition, EscapeLabelValue)
{
    EXPECT_EQ(escapeLabelValue("plain"), "plain");
    EXPECT_EQ(escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(escapeLabelValue("line1\nline2"), "line1\\nline2");
}

TEST(PrometheusExposition, CounterFamilyWithHelpAndType)
{
    metrics::Registry::instance()
        .counter("telemetry_test.exposition.counter")
        .add(3);
    std::ostringstream out;
    renderPrometheus(out);
    const std::string text = out.str();

    const std::string family =
        "telemetry_test_exposition_counter_total";
    EXPECT_NE(text.find("# HELP " + family + " "),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE " + family + " counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("\n" + family + " 3\n"), std::string::npos);
}

TEST(PrometheusExposition, CounterTotalSuffixNotDoubled)
{
    metrics::Registry::instance()
        .counter("telemetry_test.events_total")
        .add(1);
    std::ostringstream out;
    renderPrometheus(out);
    const std::string text = out.str();

    EXPECT_NE(
        text.find("# TYPE telemetry_test_events_total counter"),
        std::string::npos);
    EXPECT_EQ(text.find("telemetry_test_events_total_total"),
              std::string::npos);
}

TEST(PrometheusExposition, GaugeFamily)
{
    metrics::Registry::instance()
        .gauge("telemetry_test.exposition.gauge")
        .set(2.5);
    std::ostringstream out;
    renderPrometheus(out);
    const std::string text = out.str();

    EXPECT_NE(
        text.find(
            "# TYPE telemetry_test_exposition_gauge gauge\n"),
        std::string::npos);
    EXPECT_NE(text.find("\ntelemetry_test_exposition_gauge 2.5\n"),
              std::string::npos);
}

TEST(PrometheusExposition, HistogramBucketsCumulativeToCount)
{
    auto &hist = metrics::Registry::instance().histogram(
        "telemetry_test.exposition.latency");
    hist.record(1e-3);
    hist.record(2e-3);
    hist.record(0.5);
    std::ostringstream out;
    renderPrometheus(out);
    const std::string text = out.str();

    const std::string family =
        "telemetry_test_exposition_latency";
    EXPECT_NE(text.find("# TYPE " + family + " histogram\n"),
              std::string::npos);

    // Bucket counts must be cumulative and end with le="+Inf" equal
    // to _count.
    const auto buckets =
        linesStartingWith(text, family + "_bucket{le=\"");
    ASSERT_GE(buckets.size(), 2u);
    uint64_t previous = 0;
    for (const std::string &line : buckets) {
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos);
        const uint64_t cumulative =
            std::stoull(line.substr(space + 1));
        EXPECT_GE(cumulative, previous) << line;
        previous = cumulative;
    }
    EXPECT_NE(buckets.back().find("le=\"+Inf\""),
              std::string::npos);
    EXPECT_EQ(previous, 3u);
    EXPECT_NE(text.find("\n" + family + "_count 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("\n" + family + "_sum "),
              std::string::npos);
}

TEST(PrometheusExposition, EveryFamilyHasHelpBeforeType)
{
    std::ostringstream out;
    renderPrometheus(out);
    const auto lines = splitLines(out.str());
    ASSERT_FALSE(lines.empty());
    // The renderer emits families as (HELP, TYPE, samples...)
    // blocks; check every TYPE line is directly preceded by the
    // matching HELP line.
    for (size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].rfind("# TYPE ", 0) != 0)
            continue;
        ASSERT_GT(i, 0u);
        std::istringstream type_line(lines[i]);
        std::string hash, keyword, family;
        type_line >> hash >> keyword >> family;
        EXPECT_EQ(lines[i - 1].rfind("# HELP " + family + " ", 0),
                  0u)
            << "TYPE line not preceded by its HELP: " << lines[i];
    }
}

// --- Telemetry server endpoints ---------------------------------

TEST(TelemetryServer, MetricsHealthzRunzAndErrors)
{
    SloWatchdog::instance().reset();
    TelemetryServer server;
    ASSERT_TRUE(server.start(0));
    ASSERT_GT(server.port(), 0);

    const std::string metrics_response =
        httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics_response.find("HTTP/1.0 200 OK"),
              std::string::npos);
    EXPECT_NE(metrics_response.find("version=0.0.4"),
              std::string::npos);
    EXPECT_NE(metrics_response.find("# TYPE process_peak_rss_bytes"
                                    " gauge"),
              std::string::npos);

    const std::string healthz = httpGet(server.port(), "/healthz");
    EXPECT_NE(healthz.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(healthz.find("ok\n"), std::string::npos);

    const std::string unknown = httpGet(server.port(), "/nope");
    EXPECT_NE(unknown.find("HTTP/1.0 404"), std::string::npos);

    const std::string post = httpRequest(
        server.port(), "POST /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(post.find("HTTP/1.0 405"), std::string::npos);

    // /runz without an active run session.
    const std::string no_run = httpGet(server.port(), "/runz");
    EXPECT_NE(no_run.find("HTTP/1.0 404"), std::string::npos);
    EXPECT_NE(no_run.find("no active run session"),
              std::string::npos);

    // /runz with a live session streams the in-flight report.
    {
        const std::string json_path =
            tempPath("telemetry_test_runz") + ".json";
        metrics::RunSession session(json_path, "",
                                    "telemetry_test");
        metrics::FrameTelemetry frame;
        frame.wallSeconds = 0.01;
        session.addFrame(frame);
        const std::string runz = httpGet(server.port(), "/runz");
        EXPECT_NE(runz.find("HTTP/1.0 200 OK"), std::string::npos);
        EXPECT_NE(runz.find("application/json"),
                  std::string::npos);
        EXPECT_NE(runz.find("\"generator\": \"telemetry_test\""),
                  std::string::npos);
        session.finish();
        std::remove(json_path.c_str());
    }

    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.port(), -1);
}

TEST(TelemetryServer, TracezServesFlightRecorderEventsAsJson)
{
    auto &recorder = FlightRecorder::instance();
    recorder.reset();
    recorder.setEnabled(true);
    recorder.record(EventKind::Frame, 5, 0.033, 0.002, "tracked");
    recorder.record(EventKind::SloBreach, 6, 1.5, 1.0,
                    "say \"hi\"");

    TelemetryServer server;
    ASSERT_TRUE(server.start(0));
    const std::string response =
        httpGet(server.port(), "/tracez");
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("application/json"),
              std::string::npos);

    const size_t body_start = response.find("\r\n\r\n");
    ASSERT_NE(body_start, std::string::npos);
    const std::string body = response.substr(body_start + 4);
    EXPECT_TRUE(isValidJson(body)) << body.substr(0, 400);
    EXPECT_NE(body.find("\"schema\": \"slambench-tracez\""),
              std::string::npos);
    EXPECT_NE(body.find("\"enabled\": true"), std::string::npos);
    EXPECT_NE(body.find("\"total_recorded\": 2"),
              std::string::npos);
    EXPECT_EQ(countOccurrences(body, "{\"ns\": "), 2u);
    EXPECT_NE(body.find("\"kind\": \"frame\""), std::string::npos);
    EXPECT_NE(body.find("\"frame\": 5"), std::string::npos);
    EXPECT_NE(body.find("\"detail\": \"tracked\""),
              std::string::npos);
    // Detail strings are JSON-escaped on the way out.
    EXPECT_NE(body.find("\"detail\": \"say \\\"hi\\\"\""),
              std::string::npos);

    // The 404 hint advertises the endpoint.
    EXPECT_NE(httpGet(server.port(), "/nope").find("/tracez"),
              std::string::npos);

    server.stop();
    recorder.setEnabled(false);
    recorder.reset();
}

TEST(TelemetryServer, TracezQueryServesRetainedSpanTrees)
{
    // Arm request tracing with flag-only retention and record one
    // SLO-breaching frame trace with a nested span.
    trace::RequestTraceOptions options;
    options.sampleRate = 0.0;
    trace::RequestTracer::instance().configure(options);
    auto &tracer = trace::RequestTracer::instance();

    const trace::TraceContext ctx = tracer.begin("t07", 42);
    {
        trace::ScopedTraceContext scope(ctx);
        trace::ScopedSpan track("track", trace::Category::Kernel);
        trace::ScopedSpan reduce("reduce", trace::Category::Kernel);
    }
    trace::RequestTraceFinish fin;
    fin.durationSeconds = 0.2;
    fin.sloBreach = true;
    tracer.finish(ctx, fin);

    // Another tenant's sampled-out trace, to exercise filtering.
    const trace::TraceContext other = tracer.begin("t01", 7);
    tracer.finish(other, trace::RequestTraceFinish{});

    TelemetryServer server;
    ASSERT_TRUE(server.start(0));

    // Lookup by trace id returns the complete span tree.
    const std::string by_id = httpGet(
        server.port(),
        "/tracez?trace_id=" + trace::formatTraceId(ctx.traceId));
    EXPECT_NE(by_id.find("HTTP/1.0 200 OK"), std::string::npos);
    const size_t body_start = by_id.find("\r\n\r\n");
    ASSERT_NE(body_start, std::string::npos);
    const std::string body = by_id.substr(body_start + 4);
    EXPECT_TRUE(isValidJson(body)) << body.substr(0, 400);
    EXPECT_NE(body.find("\"schema\": \"slambench-tracez-query\""),
              std::string::npos);
    EXPECT_NE(body.find("\"matches\": 1"), std::string::npos);
    EXPECT_NE(body.find("\"tenant\": \"t07\""), std::string::npos);
    EXPECT_NE(body.find("\"frame\": 42"), std::string::npos);
    EXPECT_NE(body.find("\"slo_breach\": true"), std::string::npos);
    EXPECT_NE(body.find("\"name\": \"frame\""), std::string::npos);
    EXPECT_NE(body.find("\"name\": \"track\""), std::string::npos);
    EXPECT_NE(body.find("\"name\": \"reduce\""), std::string::npos);
    EXPECT_NE(body.find("\"children\""), std::string::npos);

    // Unknown and malformed trace ids are a 404, not an empty 200.
    EXPECT_NE(httpGet(server.port(),
                      "/tracez?trace_id=00000000000000ff")
                  .find("HTTP/1.0 404"),
              std::string::npos);
    EXPECT_NE(httpGet(server.port(), "/tracez?trace_id=bogus")
                  .find("HTTP/1.0 404"),
              std::string::npos);

    // Tenant and min_ms filters: t07's breach matches, t01 has no
    // retained traces at all (sampled out at rate 0).
    EXPECT_NE(
        httpGet(server.port(), "/tracez?tenant=t07&min_ms=100")
            .find("\"matches\": 1"),
        std::string::npos);
    EXPECT_NE(httpGet(server.port(), "/tracez?tenant=t01")
                  .find("\"matches\": 0"),
              std::string::npos);
    EXPECT_NE(httpGet(server.port(), "/tracez?min_ms=1000")
                  .find("\"matches\": 0"),
              std::string::npos);

    // The plain /tracez index lists the retained trace summary.
    const std::string index = httpGet(server.port(), "/tracez");
    EXPECT_NE(index.find("\"request_tracing\""), std::string::npos);
    EXPECT_NE(index.find(trace::formatTraceId(ctx.traceId)),
              std::string::npos);

    server.stop();
    trace::RequestTracer::instance().disarm();
    trace::RequestTracer::instance().clear();
}

TEST(PrometheusRender, HistogramCarriesTraceExemplar)
{
    auto &registry = metrics::Registry::instance();
    registry.resetValues();
    const std::string name = labeledMetricName(
        "serve.tenant.frame_seconds", "tenant", "t03");
    auto &histogram = registry.histogram(name);
    histogram.record(0.004);
    histogram.record(0.050);

    trace::RequestTraceOptions options;
    options.sampleRate = 0.0;
    trace::RequestTracer::instance().configure(options);
    auto &tracer = trace::RequestTracer::instance();
    const trace::TraceContext ctx = tracer.begin("t03", 3);
    trace::RequestTraceFinish fin;
    fin.durationSeconds = 0.050;
    fin.sloBreach = true;
    fin.exemplarMetric = name;
    tracer.finish(ctx, fin);

    std::ostringstream out;
    renderPrometheus(out);
    const std::string text = out.str();

    // Exactly one bucket line carries the exemplar, it references
    // the retained trace id, and it is a bucket that covers the
    // exemplar value (le >= 0.050).
    const std::string marker =
        " # {trace_id=\"" + trace::formatTraceId(ctx.traceId) +
        "\"} 0.05";
    EXPECT_EQ(countOccurrences(text, "# {trace_id="), 1u);
    bool found = false;
    for (const std::string &line : splitLines(text)) {
        if (line.find(marker) == std::string::npos)
            continue;
        found = true;
        EXPECT_NE(
            line.find("serve_tenant_frame_seconds_bucket"),
            std::string::npos)
            << line;
        EXPECT_NE(line.find("tenant=\"t03\""), std::string::npos);
        // The annotated bucket's le covers the exemplar value.
        const size_t le_pos = line.find("le=\"");
        ASSERT_NE(le_pos, std::string::npos);
        const std::string le_text = line.substr(le_pos + 4);
        if (le_text.rfind("+Inf", 0) != 0) {
            EXPECT_GE(std::atof(le_text.c_str()), 0.050) << line;
        }
    }
    EXPECT_TRUE(found) << text;

    // Disarmed and cleared: the exemplar disappears from the next
    // scrape instead of dangling on a dead trace id.
    trace::RequestTracer::instance().disarm();
    trace::RequestTracer::instance().clear();
    std::ostringstream after;
    renderPrometheus(after);
    EXPECT_EQ(after.str().find("# {trace_id="), std::string::npos);
    registry.resetValues();
}

TEST(TelemetryServer, HealthzFlipsOn503AfterInjectedBreach)
{
    TelemetryServer server;
    ASSERT_TRUE(server.start(0));

    SloThresholds thresholds;
    thresholds.maxAteMeters = 0.05;
    SloWatchdog::instance().configure(thresholds);
    EXPECT_NE(httpGet(server.port(), "/healthz")
                  .find("HTTP/1.0 200 OK"),
              std::string::npos);

    SloWatchdog::instance().onFrame(7, 0.25, 0);

    const std::string breached =
        httpGet(server.port(), "/healthz");
    EXPECT_NE(breached.find("HTTP/1.0 503 Service Unavailable"),
              std::string::npos);
    EXPECT_NE(breached.find("breach: ate_meters"),
              std::string::npos);

    server.stop();
    SloWatchdog::instance().reset();
}

TEST(TelemetryServer, StartRejectsOccupiedPortAndDoubleStart)
{
    TelemetryServer first;
    ASSERT_TRUE(first.start(0));
    EXPECT_FALSE(first.start(0)); // already running

    TelemetryServer second;
    ASSERT_TRUE(second.start(0));
    EXPECT_NE(first.port(), second.port());

    TelemetryServer third;
    EXPECT_FALSE(third.start(first.port())); // EADDRINUSE
    EXPECT_FALSE(third.running());
    EXPECT_EQ(third.port(), -1);

    second.stop();
    first.stop();
}

// --- SLO watchdog -----------------------------------------------

TEST(SloWatchdog, DisabledByDefaultAndAfterReset)
{
    auto &watchdog = SloWatchdog::instance();
    watchdog.reset();
    EXPECT_FALSE(watchdog.enabled());
    EXPECT_TRUE(watchdog.healthy());
    EXPECT_TRUE(watchdog.breaches().empty());
    EXPECT_EQ(watchdog.healthzText(), "ok\n");

    // A disarmed watchdog never breaches, whatever the inputs.
    watchdog.onFrame(0, 1e9, 1000);
    EXPECT_TRUE(watchdog.healthy());
}

TEST(SloWatchdog, AteBreachLatchesOnce)
{
    auto &watchdog = SloWatchdog::instance();
    SloThresholds thresholds;
    thresholds.maxAteMeters = 0.1;
    watchdog.configure(thresholds);

    const uint64_t breaches_before = metrics::Registry::instance()
                                         .counter("slo.breaches")
                                         .value();
    watchdog.onFrame(3, 0.05, 0);
    EXPECT_TRUE(watchdog.healthy());

    watchdog.onFrame(4, 0.5, 0);
    EXPECT_FALSE(watchdog.healthy());
    watchdog.onFrame(5, 0.6, 0); // same SLO: stays one breach

    const auto breaches = watchdog.breaches();
    ASSERT_EQ(breaches.size(), 1u);
    EXPECT_EQ(breaches[0].slo, "ate_meters");
    EXPECT_DOUBLE_EQ(breaches[0].value, 0.5);
    EXPECT_DOUBLE_EQ(breaches[0].limit, 0.1);
    EXPECT_EQ(breaches[0].frame, 4u);
    EXPECT_GT(breaches[0].ns, 0u);
    EXPECT_EQ(metrics::Registry::instance()
                      .counter("slo.breaches")
                      .value() -
                  breaches_before,
              1u);
    EXPECT_DOUBLE_EQ(
        metrics::Registry::instance().gauge("slo.healthy").value(),
        0.0);
    EXPECT_NE(watchdog.healthzText().find("breach: ate_meters"),
              std::string::npos);

    watchdog.reset();
    EXPECT_TRUE(watchdog.healthy());
    EXPECT_DOUBLE_EQ(
        metrics::Registry::instance().gauge("slo.healthy").value(),
        1.0);
}

TEST(SloWatchdog, ConsecutiveTrackingFailureBreach)
{
    auto &watchdog = SloWatchdog::instance();
    SloThresholds thresholds;
    thresholds.maxConsecutiveTrackingFailures = 2;
    watchdog.configure(thresholds);

    watchdog.onFrame(0, 0.0, 2);
    EXPECT_TRUE(watchdog.healthy());
    watchdog.onFrame(1, 0.0, 3);
    EXPECT_FALSE(watchdog.healthy());
    const auto breaches = watchdog.breaches();
    ASSERT_EQ(breaches.size(), 1u);
    EXPECT_EQ(breaches[0].slo, "consecutive_tracking_failures");
    watchdog.reset();
}

TEST(SloWatchdog, FrameP99BreachFromLiveHistogram)
{
    auto &hist = metrics::Registry::instance().histogram(
        "live.frame_wall_seconds");
    for (int i = 0; i < 100; ++i)
        hist.record(2.0);

    auto &watchdog = SloWatchdog::instance();
    SloThresholds thresholds;
    thresholds.frameP99Seconds = 0.1;
    watchdog.configure(thresholds);
    watchdog.onFrame(9, 0.0, 0);

    const auto breaches = watchdog.breaches();
    ASSERT_EQ(breaches.size(), 1u);
    EXPECT_EQ(breaches[0].slo, "frame_p99_seconds");
    EXPECT_GT(breaches[0].value, 0.1);
    watchdog.reset();
    hist.reset();
}

TEST(SloWatchdog, PoolQueueStallBreach)
{
    auto &watchdog = SloWatchdog::instance();
    SloThresholds thresholds;
    thresholds.poolQueueStallSeconds = 0.005;
    watchdog.configure(thresholds);

    ThreadPool pool(1);
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool release = false;
    ThreadPool::TaskGroup group;
    // Park the only worker so the queued task behind it cannot make
    // progress.
    pool.submit(group, [&] {
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return release; });
    });
    while (pool.queueDepth() != 0)
        std::this_thread::yield(); // worker picked up the blocker
    pool.submit(group, [] {});
    EXPECT_EQ(pool.queueDepth(), 1u);

    watchdog.checkPools(0); // first observation starts the window
    EXPECT_TRUE(watchdog.healthy());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    watchdog.checkPools(1);
    EXPECT_FALSE(watchdog.healthy());
    const auto breaches = watchdog.breaches();
    ASSERT_EQ(breaches.size(), 1u);
    EXPECT_EQ(breaches[0].slo, "pool_queue_stall");
    EXPECT_GE(breaches[0].value, 0.005);

    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        release = true;
    }
    gate_cv.notify_all();
    pool.wait(group);
    EXPECT_EQ(pool.queueDepth(), 0u);
    watchdog.reset();
}

// --- frameTick live metrics -------------------------------------

TEST(LiveTelemetry, FrameTickRecordsLiveMetricsAndFailureRuns)
{
    auto &registry = metrics::Registry::instance();
    SloWatchdog::instance().reset();
    FlightRecorder::instance().setEnabled(false);

    EXPECT_FALSE(liveTelemetry());
    setLiveTelemetry(true);
    EXPECT_TRUE(liveTelemetry());

    const uint64_t frames_before =
        registry.counter("live.frames").value();
    const uint64_t failures_before =
        registry.counter("live.tracking_failures").value();

    frameTick(0, 0.01, 0.002, true);
    frameTick(1, 0.02, 0.004, false);
    frameTick(2, 0.03, 0.006, false);
    EXPECT_EQ(registry.counter("live.frames").value() -
                  frames_before,
              3u);
    EXPECT_EQ(registry.counter("live.tracking_failures").value() -
                  failures_before,
              2u);
    EXPECT_DOUBLE_EQ(
        registry.gauge("live.consecutive_tracking_failures")
            .value(),
        2.0);
    EXPECT_DOUBLE_EQ(
        registry.gauge("live.last_frame_seconds").value(), 0.03);
    EXPECT_DOUBLE_EQ(registry.gauge("live.last_ate_m").value(),
                     0.006);

    // A tracked frame resets the consecutive-failure run.
    frameTick(3, 0.01, 0.001, true);
    EXPECT_DOUBLE_EQ(
        registry.gauge("live.consecutive_tracking_failures")
            .value(),
        0.0);

    setLiveTelemetry(false);
    EXPECT_FALSE(liveTelemetry());
}

TEST(LiveTelemetry, FrameTickFeedsFlightRecorder)
{
    auto &recorder = FlightRecorder::instance();
    recorder.reset();
    recorder.setEnabled(true);
    setLiveTelemetry(true);

    frameTick(10, 0.015, 0.003, true);
    frameTick(11, 0.016, 0.004, false);

    const auto events = recorder.snapshot();
    // 2 Frame events + 1 TrackingFailure event.
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, EventKind::Frame);
    EXPECT_EQ(events[0].frame, 10u);
    EXPECT_STREQ(events[0].detail, "tracked");
    EXPECT_EQ(events[1].kind, EventKind::Frame);
    EXPECT_STREQ(events[1].detail, "lost");
    EXPECT_EQ(events[2].kind, EventKind::TrackingFailure);
    EXPECT_EQ(events[2].frame, 11u);
    EXPECT_DOUBLE_EQ(events[2].a, 1.0); // run length

    setLiveTelemetry(false);
    recorder.setEnabled(false);
    recorder.reset();
}

// --- Flight recorder ring ---------------------------------------

TEST(FlightRecorder, DisabledRecordIsANoOp)
{
    auto &recorder = FlightRecorder::instance();
    recorder.reset();
    recorder.setEnabled(false);
    recorder.record(EventKind::Note, 1, 2.0, 3.0, "ignored");
    EXPECT_EQ(recorder.totalRecorded(), 0u);
    EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRecorder, RoundTripsEventsOldestFirst)
{
    auto &recorder = FlightRecorder::instance();
    recorder.reset();
    recorder.setEnabled(true);
    recorder.record(EventKind::Frame, 0, 0.01, 0.001, "tracked");
    recorder.record(EventKind::DseEvaluation, 1, 0.5, 12.5,
                    "random_search");
    recorder.record(EventKind::SloBreach, 2, 1.5, 1.0,
                    "ate_meters");

    const auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(recorder.totalRecorded(), 3u);
    EXPECT_EQ(events[0].kind, EventKind::Frame);
    EXPECT_EQ(events[1].kind, EventKind::DseEvaluation);
    EXPECT_DOUBLE_EQ(events[1].a, 0.5);
    EXPECT_DOUBLE_EQ(events[1].b, 12.5);
    EXPECT_STREQ(events[1].detail, "random_search");
    EXPECT_EQ(events[2].frame, 2u);
    EXPECT_GT(events[0].ns, 0u);
    EXPECT_LE(events[0].ns, events[2].ns);

    recorder.setEnabled(false);
    recorder.reset();
}

TEST(FlightRecorder, TruncatesOverlongDetail)
{
    auto &recorder = FlightRecorder::instance();
    recorder.reset();
    recorder.setEnabled(true);
    const std::string detail(100, 'x');
    recorder.record(EventKind::Note, 0, 0.0, 0.0, detail.c_str());

    const auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(std::strlen(events[0].detail),
              sizeof(events[0].detail) - 1);

    recorder.setEnabled(false);
    recorder.reset();
}

TEST(FlightRecorder, WrapKeepsTheMostRecentCapacityEvents)
{
    auto &recorder = FlightRecorder::instance();
    recorder.reset();
    recorder.setEnabled(true);
    const uint64_t total = FlightRecorder::kCapacity + 100;
    for (uint64_t i = 0; i < total; ++i)
        recorder.record(EventKind::Note, i,
                        static_cast<double>(i) * 0.5, 0.0, "wrap");

    EXPECT_EQ(recorder.totalRecorded(), total);
    const auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
    EXPECT_EQ(events.front().frame, 100u); // oldest survivor
    EXPECT_EQ(events.back().frame, total - 1);
    for (size_t i = 1; i < events.size(); ++i)
        ASSERT_EQ(events[i].frame, events[i - 1].frame + 1);

    recorder.setEnabled(false);
    recorder.reset();
}

TEST(FlightRecorder, ConcurrentWritersAndReaderStayConsistent)
{
    auto &recorder = FlightRecorder::instance();
    recorder.reset();
    recorder.setEnabled(true);

    constexpr int kWriters = 4;
    constexpr uint64_t kPerWriter = 2000;
    std::atomic<bool> stop_reader{false};

    // Concurrent reader: every event a snapshot returns must be
    // internally consistent (the seqlock discards torn slots), here
    // checked via the writer-side invariant b == frame * 2.
    std::thread reader([&] {
        while (!stop_reader.load(std::memory_order_relaxed)) {
            for (const Event &e : recorder.snapshot()) {
                ASSERT_EQ(e.kind, EventKind::Note);
                ASSERT_DOUBLE_EQ(
                    e.b, static_cast<double>(e.frame) * 2.0);
            }
        }
    });

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (uint64_t i = 0; i < kPerWriter; ++i) {
                const uint64_t frame =
                    static_cast<uint64_t>(w) * kPerWriter + i;
                recorder.record(EventKind::Note, frame,
                                static_cast<double>(frame),
                                static_cast<double>(frame) * 2.0,
                                "concurrent");
            }
        });
    }
    for (std::thread &t : writers)
        t.join();
    stop_reader.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(recorder.totalRecorded(), kWriters * kPerWriter);
    const auto events = recorder.snapshot();
    EXPECT_LE(events.size(), FlightRecorder::kCapacity);
    EXPECT_GE(events.size(), FlightRecorder::kCapacity / 2);
    for (const Event &e : events)
        EXPECT_DOUBLE_EQ(e.b, static_cast<double>(e.frame) * 2.0);

    recorder.setEnabled(false);
    recorder.reset();
}

// --- Crash dumps ------------------------------------------------
//
// Suite name intentionally distinct ("CrashDump") so the TSan smoke
// filter can exclude the fork-based tests, which are not
// meaningful under TSan's post-fork runtime.

TEST(CrashDump, WriteCrashDumpProducesValidBoundedJson)
{
    auto &recorder = FlightRecorder::instance();
    recorder.reset();
    recorder.setEnabled(true);
    // More events than the ring holds: the dump must stay bounded.
    const uint64_t total = FlightRecorder::kCapacity + 50;
    for (uint64_t i = 0; i < total; ++i)
        recorder.record(EventKind::Note, i, 1.5, -2.25,
                        "dump check");
    metrics::Registry::instance()
        .counter("telemetry_test.crash.counter")
        .add(7);
    metrics::Registry::instance()
        .gauge("telemetry_test.crash.gauge")
        .set(-1.25);
    metrics::Registry::instance()
        .histogram("telemetry_test.crash.latency")
        .record(0.125);

    const std::string path =
        tempPath("telemetry_test_dump") + ".json";
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    writeCrashDump(fd, 0);
    ::close(fd);

    const std::string dump = readFile(path);
    std::remove(path.c_str());
    ASSERT_FALSE(dump.empty());
    EXPECT_TRUE(isValidJson(dump)) << dump.substr(0, 400);
    EXPECT_NE(dump.find("\"schema\": \"slambench-crash-dump\""),
              std::string::npos);
    EXPECT_NE(dump.find("\"schema_version\": 1"),
              std::string::npos);
    EXPECT_NE(dump.find("\"signal\": 0"), std::string::npos);
    EXPECT_NE(dump.find("\"events_recorded\": " +
                        std::to_string(total)),
              std::string::npos);
    // One "{"ns": ..." object per dumped event; the ring bounds it.
    EXPECT_LE(countOccurrences(dump, "{\"ns\": "),
              FlightRecorder::kCapacity);
    EXPECT_GE(countOccurrences(dump, "{\"ns\": "),
              FlightRecorder::kCapacity / 2);
    // Registry snapshot made it in through the crash index.
    EXPECT_NE(dump.find("\"telemetry_test.crash.counter\": 7"),
              std::string::npos);
    EXPECT_NE(dump.find("\"telemetry_test.crash.gauge\": -1.25"),
              std::string::npos);
    EXPECT_NE(dump.find("\"telemetry_test.crash.latency\": "
                        "{\"count\": 1"),
              std::string::npos);

    recorder.setEnabled(false);
    recorder.reset();
}

TEST(CrashDump, FatalSignalInForkedChildWritesDumpFile)
{
    const std::string path =
        tempPath("telemetry_test_sigsegv") + ".json";
    std::remove(path.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: arm the handler, record context, then die the way
        // a real crash would. Only the dump file may escape.
        installCrashDump(path, "telemetry_test_child");
        auto &recorder = FlightRecorder::instance();
        recorder.reset();
        recorder.record(EventKind::Frame, 41, 0.033, 0.002,
                        "tracked");
        recorder.record(EventKind::Note, 42, 0.0, 0.0,
                        "about to fault");
        ::raise(SIGSEGV);
        ::_exit(97); // unreachable: the handler re-raises
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);

    const std::string dump = readFile(path);
    std::remove(path.c_str());
    ASSERT_FALSE(dump.empty()) << "handler wrote no dump";
    EXPECT_TRUE(isValidJson(dump)) << dump.substr(0, 400);
    EXPECT_NE(dump.find("\"schema\": \"slambench-crash-dump\""),
              std::string::npos);
    EXPECT_NE(dump.find("\"signal\": " +
                        std::to_string(SIGSEGV)),
              std::string::npos);
    EXPECT_NE(dump.find("\"generator\": "
                        "\"telemetry_test_child\""),
              std::string::npos);
    EXPECT_NE(dump.find("\"events_recorded\": 2"),
              std::string::npos);
    EXPECT_EQ(countOccurrences(dump, "{\"ns\": "), 2u);
    EXPECT_NE(dump.find("\"detail\": \"about to fault\""),
              std::string::npos);
}

/** A SIGSEGV disposition the endpoint must hand back. */
extern "C" void
savedSegvHandler(int)
{
}

TEST(CrashDump, EndpointLeavingScopeRestoresSavedHandler)
{
    // The crash dump reads registry metrics; once its endpoint is
    // gone, a fatal signal must reach the handler that was there
    // before, not a dump over freed state.
    struct sigaction mine;
    std::memset(&mine, 0, sizeof(mine));
    mine.sa_handler = savedSegvHandler;
    ::sigemptyset(&mine.sa_mask);
    struct sigaction previous;
    ASSERT_EQ(::sigaction(SIGSEGV, &mine, &previous), 0);
    {
        TelemetryOptions options;
        options.crashDumpPath =
            tempPath("telemetry_test_restore") + ".json";
        options.generator = "telemetry_test";
        const TelemetryEndpoint endpoint(options);
        ASSERT_TRUE(endpoint.active());
        EXPECT_EQ(std::string(crashDumpPath()), options.crashDumpPath);
        struct sigaction armed;
        ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &armed), 0);
        EXPECT_NE(armed.sa_handler, &savedSegvHandler);
    }
    EXPECT_EQ(std::string(crashDumpPath()), "");
    struct sigaction after;
    ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &after), 0);
    EXPECT_EQ(after.sa_handler, &savedSegvHandler);
    ::sigaction(SIGSEGV, &previous, nullptr);
}

// --- Streaming frames CSV ---------------------------------------

TEST(RunSessionStreaming, CsvFlushesPerWindowAndCountsRows)
{
    const std::string csv_path =
        tempPath("telemetry_test_frames") + ".csv";
    auto &flushed = metrics::Registry::instance().counter(
        "metrics.frames.flushed");
    const uint64_t before = flushed.value();
    constexpr size_t kWindow =
        metrics::RunSession::kCsvFlushInterval;

    {
        metrics::RunSession session("", csv_path,
                                    "telemetry_test");
        ASSERT_TRUE(session.active());
        metrics::FrameTelemetry frame;
        frame.wallSeconds = 0.01;
        for (size_t i = 0; i + 1 < kWindow; ++i) {
            frame.frame = i;
            session.addFrame(frame);
        }
        // One short of a window: nothing durably flushed yet.
        EXPECT_EQ(flushed.value(), before);
        frame.frame = kWindow - 1;
        session.addFrame(frame);
        EXPECT_EQ(flushed.value() - before, kWindow);

        // A partial second window flushes only on finish().
        for (size_t i = 0; i < 5; ++i) {
            frame.frame = kWindow + i;
            session.addFrame(frame);
        }
        EXPECT_EQ(flushed.value() - before, kWindow);
        session.finish();
        EXPECT_EQ(flushed.value() - before, kWindow + 5);
    }

    const auto lines = splitLines(readFile(csv_path));
    std::remove(csv_path.c_str());
    ASSERT_EQ(lines.size(), kWindow + 5 + 1); // header + rows
    EXPECT_EQ(lines[0].rfind("label,frame,wall_ms", 0), 0u);
}

TEST(RunSessionStreaming, WriteCurrentJsonTracksActiveSession)
{
    std::ostringstream out;
    EXPECT_FALSE(metrics::RunSession::writeCurrentJson(out));

    const std::string json_path =
        tempPath("telemetry_test_current") + ".json";
    {
        metrics::RunSession session(json_path, "",
                                    "telemetry_test");
        metrics::FrameTelemetry frame;
        frame.wallSeconds = 0.02;
        frame.tracked = true;
        session.addFrame(frame);

        std::ostringstream live;
        ASSERT_TRUE(metrics::RunSession::writeCurrentJson(live));
        EXPECT_NE(
            live.str().find("\"generator\": \"telemetry_test\""),
            std::string::npos);
        EXPECT_TRUE(isValidJson(live.str()));

        session.finish(); // unregisters before writing files
        std::ostringstream after;
        EXPECT_FALSE(metrics::RunSession::writeCurrentJson(after));
    }
    std::remove(json_path.c_str());
}

// --- Socket-path hardening (serve-binary prerequisites) ---------
//
// These drive serveConnection() directly over an AF_UNIX socketpair,
// which makes the failure modes deterministic: a write to a closed
// socketpair peer raises SIGPIPE immediately (no TCP buffering to
// swallow it), a partial write really stays partial, and the far end
// is a plain fd the test controls byte by byte.

/** One end of a socketpair; the other is handed to the server. */
struct ServerPipe
{
    int clientFd = -1;
    int serverFd = -1;

    ServerPipe()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        clientFd = fds[0];
        serverFd = fds[1];
    }

    ~ServerPipe()
    {
        if (clientFd >= 0)
            ::close(clientFd);
        if (serverFd >= 0)
            ::close(serverFd);
    }

    /** Drain the server's response after closing the server fd. */
    std::string
    response()
    {
        ::close(serverFd);
        serverFd = -1;
        std::string out;
        char buf[4096];
        ssize_t got;
        while ((got = ::read(clientFd, buf, sizeof(buf))) > 0)
            out.append(buf, static_cast<size_t>(got));
        return out;
    }
};

TEST(TelemetryServer, MidScrapeDisconnectDoesNotRaiseSigpipe)
{
    // The regression is only provable while SIGPIPE keeps its
    // default (process-killing) disposition: with the pre-fix
    // ::write response path, this test dies instead of failing.
    struct sigaction disposition;
    ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &disposition), 0);
    ASSERT_EQ(disposition.sa_handler, SIG_DFL)
        << "SIGPIPE must stay at default for this regression test";

    ServerPipe pipe;
    const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::write(pipe.clientFd, request, sizeof(request) - 1),
              static_cast<ssize_t>(sizeof(request) - 1));
    // Client disconnects before the response: every byte the server
    // now sends goes to a closed peer.
    ::close(pipe.clientFd);
    pipe.clientFd = -1;

    serveConnection(pipe.serverFd);

    // Still alive; the socket path must also still work end to end.
    ServerPipe second;
    const char request2[] = "GET /healthz HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::write(second.clientFd, request2,
                      sizeof(request2) - 1),
              static_cast<ssize_t>(sizeof(request2) - 1));
    serveConnection(second.serverFd);
    EXPECT_NE(second.response().find("HTTP/1.0"),
              std::string::npos);
}

TEST(TelemetryServer, EndToEndDisconnectMidScrapeServerSurvives)
{
    TelemetryServer server;
    ASSERT_TRUE(server.start(0));

    // Several abrupt disconnects right after sending the request —
    // the server is likely mid-/metrics-response for at least one.
    for (int i = 0; i < 5; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<uint16_t>(server.port()));
        ASSERT_EQ(::connect(fd,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
        ASSERT_EQ(::write(fd, request, sizeof(request) - 1),
                  static_cast<ssize_t>(sizeof(request) - 1));
        // RST the connection (SO_LINGER 0) instead of a graceful
        // FIN, so the server's sends fail hard.
        linger hard_close;
        hard_close.l_onoff = 1;
        hard_close.l_linger = 0;
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close,
                     sizeof(hard_close));
        ::close(fd);
    }

    // The serving thread survived: a full scrape still answers 200.
    const std::string response = httpGet(server.port(), "/metrics");
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    server.stop();
}

TEST(TelemetryServer, SegmentedRequestLineParsesLikeOneShot)
{
    ServerPipe pipe;
    // A slow client: the request line arrives in four packets with
    // gaps. The pre-fix single-read server saw only "GET /hea" and
    // answered 404.
    std::thread writer([fd = pipe.clientFd] {
        const char *pieces[] = {"GET ", "/hea", "lthz HTT",
                                "P/1.0\r\n\r\n"};
        for (const char *piece : pieces) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            ASSERT_EQ(::write(fd, piece, std::strlen(piece)),
                      static_cast<ssize_t>(std::strlen(piece)));
        }
    });
    serveConnection(pipe.serverFd);
    writer.join();
    const std::string response = pipe.response();
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
        << response;
    EXPECT_NE(response.find("ok\n"), std::string::npos);
}

TEST(TelemetryServer, OversizeRequestLineGets400)
{
    ServerPipe pipe;
    const std::string flood(5000, 'A'); // no CRLF anywhere
    ASSERT_EQ(::write(pipe.clientFd, flood.data(), flood.size()),
              static_cast<ssize_t>(flood.size()));
    serveConnection(pipe.serverFd);
    const std::string response = pipe.response();
    EXPECT_NE(response.find("HTTP/1.0 400"), std::string::npos)
        << response;
}

/**
 * Serve one raw request over a socketpair. The client half-closes
 * after writing, so a line without CRLF ends at EOF rather than at
 * the read deadline.
 */
std::string
serveRaw(const std::string &request)
{
    ServerPipe pipe;
    if (!request.empty()) {
        EXPECT_EQ(::write(pipe.clientFd, request.data(),
                          request.size()),
                  static_cast<ssize_t>(request.size()));
    }
    ::shutdown(pipe.clientFd, SHUT_WR);
    serveConnection(pipe.serverFd, /*read_deadline_ms=*/1000);
    return pipe.response();
}

TEST(TelemetryServer, TracezQueryRejectsMalformedLimitAndMinMs)
{
    trace::RequestTracer::instance().configure({});
    const auto status_of = [](const std::string &query) {
        return serveRaw("GET /tracez?" + query + " HTTP/1.0\r\n\r\n")
            .substr(0, 12);
    };
    for (const char *bad :
         {"limit=abc", "limit=-5", "limit=0", "limit=1.5",
          "limit=99999999999999999999", "min_ms=abc", "min_ms=-1",
          "min_ms=nan", "min_ms=inf", "min_ms=1e999",
          "tenant=t01&limit=2x"})
        EXPECT_EQ(status_of(bad), "HTTP/1.0 400") << bad;
    for (const char *good :
         {"limit=1", "limit=500", "min_ms=0", "min_ms=2.5",
          "tenant=t01&min_ms=0.5&limit=3", "limit="})
        EXPECT_EQ(status_of(good), "HTTP/1.0 200") << good;
    trace::RequestTracer::instance().disarm();
    trace::RequestTracer::instance().clear();
}

TEST(TelemetryServer, RequestLineMutationCorpusGetsOneAllowedStatus)
{
    // A seeded hostile-input corpus over valid request lines: byte
    // flips, truncation, inserted NUL / bare LF / '%' / '?', and one
    // 5 KB line. Every mutant gets no response or exactly one status
    // line with an allowed code and a matching Content-Length.
    const std::vector<std::string> seeds = {
        "GET /metrics HTTP/1.0\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n",
        "GET /runz HTTP/1.0\r\n\r\n",
        "GET /tracez?tenant=t00&min_ms=0.5&limit=3 HTTP/1.0\r\n\r\n",
        "GET /tracez?trace_id=00000000000000ff HTTP/1.0\r\n\r\n",
    };
    const char inserts[] = {'\0', '\n', '%', '?'};
    slambench::support::Rng rng(0x7ace2);
    std::vector<std::string> corpus;
    for (size_t i = 0; i < 600; ++i) {
        std::string line = seeds[i % seeds.size()];
        switch (rng.uniformInt(3)) {
        case 0:
            for (uint64_t n = 1 + rng.uniformInt(3); n > 0; --n)
                line[rng.uniformInt(line.size())] ^= static_cast<char>(
                    1u << rng.uniformInt(8));
            break;
        case 1:
            line.resize(rng.uniformInt(line.size()));
            break;
        default:
            line.insert(line.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng.uniformInt(line.size() + 1)),
                        inserts[rng.uniformInt(sizeof(inserts))]);
        }
        corpus.push_back(line);
    }
    corpus.push_back("GET /metrics?" + std::string(5 * 1024, 'q') +
                     " HTTP/1.0\r\n\r\n");

    std::map<std::string, size_t> statuses;
    for (const std::string &mutant : corpus) {
        const std::string response = serveRaw(mutant);
        if (response.empty()) {
            ++statuses["none"];
            continue;
        }
        const std::string code = response.substr(9, 3);
        ++statuses[code];
        EXPECT_EQ(response.compare(0, 9, "HTTP/1.0 "), 0) << mutant;
        EXPECT_TRUE(code == "200" || code == "400" || code == "404" ||
                    code == "405" || code == "503")
            << code << " for " << mutant;
        EXPECT_EQ(response.find("HTTP/1.0 ", 1), std::string::npos)
            << mutant;
        const size_t body = response.find("\r\n\r\n");
        const size_t length = response.find("Content-Length: ");
        ASSERT_NE(body, std::string::npos) << mutant;
        ASSERT_NE(length, std::string::npos) << mutant;
        EXPECT_EQ(std::stoul(response.substr(length + 16)),
                  response.size() - body - 4)
            << mutant;
    }
    // The corpus reaches the answering paths, not just the drops.
    EXPECT_GT(statuses["200"], 0u);
    EXPECT_GT(statuses["400"], 0u);
    EXPECT_GT(statuses["404"], 0u);
    EXPECT_GT(statuses["405"], 0u);
}

TEST(TelemetryServer, StalledClientHitsReadDeadlineNotHang)
{
    ServerPipe pipe;
    // Partial line, then silence — without the deadline this would
    // wedge the accept loop forever.
    const char partial[] = "GET /metr";
    ASSERT_EQ(::write(pipe.clientFd, partial, sizeof(partial) - 1),
              static_cast<ssize_t>(sizeof(partial) - 1));
    const auto start = std::chrono::steady_clock::now();
    serveConnection(pipe.serverFd, /*read_deadline_ms=*/100);
    const double waited =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(waited, 2.0);
    const std::string response = pipe.response();
    EXPECT_NE(response.find("HTTP/1.0 400"), std::string::npos);
}

std::atomic<int> g_usr1_delivered{0};

void
countUsr1(int)
{
    g_usr1_delivered.fetch_add(1, std::memory_order_relaxed);
}

TEST(TelemetryServer, EintrDuringRequestIsRetriedNotDropped)
{
    // A no-op SIGUSR1 handler installed WITHOUT SA_RESTART, so every
    // delivery interrupts poll/read with EINTR. The pre-fix server
    // treated that as a dead client and dropped the connection.
    struct sigaction action;
    struct sigaction previous;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = countUsr1;
    ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
    g_usr1_delivered.store(0, std::memory_order_relaxed);

    ServerPipe pipe;
    std::thread server_thread([fd = pipe.serverFd] {
        serveConnection(fd, /*read_deadline_ms=*/5000);
    });

    // Pound the serving thread with signals between the request
    // segments, so EINTR hits both the poll wait and the reads.
    const char *pieces[] = {"GET /healthz", " HTTP/1.0", "\r\n\r\n"};
    for (const char *piece : pieces) {
        for (int i = 0; i < 5; ++i) {
            ::pthread_kill(server_thread.native_handle(), SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        ASSERT_EQ(::write(pipe.clientFd, piece,
                          std::strlen(piece)),
                  static_cast<ssize_t>(std::strlen(piece)));
    }
    server_thread.join();
    ::sigaction(SIGUSR1, &previous, nullptr);

    EXPECT_GT(g_usr1_delivered.load(std::memory_order_relaxed), 0)
        << "test harness failed to deliver any SIGUSR1";
    const std::string response = pipe.response();
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
        << response;
}

// --- Always-on per-kernel time on /metrics ----------------------

TEST(PrometheusExposition, KernelSecondsIsOneFamilyWithAKernelLabel)
{
    // A frame in which every kernel ran puts every kernel's series on
    // /metrics, under one HELP/TYPE pair.
    namespace kfusion = slambench::kfusion;
    kfusion::WorkCounts work;
    for (size_t k = 0; k < kfusion::kNumKernels; ++k) {
        work.items[k] = 1.0;
        work.hostSeconds[k] = 1e-3 * static_cast<double>(k + 1);
    }
    slambench::core::FrameOutcome outcome;
    outcome.work = &work;
    slambench::core::completeFrame(outcome);

    std::ostringstream out;
    renderPrometheus(out);
    const std::string text = out.str();
    const std::string family = "pipeline_kernel_seconds";
    EXPECT_EQ(linesStartingWith(text, "# HELP " + family + " ").size(),
              1u);
    EXPECT_EQ(
        linesStartingWith(text, "# TYPE " + family + " histogram").size(),
        1u);

    // The family's samples are contiguous, each carries the kernel
    // label, and per kernel the +Inf bucket equals _count.
    const auto lines = splitLines(text);
    size_t first = lines.size();
    size_t last = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].rfind(family + "_", 0) != 0)
            continue;
        first = std::min(first, i);
        last = i;
        EXPECT_NE(lines[i].find("{kernel=\""), std::string::npos)
            << lines[i];
    }
    ASSERT_LT(first, lines.size());
    for (size_t i = first; i <= last; ++i)
        EXPECT_EQ(lines[i].rfind(family + "_", 0), 0u)
            << "family not contiguous at: " << lines[i];
    for (size_t k = 0; k < kfusion::kNumKernels; ++k) {
        const std::string label =
            std::string("kernel=\"") +
            kfusion::kernelName(static_cast<kfusion::KernelId>(k)) +
            "\"";
        const auto count =
            linesStartingWith(text, family + "_count{" + label + "}");
        ASSERT_EQ(count.size(), 1u) << label;
        const auto inf = linesStartingWith(
            text, family + "_bucket{" + label + ",le=\"+Inf\"}");
        ASSERT_EQ(inf.size(), 1u) << label;
        EXPECT_EQ(inf[0].substr(inf[0].rfind(' ')),
                  count[0].substr(count[0].rfind(' ')))
            << label;
    }
}

// --- Labeled exposition (per-tenant /metrics series) ------------

TEST(PrometheusExposition, LabeledNamesRenderPerTenantSeries)
{
    auto &registry = metrics::Registry::instance();
    registry
        .counter(labeledMetricName("servetest.frames", "tenant",
                                   "t00"))
        .add(3);
    registry
        .counter(labeledMetricName("servetest.frames", "tenant",
                                   "t01"))
        .add(5);
    registry
        .gauge(labeledMetricName("servetest.depth", "tenant", "t00"))
        .set(2.5);
    registry
        .histogram(
            labeledMetricName("servetest.lat", "tenant", "t00"))
        .record(0.01);

    std::ostringstream out;
    renderPrometheus(out);
    const std::string text = out.str();

    // One header pair for the whole labeled counter family...
    EXPECT_EQ(1, static_cast<int>(
                     linesStartingWith(
                         text, "# HELP servetest_frames_total")
                         .size()));
    EXPECT_EQ(1,
              static_cast<int>(
                  linesStartingWith(
                      text,
                      "# TYPE servetest_frames_total counter")
                      .size()));
    // ...and one labeled sample per tenant.
    EXPECT_NE(
        text.find("servetest_frames_total{tenant=\"t00\"} 3"),
        std::string::npos);
    EXPECT_NE(
        text.find("servetest_frames_total{tenant=\"t01\"} 5"),
        std::string::npos);
    EXPECT_NE(text.find("servetest_depth{tenant=\"t00\"} 2.5"),
              std::string::npos);
    // Histogram series put the tenant label before le, and label
    // _sum/_count too.
    EXPECT_NE(text.find("servetest_lat_bucket{tenant=\"t00\",le=\""),
              std::string::npos);
    EXPECT_NE(text.find("servetest_lat_sum{tenant=\"t00\"}"),
              std::string::npos);
    EXPECT_NE(text.find("servetest_lat_count{tenant=\"t00\"} 1"),
              std::string::npos);
}

} // namespace
