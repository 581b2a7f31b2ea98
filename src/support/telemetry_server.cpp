#include "support/telemetry_server.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/flight_recorder.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace slambench::support::telemetry {

namespace {

/** Format a double the way the exposition samples need (%.10g). */
std::string
sampleValue(double v)
{
    if (!(v > -std::numeric_limits<double>::infinity() &&
          v < std::numeric_limits<double>::infinity()))
        v = 0.0; // non-finite gauges render as 0, like the reports
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/**
 * Split a registry name of the labeledMetricName() form into its
 * family part and its label block ("" when unlabeled). The label
 * block is returned without the surrounding braces.
 */
void
splitLabeledName(const std::string &name, std::string &base,
                 std::string &labels)
{
    const size_t brace = name.find('{');
    if (brace == std::string::npos) {
        base = name;
        labels.clear();
        return;
    }
    base = name.substr(0, brace);
    labels = name.substr(brace + 1);
    if (!labels.empty() && labels.back() == '}')
        labels.pop_back();
}

/** Emit the HELP/TYPE preamble for one metric family. */
void
writeFamilyHeader(std::ostream &os, const std::string &family,
                  const char *type, const std::string &registry_name)
{
    // HELP text escaping: backslash and newline (registry names
    // contain neither, but stay correct for any name).
    std::string help;
    for (const char c : registry_name) {
        if (c == '\\')
            help += "\\\\";
        else if (c == '\n')
            help += "\\n";
        else
            help += c;
    }
    os << "# HELP " << family << " slambench registry metric "
       << help << "\n";
    os << "# TYPE " << family << " " << type << "\n";
}

/** JSON-escape @p s into @p out (flight-recorder detail labels). */
void
appendJsonEscaped(std::string &out, const char *s)
{
    for (; *s; ++s) {
        const char c = *s;
        if (c == '"')
            out += "\\\"";
        else if (c == '\\')
            out += "\\\\";
        else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
}

/** One key=value pair of a request's query string. */
struct QueryParam
{
    std::string key;
    std::string value;
};

/**
 * Parse "a=1&b=2" into pairs. No percent-decoding: every value the
 * /tracez API accepts (hex trace ids, tenant ids, numbers) is
 * already in the URL-safe alphabet.
 */
std::vector<QueryParam>
parseQuery(const std::string &query)
{
    std::vector<QueryParam> params;
    size_t pos = 0;
    while (pos < query.size()) {
        size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        const std::string part = query.substr(pos, amp - pos);
        const size_t eq = part.find('=');
        if (eq != std::string::npos)
            params.push_back(
                {part.substr(0, eq), part.substr(eq + 1)});
        else if (!part.empty())
            params.push_back({part, ""});
        pos = amp + 1;
    }
    return params;
}

/** @return the value of @p key in @p params, or @p fallback. */
std::string
queryValue(const std::vector<QueryParam> &params,
           const char *key, const char *fallback = "")
{
    for (const QueryParam &param : params)
        if (param.key == key)
            return param.value;
    return fallback;
}

/** Append one request span (and its subtree) as JSON to @p out. */
void
appendSpanTree(
    std::string &out, const trace::RetainedTrace &trace,
    const std::vector<const trace::RequestSpan *> &spans,
    size_t index, const std::string &indent)
{
    const trace::RequestSpan &span = *spans[index];
    char buf[64];
    out += indent + "{\"span_id\": \"" +
           trace::formatTraceId(span.spanId) + "\",";
    out += " \"name\": \"";
    appendJsonEscaped(out, span.name ? span.name : "");
    out += "\", \"category\": \"";
    out += trace::categoryName(span.cat);
    out += "\",";
    std::snprintf(buf, sizeof(buf), " \"offset_ms\": %.6f,",
                  static_cast<double>(span.startNs -
                                      trace.startNs) * 1e-6);
    out += buf;
    std::snprintf(buf, sizeof(buf), " \"duration_ms\": %.6f",
                  static_cast<double>(span.endNs - span.startNs) *
                      1e-6);
    out += buf;

    // Children: spans naming this one as parent, start-ordered.
    std::vector<size_t> children;
    for (size_t i = 0; i < spans.size(); ++i)
        if (i != index &&
            spans[i]->parentSpanId == span.spanId)
            children.push_back(i);
    std::sort(children.begin(), children.end(),
              [&spans](size_t a, size_t b) {
                  return spans[a]->startNs < spans[b]->startNs;
              });
    if (children.empty()) {
        out += "}";
        return;
    }
    out += ", \"children\": [\n";
    const std::string child_indent = indent + "  ";
    for (size_t i = 0; i < children.size(); ++i) {
        appendSpanTree(out, trace, spans, children[i],
                       child_indent);
        if (i + 1 < children.size())
            out += ",";
        out += "\n";
    }
    out += indent + "]}";
}

/** Append one retained trace (summary + full span tree) as JSON. */
void
appendTraceJson(std::string &out,
                const trace::RetainedTrace &trace,
                const std::string &indent)
{
    char buf[64];
    out += indent + "{\"trace_id\": \"" +
           trace::formatTraceId(trace.traceId) + "\",\n";
    out += indent + " \"tenant\": \"";
    appendJsonEscaped(out, trace.tenant.c_str());
    out += "\", \"frame\": " + std::to_string(trace.frame) + ",\n";
    std::snprintf(buf, sizeof(buf), " \"duration_ms\": %.6f,",
                  trace.durationSeconds * 1e3);
    out += indent + buf;
    std::snprintf(
        buf, sizeof(buf), " \"total_ms\": %.6f,",
        static_cast<double>(trace.endNs - trace.startNs) * 1e-6);
    out += buf;
    out += " \"start_ns\": " + std::to_string(trace.startNs) + ",\n";
    out += indent + " \"retained\": {\"slo_breach\": ";
    out += trace.retention.sloBreach ? "true" : "false";
    out += ", \"tracking_lost\": ";
    out += trace.retention.trackingLost ? "true" : "false";
    out += ", \"top_bucket\": ";
    out += trace.retention.topBucket ? "true" : "false";
    out += ", \"sampled\": ";
    out += trace.retention.sampled ? "true" : "false";
    out += "},\n";
    out += indent + " \"spans_dropped\": " +
           std::to_string(trace.spansDropped) + ",\n";

    // Render the tree from the root span; spans whose parent was
    // dropped (span cap) or never closed re-anchor at the root so
    // nothing recorded is invisible.
    std::vector<trace::RequestSpan> spans = trace.spans;
    size_t root_index = spans.size();
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].spanId == trace.rootSpanId)
            root_index = i;
    if (root_index == spans.size()) {
        out += indent + " \"spans\": []}";
        return;
    }
    for (trace::RequestSpan &span : spans) {
        if (span.spanId == trace.rootSpanId)
            continue;
        bool parent_known = false;
        for (const trace::RequestSpan &other : spans)
            if (other.spanId == span.parentSpanId)
                parent_known = true;
        if (!parent_known)
            span.parentSpanId = trace.rootSpanId;
    }
    std::vector<const trace::RequestSpan *> span_ptrs;
    span_ptrs.reserve(spans.size());
    for (const trace::RequestSpan &span : spans)
        span_ptrs.push_back(&span);
    out += indent + " \"spans\": [\n";
    appendSpanTree(out, trace, span_ptrs, root_index,
                   indent + "  ");
    out += "\n" + indent + "]}";
}

/**
 * Render the /tracez?... query response: retained request traces
 * filtered by trace_id / tenant / min_ms, newest first, capped at
 * limit, each with its complete span tree. A `limit` that is not an
 * integer >= 1 or a `min_ms` that is not a finite number >= 0 sets
 * @p status to 400.
 */
std::string
renderTracezQuery(const std::vector<QueryParam> &params,
                  int *status)
{
    auto &tracer = trace::RequestTracer::instance();
    const std::string id_text = queryValue(params, "trace_id");
    const std::string tenant = queryValue(params, "tenant");
    const std::string min_ms_text = queryValue(params, "min_ms");
    const std::string limit_text = queryValue(params, "limit");
    double min_ms = 0.0;
    long limit = 32;
    if ((!min_ms_text.empty() &&
         !(parseDouble(min_ms_text, min_ms) && std::isfinite(min_ms) &&
           min_ms >= 0.0)) ||
        (!limit_text.empty() &&
         !(parseLong(limit_text, limit) && limit >= 1))) {
        *status = 400;
        return "{\"error\": \"want limit >= 1 (integer) and min_ms >= "
               "0 (finite)\"}\n";
    }

    std::vector<trace::RetainedTrace> matches;
    if (!id_text.empty()) {
        const uint64_t trace_id = trace::parseTraceId(id_text);
        trace::RetainedTrace found;
        if (trace_id != 0 && tracer.findTrace(trace_id, &found))
            matches.push_back(std::move(found));
        if (matches.empty())
            *status = 404;
    } else {
        for (auto &candidate : tracer.retainedSnapshot()) {
            if (matches.size() >= static_cast<size_t>(limit))
                break;
            if (!tenant.empty() && candidate.tenant != tenant)
                continue;
            if (candidate.durationSeconds * 1e3 < min_ms)
                continue;
            matches.push_back(std::move(candidate));
        }
    }

    std::string body =
        "{\n  \"schema\": \"slambench-tracez-query\",\n";
    body += "  \"matches\": " + std::to_string(matches.size()) +
            ",\n";
    body += "  \"traces\": [";
    for (size_t i = 0; i < matches.size(); ++i) {
        body += i ? ",\n" : "\n";
        appendTraceJson(body, matches[i], "    ");
    }
    body += matches.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return body;
}

/**
 * Render the flight recorder's retained events as the /tracez JSON
 * document: the same seqlock snapshot path the crash dump uses, but
 * on demand and over HTTP while the run is still in flight. The
 * document also carries the request tracer's state and a summary
 * index of its retained traces (query with ?trace_id= / ?tenant= /
 * ?min_ms= / ?limit= for complete span trees).
 */
std::string
renderTracez()
{
    const auto &recorder = FlightRecorder::instance();
    const std::vector<Event> events = recorder.snapshot();
    std::string body = "{\n  \"schema\": \"slambench-tracez\",\n";
    body += "  \"enabled\": ";
    body += recorder.enabled() ? "true" : "false";
    body += ",\n  \"total_recorded\": ";
    body += std::to_string(recorder.totalRecorded());
    body += ",\n  \"events\": [";
    char buf[64];
    for (size_t i = 0; i < events.size(); ++i) {
        const Event &event = events[i];
        body += i ? ",\n    {" : "\n    {";
        body += "\"ns\": " + std::to_string(event.ns);
        body += ", \"kind\": \"";
        body += eventKindName(event.kind);
        body += "\", \"frame\": " + std::to_string(event.frame);
        std::snprintf(buf, sizeof(buf), ", \"a\": %.10g", event.a);
        body += buf;
        std::snprintf(buf, sizeof(buf), ", \"b\": %.10g", event.b);
        body += buf;
        body += ", \"detail\": \"";
        appendJsonEscaped(body, event.detail);
        body += "\"}";
    }
    body += events.empty() ? "]" : "\n  ]";

    // Request-tracer state plus a summary index of retained traces
    // (newest first); fetch a complete span tree via ?trace_id=.
    auto &tracer = trace::RequestTracer::instance();
    const auto options = tracer.options();
    body += ",\n  \"request_tracing\": {\"armed\": ";
    body += tracer.enabled() ? "true" : "false";
    std::snprintf(buf, sizeof(buf), ", \"sample_rate\": %.10g",
                  options.sampleRate);
    body += buf;
    body += ", \"started\": " + std::to_string(tracer.tracesStarted());
    body += ", \"retained\": " +
            std::to_string(tracer.tracesRetained());
    body += "},\n  \"traces\": [";
    const auto retained = tracer.retainedSnapshot();
    for (size_t i = 0; i < retained.size(); ++i) {
        const trace::RetainedTrace &t = retained[i];
        body += i ? ",\n    {" : "\n    {";
        body += "\"trace_id\": \"" +
                trace::formatTraceId(t.traceId) + "\"";
        body += ", \"tenant\": \"";
        appendJsonEscaped(body, t.tenant.c_str());
        body += "\", \"frame\": " + std::to_string(t.frame);
        std::snprintf(buf, sizeof(buf), ", \"duration_ms\": %.6f",
                      t.durationSeconds * 1e3);
        body += buf;
        body += ", \"slo_breach\": ";
        body += t.retention.sloBreach ? "true" : "false";
        body += ", \"tracking_lost\": ";
        body += t.retention.trackingLost ? "true" : "false";
        body += ", \"top_bucket\": ";
        body += t.retention.topBucket ? "true" : "false";
        body += ", \"sampled\": ";
        body += t.retention.sampled ? "true" : "false";
        body += ", \"spans\": " + std::to_string(t.spans.size());
        body += "}";
    }
    body += retained.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return body;
}

} // namespace

std::string
sanitizeMetricName(const std::string &name)
{
    std::string out;
    out.reserve(name.size() + 1);
    for (const char c : name) {
        const bool valid = std::isalnum(static_cast<unsigned char>(c)) ||
                           c == '_' || c == ':';
        out += valid ? c : '_';
    }
    if (out.empty() ||
        std::isdigit(static_cast<unsigned char>(out[0])))
        out.insert(out.begin(), '_');
    return out;
}

std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

std::string
labeledMetricName(const std::string &family, const std::string &key,
                  const std::string &value)
{
    return family + "{" + key + "=\"" + escapeLabelValue(value) +
           "\"}";
}

void
renderPrometheus(std::ostream &os)
{
    auto &registry = metrics::Registry::instance();
    // Scrape-time process gauge so a dashboard sees memory growth
    // without waiting for the end-of-run report.
    registry.gauge("process.peak_rss_bytes")
        .set(metrics::peakRssBytes());

    // Labeled registry names (labeledMetricName()'s `base{...}` form)
    // share one family: the name-sorted snapshots keep every
    // `base{...}` entry contiguous, so emitting the HELP/TYPE header
    // only when the family changes yields one header per family
    // followed by all of its (labeled) samples.
    std::string base;
    std::string labels;
    std::string last_family;

    for (const auto &[name, value] : registry.counters()) {
        splitLabeledName(name, base, labels);
        std::string family = sanitizeMetricName(base);
        // Prometheus counter convention; registry names that already
        // end in _total keep it un-doubled.
        const std::string suffix = "_total";
        if (family.size() < suffix.size() ||
            family.compare(family.size() - suffix.size(),
                           suffix.size(), suffix) != 0)
            family += suffix;
        if (family != last_family) {
            writeFamilyHeader(os, family, "counter", base);
            last_family = family;
        }
        os << family;
        if (!labels.empty())
            os << "{" << labels << "}";
        os << " " << value << "\n";
    }

    last_family.clear();
    for (const auto &[name, value] : registry.gauges()) {
        splitLabeledName(name, base, labels);
        const std::string family = sanitizeMetricName(base);
        if (family != last_family) {
            writeFamilyHeader(os, family, "gauge", base);
            last_family = family;
        }
        os << family;
        if (!labels.empty())
            os << "{" << labels << "}";
        os << " " << sampleValue(value) << "\n";
    }

    last_family.clear();
    for (const auto &[name, histogram] : registry.histograms()) {
        splitLabeledName(name, base, labels);
        const std::string family = sanitizeMetricName(base);
        if (family != last_family) {
            writeFamilyHeader(os, family, "histogram", base);
            last_family = family;
        }
        // A labeled histogram's le label goes after the series
        // labels: `base_bucket{tenant="t03",le="0.1"}`.
        const std::string label_prefix =
            labels.empty() ? "" : labels + ",";
        // OpenMetrics-style exemplar: the retained request trace
        // behind this histogram's samples, attached to the first
        // bucket whose upper edge covers the exemplar value (+Inf as
        // the fallback) as ` # {trace_id="..."} <value>` so a
        // dashboard can jump from a latency bucket straight to
        // `/tracez?trace_id=...`.
        trace::TraceExemplar exemplar;
        bool exemplar_pending =
            trace::RequestTracer::instance().exemplarFor(name,
                                                         &exemplar);
        const std::string exemplar_suffix =
            exemplar_pending
                ? " # {trace_id=\"" +
                      trace::formatTraceId(exemplar.traceId) +
                      "\"} " + sampleValue(exemplar.value)
                : std::string();
        // Cumulative buckets at the histogram's populated edges
        // (empty buckets elided — any subset of edges is valid
        // exposition as long as counts are cumulative and +Inf
        // equals _count).
        uint64_t cumulative = 0;
        const size_t buckets = histogram->numBuckets();
        for (size_t i = 0; i + 1 < buckets; ++i) {
            const uint64_t in_bucket = histogram->bucketCount(i);
            if (in_bucket == 0)
                continue;
            cumulative += in_bucket;
            os << family << "_bucket{" << label_prefix << "le=\""
               << sampleValue(histogram->bucketHi(i)) << "\"} "
               << cumulative;
            if (exemplar_pending &&
                histogram->bucketHi(i) >= exemplar.value) {
                os << exemplar_suffix;
                exemplar_pending = false;
            }
            os << "\n";
        }
        os << family << "_bucket{" << label_prefix << "le=\"+Inf\"} "
           << histogram->count();
        if (exemplar_pending)
            os << exemplar_suffix;
        os << "\n";
        os << family << "_sum";
        if (!labels.empty())
            os << "{" << labels << "}";
        os << " " << sampleValue(histogram->sum()) << "\n";
        os << family << "_count";
        if (!labels.empty())
            os << "{" << labels << "}";
        os << " " << histogram->count() << "\n";
    }
}

TelemetryServer::~TelemetryServer() { stop(); }

bool
TelemetryServer::start(int port)
{
    if (running())
        return false;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const int enable = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof(enable));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        ::close(fd);
        return false;
    }

    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &addr_len) != 0) {
        ::close(fd);
        return false;
    }
    listenFd_ = fd;
    port_ = static_cast<int>(ntohs(addr.sin_port));
    stopRequested_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { serveLoop(); });
    return true;
}

void
TelemetryServer::stop()
{
    if (!thread_.joinable())
        return;
    stopRequested_.store(true, std::memory_order_relaxed);
    thread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    port_ = -1;
}

void
TelemetryServer::serveLoop()
{
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        // Bounded poll instead of a blocking accept so stop() is
        // honored within one timeout even with no clients. EINTR is
        // not an error: a signal (profiling timers, the crash-dump
        // handler probing, SIGCHLD in embedding processes) just
        // restarts the wait.
        pollfd pfd;
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0 && errno != EINTR)
            return; // listen fd is gone; stop() will join us
        if (ready <= 0)
            continue;
        int client;
        do {
            client = ::accept(listenFd_, nullptr, nullptr);
        } while (client < 0 && errno == EINTR);
        if (client < 0)
            continue;
        serveConnection(client);
        ::close(client);
    }
}

namespace detail {

bool
sendAll(int fd, const char *data, size_t len)
{
    size_t off = 0;
    while (off < len) {
        // MSG_NOSIGNAL: a client that disconnected mid-response
        // yields EPIPE here instead of a process-fatal SIGPIPE —
        // mandatory for the long-running serve binary, where scrapers
        // come and go for the lifetime of the process.
        const ssize_t n =
            ::send(fd, data + off, len - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false; // EPIPE/ECONNRESET/...: client is gone
        }
        if (n == 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
readRequestLine(int fd, std::string &request, size_t max_len,
                int deadline_ms)
{
    // A slow or segmented client may deliver "GET /met" and
    // "rics HTTP/1.0\r\n" in separate packets; accumulate until the
    // request line is complete. The deadline bounds a stalled client
    // so it cannot wedge the accept loop, and the buffer cap bounds
    // a malicious one.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    while (request.find("\r\n") == std::string::npos) {
        if (request.size() >= max_len)
            return false;
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return false;
        const int wait_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count() +
            1);
        pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int ready = ::poll(&pfd, 1, wait_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (ready == 0)
            return false; // deadline expired
        char buf[1024];
        const size_t want =
            std::min(sizeof(buf), max_len - request.size());
        const ssize_t got = ::read(fd, buf, want);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0)
            return false; // EOF before the line completed
        request.append(buf, static_cast<size_t>(got));
    }
    return true;
}

} // namespace detail

void
serveConnection(int client_fd, int read_deadline_ms)
{
    std::string request;
    const bool complete = detail::readRequestLine(
        client_fd, request, 4096, read_deadline_ms);
    if (!complete && request.empty())
        return; // nothing arrived: no response owed

    // "<METHOD> <path> ..." — the only request-line parts we need.
    std::string method;
    std::string path;
    {
        const char *p = request.c_str();
        while (*p && *p != ' ')
            method += *p++;
        while (*p == ' ')
            ++p;
        while (*p && *p != ' ' && *p != '\r' && *p != '\n')
            path += *p++;
    }
    // Split off the query string; only /tracez interprets one.
    std::string query;
    {
        const size_t qpos = path.find('?');
        if (qpos != std::string::npos) {
            query = path.substr(qpos + 1);
            path.resize(qpos);
        }
    }

    int status = 200;
    const char *content_type = "text/plain; charset=utf-8";
    std::string body;

    if (!complete) {
        // Partial line (oversize or timed out mid-request): answer
        // rather than silently dropping, then let close() end it.
        status = 400;
        body = "incomplete request line\n";
    } else if (method != "GET") {
        status = 405;
        body = "only GET is supported\n";
    } else if (path == "/metrics") {
        std::ostringstream out;
        renderPrometheus(out);
        body = out.str();
        content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (path == "/healthz") {
        const auto &watchdog = SloWatchdog::instance();
        body = watchdog.healthzText();
        if (!watchdog.healthy())
            status = 503;
    } else if (path == "/runz") {
        std::ostringstream out;
        if (metrics::RunSession::writeCurrentJson(out)) {
            body = out.str();
            content_type = "application/json";
        } else {
            status = 404;
            body = "no active run session\n";
        }
    } else if (path == "/tracez") {
        body = query.empty()
                   ? renderTracez()
                   : renderTracezQuery(parseQuery(query), &status);
        content_type = "application/json";
    } else {
        status = 404;
        body = "unknown path; try /metrics, /healthz, /runz, "
               "/tracez\n";
    }

    std::ostringstream response;
    const char *status_text = status == 200   ? "OK"
                              : status == 400 ? "Bad Request"
                              : status == 404 ? "Not Found"
                              : status == 405 ? "Method Not Allowed"
                                              : "Service Unavailable";
    response << "HTTP/1.0 " << status << " " << status_text
             << "\r\nContent-Type: " << content_type
             << "\r\nContent-Length: " << body.size()
             << "\r\nConnection: close\r\n\r\n"
             << body;
    const std::string out = response.str();
    detail::sendAll(client_fd, out.data(), out.size());
}

TelemetryEndpoint::TelemetryEndpoint(const TelemetryOptions &options)
{
    if (!options.any())
        return;
    active_ = true;

    // Size the flight-recorder ring before anything records into it
    // (setCapacity drops retained events and is not safe against
    // concurrent writers).
    if (options.recorderSlots != 0 &&
        options.recorderSlots !=
            FlightRecorder::instance().capacity())
        FlightRecorder::instance().setCapacity(
            options.recorderSlots);
    SloWatchdog::instance().configure(options.slo);
    const std::string dump_path =
        options.crashDumpPath.empty()
            ? options.generator + "_crash.json"
            : options.crashDumpPath;
    installCrashDump(dump_path, options.generator);
    setLiveTelemetry(true);

    if (options.port >= 0) {
        if (!server_.start(options.port))
            fatal(format("telemetry: cannot bind 127.0.0.1:%d",
                         options.port));
        logInfo() << "telemetry: listening on http://127.0.0.1:"
                  << server_.port();
        logInfo() << "telemetry: crash dump armed at " << dump_path;
    }
}

TelemetryEndpoint::~TelemetryEndpoint()
{
    if (!active_)
        return;
    server_.stop();
    setLiveTelemetry(false);
    SloWatchdog::instance().reset();
    uninstallCrashDump();
}

} // namespace slambench::support::telemetry
