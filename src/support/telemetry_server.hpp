#ifndef SLAMBENCH_SUPPORT_TELEMETRY_SERVER_HPP
#define SLAMBENCH_SUPPORT_TELEMETRY_SERVER_HPP

/**
 * @file
 * In-process telemetry exposition: a tiny blocking HTTP/1.0 server
 * on a background thread serving live process state, plus the
 * TelemetryEndpoint RAII wrapper the benches construct from their
 * `--telemetry-port` / `--crash-dump` / `--slo-*` flags.
 *
 * Endpoints (all GET, Connection: close):
 *  - `/metrics`  Prometheus text exposition (format 0.0.4) rendered
 *                from the process metrics::Registry.
 *  - `/healthz`  200 "ok" while no SLO is breached, 503 with one
 *                "breach: ..." line per latched breach after.
 *  - `/runz`     Run-report JSON snapshot of the in-flight
 *                RunSession (404 when no session is active).
 *
 * The server exists only when started: with `--telemetry-port`
 * unset, no socket is opened and no thread is spawned, and the
 * frame-loop hooks stay behind single relaxed-atomic gates
 * (telemetry::liveTelemetry()), keeping disabled runs zero-cost.
 */

#include <atomic>
#include <iosfwd>
#include <string>
#include <thread>

#include "support/slo_watchdog.hpp"

namespace slambench::support::telemetry {

/**
 * @return @p name mapped onto the Prometheus metric-name alphabet
 * `[a-zA-Z0-9_:]`: every other character (registry names use `.`)
 * becomes `_`, and a leading digit gets a `_` prefix.
 */
std::string sanitizeMetricName(const std::string &name);

/**
 * @return @p value with backslash, double-quote, and newline escaped
 * per the Prometheus text-format label-value rules.
 */
std::string escapeLabelValue(const std::string &value);

/**
 * Build a registry metric name carrying one exposition label:
 * `family{key="value"}` with @p value escaped per the label-value
 * rules. renderPrometheus() recognizes the brace form, sanitizes
 * only the family part, emits one HELP/TYPE header per family, and
 * renders the label block on every sample — this is how the serve
 * layer gets per-tenant `/metrics` series out of the flat registry
 * (e.g. `serve.tenant.frames{tenant="t03"}`).
 */
std::string labeledMetricName(const std::string &family,
                              const std::string &key,
                              const std::string &value);

/**
 * Render the whole metrics::Registry as Prometheus text exposition
 * format 0.0.4 to @p os: each counter as `<name>_total`, each gauge
 * verbatim, each histogram as cumulative `_bucket{le="..."}` series
 * (empty buckets elided) plus `_sum` and `_count`, all preceded by
 * `# HELP` / `# TYPE` lines.
 */
void renderPrometheus(std::ostream &os);

/**
 * Serve one HTTP/1.0 exchange on @p client_fd (request already
 * accepted; the fd is not closed here). This is the connection
 * handler behind TelemetryServer, exposed so the socket-path
 * regression tests can drive it over a socketpair:
 *
 *  - the request line is read in a loop until CRLF (a slow or
 *    segmented client parses identically to a one-shot one), bounded
 *    by a 4 KiB buffer and @p read_deadline_ms;
 *  - EINTR during poll/read/send is retried, never treated as a
 *    dropped connection;
 *  - the response is written with `send(MSG_NOSIGNAL)`, so a client
 *    that disconnects mid-response yields EPIPE instead of a fatal
 *    SIGPIPE.
 *
 * Oversize (no CRLF within the buffer) and timed-out requests get a
 * 400 where a line was partially read, or nothing when no bytes
 * arrived.
 */
void serveConnection(int client_fd, int read_deadline_ms = 2000);

namespace detail {

/**
 * Write all @p len bytes to @p fd via send(MSG_NOSIGNAL), retrying
 * on EINTR and short writes.
 *
 * @return whether every byte was accepted (false on EPIPE /
 *         ECONNRESET / any other real error — never raises SIGPIPE).
 */
bool sendAll(int fd, const char *data, size_t len);

/**
 * Read from @p fd into @p request until it contains a CRLF, @p
 * max_len bytes were read, EOF, or @p deadline_ms expired; EINTR
 * during poll/read is retried without consuming deadline accounting
 * resolution.
 *
 * @return whether a full CRLF-terminated request line was received.
 */
bool readRequestLine(int fd, std::string &request, size_t max_len,
                     int deadline_ms);

} // namespace detail

/**
 * Blocking HTTP/1.0 exposition server on a background thread.
 *
 * One request per connection, served sequentially — the expected
 * client is a scrape loop or a human with curl, not traffic. The
 * accept loop polls with a 200 ms timeout so stop() completes
 * promptly. Serving reads shared state only through thread-safe
 * snapshots (Registry accessors, SloWatchdog, RunSession's
 * current-session lock), so it never blocks the frame loop.
 */
class TelemetryServer
{
  public:
    TelemetryServer() = default;

    TelemetryServer(const TelemetryServer &) = delete;
    TelemetryServer &operator=(const TelemetryServer &) = delete;

    /** Stops the server if running. */
    ~TelemetryServer();

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral), start the serving
     * thread.
     *
     * @return whether the socket was bound and the thread started;
     *         on failure the server stays stopped.
     */
    bool start(int port);

    /** Join the serving thread and close the socket (idempotent). */
    void stop();

    /** @return the bound port (the actual one when started with 0),
     *  or -1 while stopped. */
    int
    port() const
    {
        return port_;
    }

    /** @return whether the serving thread is running. */
    bool
    running() const
    {
        return thread_.joinable();
    }

  private:
    void serveLoop();

    int listenFd_ = -1;
    int port_ = -1;
    std::atomic<bool> stopRequested_{false};
    std::thread thread_;
};

/** Parsed live-telemetry configuration of one bench invocation. */
struct TelemetryOptions
{
    /** `--telemetry-port`: -1 = no server, 0 = ephemeral port. */
    int port = -1;
    /** `--crash-dump`: dump path ("" = `<generator>_crash.json`
     *  when telemetry is active). */
    std::string crashDumpPath;
    /** `--slo-*` thresholds (all disabled by default). */
    SloThresholds slo;
    /** `--recorder-slots`: flight-recorder ring capacity (applied
     *  at activation, before recording starts). */
    size_t recorderSlots = 1024;
    /** Producing binary's name (server log line, crash dump). */
    std::string generator;

    /** @return whether any live-telemetry feature is requested. */
    bool
    any() const
    {
        return port >= 0 || !crashDumpPath.empty() ||
               slo.anyEnabled();
    }
};

/**
 * RAII activation of the live-telemetry subsystem for one run: arms
 * the per-frame hook (setLiveTelemetry), the flight recorder and
 * fatal-signal crash dump, and the SLO watchdog, and starts the
 * exposition server when a port was requested (logging
 * "telemetry: listening on http://127.0.0.1:<port>" at INFO). A
 * default-constructed endpoint — or one built from options where
 * TelemetryOptions::any() is false — does nothing at all. The
 * destructor stops the server, disarms the hook and watchdog, and
 * uninstalls the crash dump (restoring the signal dispositions it
 * replaced).
 */
class TelemetryEndpoint
{
  public:
    /** Inert endpoint (telemetry stays disabled). */
    TelemetryEndpoint() = default;

    /** Activate per @p options (no-op when options.any() is false).
     *  Exits via fatal() when a requested port cannot be bound. */
    explicit TelemetryEndpoint(const TelemetryOptions &options);

    TelemetryEndpoint(const TelemetryEndpoint &) = delete;
    TelemetryEndpoint &operator=(const TelemetryEndpoint &) = delete;

    /** Stops the server and disarms live telemetry. */
    ~TelemetryEndpoint();

    /** @return whether any telemetry feature was activated. */
    bool active() const { return active_; }

    /** @return the server's bound port, or -1 when no server. */
    int port() const { return server_.port(); }

  private:
    bool active_ = false;
    TelemetryServer server_;
};

} // namespace slambench::support::telemetry

#endif // SLAMBENCH_SUPPORT_TELEMETRY_SERVER_HPP
