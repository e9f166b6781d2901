/**
 * @file
 * The tia-serve request/response protocol ("tia-serve/v1").
 *
 * Every frame carries one JSON object. Requests:
 *
 *   {"id": N, "method": "simulate", "client": "alice",
 *    "deadline_ms": 500, "params": {...}}
 *
 * Responses echo the id and are either a result or a *typed* error —
 * the headline robustness contract is that every admitted request
 * produces exactly one of the two, never silence:
 *
 *   {"id": N, "ok": true,  "result": {...}}
 *   {"id": N, "ok": false, "error": {"code": "retry_after",
 *        "message": "...", "retry_after_ms": 12, "detail": {...}}}
 *
 * The error taxonomy (docs/serve.md has the full semantics):
 *
 *   bad_request    malformed frame / unknown method / bad params;
 *                  retrying the same request cannot succeed.
 *   retry_after    admission shed the request (queue full or quota);
 *                  retry after the hinted delay with jittered backoff
 *                  (tia-loadgen and ServeClient::callWithRetry do).
 *   deadline       the request's deadline expired, queued or mid-run;
 *                  the simulation was cooperatively cancelled.
 *   hang           the simulation itself was diagnosed as hung; the
 *                  detail block carries the per-class HangReport
 *                  (deadlock / livelock / step limit + wait chain).
 *   shutting_down  the server is draining; this instance will not
 *                  accept the request, ever.
 *   internal       an unexpected exception; a server-side bug.
 */

#ifndef TIA_SERVE_PROTOCOL_HH
#define TIA_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>

#include "obs/json.hh"

namespace tia {

/** Protocol identifier, echoed by the stats method. */
inline constexpr const char *kServeProtocol = "tia-serve/v1";

/** Typed error classes a response can carry. */
enum class ServeError
{
    None,
    BadRequest,
    RetryAfter,
    Deadline,
    Hang,
    ShuttingDown,
    Internal,
};

/** Wire code for a ServeError ("bad_request", "retry_after", ...). */
const char *serveErrorCode(ServeError error);

/** Parse a wire code back to a ServeError (None when unknown). */
ServeError parseServeErrorCode(const std::string &code);

/**
 * The one reader of JSON integers on the wire (ids, deadlines, method
 * parameters such as max_cycles): @p value as a whole number below
 * 2^64, or nullopt for anything else, so a fraction or an out-of-range
 * double is rejected instead of truncated. An integer literal is read
 * exactly, all the way to 2^64 - 1.
 */
std::optional<std::uint64_t> wireU64(const JsonValue &value);

/** A parsed request envelope. */
struct ServeRequest
{
    std::uint64_t id = 0;
    std::string method;
    /** Quota identity; empty falls back to a per-connection key. */
    std::string client;
    /** Relative deadline in ms; 0 = server default (possibly none). */
    std::uint64_t deadlineMs = 0;
    JsonValue params; ///< Method parameters (object or null).
};

/**
 * Parse a request envelope. Returns nullopt with @p error set on a
 * malformed envelope; unknown methods are left to the dispatcher so
 * the response can still echo the request id.
 */
std::optional<ServeRequest> parseRequest(const JsonValue &doc,
                                         std::string *error);

/** Build a success response. */
JsonValue makeResult(std::uint64_t id, JsonValue result);

/**
 * Build a typed error response. @p retryAfterMs adds the backoff hint
 * (only meaningful for RetryAfter); @p detail attaches a structured
 * payload such as a hang report.
 */
JsonValue makeError(std::uint64_t id, ServeError error,
                    const std::string &message,
                    std::uint64_t retryAfterMs = 0,
                    JsonValue detail = JsonValue());

/** A decoded response, as seen by clients. */
struct ServeResponse
{
    std::uint64_t id = 0;
    bool ok = false;
    JsonValue result;          ///< Valid when ok.
    ServeError error = ServeError::None;
    std::string errorMessage;
    std::uint64_t retryAfterMs = 0;
    JsonValue errorDetail;

    /** True for errors that jittered backoff can overcome. */
    bool retryable() const { return error == ServeError::RetryAfter; }
};

/** Decode a response frame (nullopt + @p error on malformed JSON). */
std::optional<ServeResponse> parseResponse(const JsonValue &doc,
                                           std::string *error);

} // namespace tia

#endif // TIA_SERVE_PROTOCOL_HH
