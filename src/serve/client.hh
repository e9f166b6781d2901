/**
 * @file
 * Blocking client for the tia-serve wire protocol.
 *
 * One ServeClient owns one connection and issues one request at a
 * time (the server serializes per-connection work anyway; concurrency
 * comes from opening more clients, as tia-loadgen does). The piece
 * with actual policy in it is callWithRetry(): a `retry_after`
 * rejection is honored with *jittered* exponential backoff seeded from
 * the server's hint — the jitter is what keeps a fleet of shed clients
 * from re-arriving in lockstep and being shed again (docs/serve.md).
 */

#ifndef TIA_SERVE_CLIENT_HH
#define TIA_SERVE_CLIENT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "serve/protocol.hh"

namespace tia {

/** Jittered exponential backoff for retryable rejections. */
struct BackoffPolicy
{
    std::uint64_t baseMs = 25;   ///< First-retry delay floor.
    std::uint64_t maxMs = 2000;  ///< Per-delay ceiling.
    double multiplier = 2.0;     ///< Exponential growth per attempt.
    unsigned maxRetries = 8;     ///< Give up after this many retries.
    std::uint64_t seed = 0x9e3779b97f4a7c15ull; ///< Jitter PRNG seed.

    /**
     * Delay before retry number @p attempt (0-based), honoring the
     * server's retry_after hint as a floor and jittering the result
     * uniformly over [d/2, d]. Advances @p rng.
     */
    std::uint64_t delayMs(unsigned attempt, std::uint64_t serverHintMs,
                          std::uint64_t &rng) const;
};

class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();
    ServeClient(ServeClient &&other) noexcept;
    ServeClient &operator=(ServeClient &&other) noexcept;
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    static std::optional<ServeClient>
    connectUnix(const std::string &path, std::string *error = nullptr);
    static std::optional<ServeClient>
    connectTcp(const std::string &host, int port,
               std::string *error = nullptr);

    int fd() const { return fd_; } ///< Raw socket (torture tests).
    void close();

    /** Client name sent with every request (the server's quota key). */
    void setClient(std::string name) { client_ = std::move(name); }
    /** Per-request deadline_ms field (0 = server default). */
    void setDeadlineMs(std::uint64_t ms) { deadlineMs_ = ms; }

    /**
     * Send one request and wait for its response. nullopt + @p error
     * on transport failure (including a malformed response); a typed
     * server error is a *successful* call with ok() == false.
     */
    std::optional<ServeResponse> call(const std::string &method,
                                      JsonValue params,
                                      std::string *error = nullptr);

    /**
     * call(), resending after `retry_after` rejections per @p policy.
     * Any other response (success or non-retryable error) is returned
     * as-is. @p retries reports how many resends happened.
     */
    std::optional<ServeResponse>
    callWithRetry(const std::string &method, JsonValue params,
                  const BackoffPolicy &policy = {},
                  std::string *error = nullptr,
                  unsigned *retries = nullptr);

  private:
    explicit ServeClient(int fd) : fd_(fd), rng_(0x2545f4914f6cdd1dull) {}

    int fd_ = -1;
    std::string client_;
    std::uint64_t deadlineMs_ = 0;
    std::uint64_t nextId_ = 1;
    std::uint64_t rng_ = 0;
};

} // namespace tia

#endif // TIA_SERVE_CLIENT_HH
