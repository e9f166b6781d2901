#include "serve/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "serve/frame.hh"

namespace tia {

namespace {

/** Response frames can be big (full sweep matrices). */
constexpr std::size_t kMaxResponseBytes = 64u << 20;
/** How long to wait for a response to start (-1 = forever). */
constexpr int kResponseTimeoutMs = -1;
/** Mid-frame stall budget while reading a response. */
constexpr int kResponseProgressMs = 10'000;

std::uint64_t
xorshift64(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

} // namespace

std::uint64_t
BackoffPolicy::delayMs(unsigned attempt, std::uint64_t serverHintMs,
                       std::uint64_t &rng) const
{
    double delay = static_cast<double>(baseMs) *
                   std::pow(multiplier, static_cast<double>(attempt));
    delay = std::max(delay, static_cast<double>(serverHintMs));
    delay = std::min(delay, static_cast<double>(maxMs));
    // Uniform jitter over [delay/2, delay]: shed clients spread out
    // instead of re-arriving in lockstep.
    const double unit =
        static_cast<double>(xorshift64(rng) >> 11) / 9007199254740992.0;
    const double jittered = delay * (0.5 + 0.5 * unit);
    return static_cast<std::uint64_t>(jittered) + 1;
}

ServeClient::~ServeClient()
{
    close();
}

ServeClient::ServeClient(ServeClient &&other) noexcept
{
    *this = std::move(other);
}

ServeClient &
ServeClient::operator=(ServeClient &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
        client_ = std::move(other.client_);
        deadlineMs_ = other.deadlineMs_;
        nextId_ = other.nextId_;
        rng_ = other.rng_;
    }
    return *this;
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::optional<ServeClient>
ServeClient::connectUnix(const std::string &path, std::string *error)
{
    struct sockaddr_un addr = {};
    if (path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "unix socket path too long: " + path;
        return std::nullopt;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket(AF_UNIX): ") + strerror(errno);
        return std::nullopt;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error)
            *error = "connect(" + path + "): " + strerror(errno);
        ::close(fd);
        return std::nullopt;
    }
    return ServeClient(fd);
}

std::optional<ServeClient>
ServeClient::connectTcp(const std::string &host, int port,
                        std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket(AF_INET): ") + strerror(errno);
        return std::nullopt;
    }
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (error)
            *error = "bad IPv4 address: " + host;
        ::close(fd);
        return std::nullopt;
    }
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error)
            *error = "connect(" + host + ":" + std::to_string(port) +
                     "): " + strerror(errno);
        ::close(fd);
        return std::nullopt;
    }
    return ServeClient(fd);
}

std::optional<ServeResponse>
ServeClient::call(const std::string &method, JsonValue params,
                  std::string *error)
{
    const auto fail = [this, error](const std::string &why) {
        if (error)
            *error = why;
        close(); // transport state is unknown; force a reconnect
        return std::nullopt;
    };
    if (fd_ < 0)
        return fail("not connected");

    JsonValue request = JsonValue::object();
    request["id"] = nextId_++;
    request["method"] = method;
    if (!client_.empty())
        request["client"] = client_;
    if (deadlineMs_ != 0)
        request["deadline_ms"] = deadlineMs_;
    if (!params.isNull())
        request["params"] = std::move(params);

    std::string ioError;
    if (!writeFrame(fd_, request.dump(), &ioError))
        return fail("write: " + ioError);

    const FrameResult frame = readFrame(
        fd_, kMaxResponseBytes, kResponseTimeoutMs, kResponseProgressMs);
    if (frame.status != FrameStatus::Ok)
        return fail(std::string("read: ") +
                    frameStatusName(frame.status) +
                    (frame.error.empty() ? "" : " (" + frame.error + ")"));

    std::string parseError;
    const auto doc = JsonValue::parse(frame.payload, &parseError);
    if (!doc.has_value())
        return fail("malformed response JSON: " + parseError);
    auto response = parseResponse(*doc, &parseError);
    if (!response.has_value())
        return fail("malformed response: " + parseError);
    return response;
}

std::optional<ServeResponse>
ServeClient::callWithRetry(const std::string &method, JsonValue params,
                           const BackoffPolicy &policy, std::string *error,
                           unsigned *retries)
{
    if (rng_ == 0)
        rng_ = policy.seed;
    unsigned attempts = 0;
    for (;;) {
        auto response = call(method, params, error);
        if (retries)
            *retries = attempts;
        if (!response.has_value() || response->ok ||
            !response->retryable() || attempts >= policy.maxRetries)
            return response;
        const std::uint64_t delay =
            policy.delayMs(attempts, response->retryAfterMs, rng_);
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        ++attempts;
    }
}

} // namespace tia
