#include "serve/frame.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace tia {

namespace {

using Clock = std::chrono::steady_clock;

/** Milliseconds left until @p deadline, clamped at zero; -1 = forever. */
int
remainingMs(bool hasDeadline, Clock::time_point deadline)
{
    if (!hasDeadline)
        return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    return left.count() <= 0 ? 0
                             : static_cast<int>(left.count());
}

/**
 * Wait for @p fd to become readable. Returns 1 when readable, 0 on
 * timeout, -1 on error. POLLHUP/POLLERR report as readable so the
 * subsequent recv observes the close/error directly.
 */
int
waitReadable(int fd, int timeoutMs)
{
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    for (;;) {
        const int rc = ::poll(&pfd, 1, timeoutMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        return rc;
    }
}

} // namespace

const char *
frameStatusName(FrameStatus status)
{
    switch (status) {
      case FrameStatus::Ok:
        return "ok";
      case FrameStatus::Eof:
        return "eof";
      case FrameStatus::Idle:
        return "idle";
      case FrameStatus::Timeout:
        return "timeout";
      case FrameStatus::TooLarge:
        return "too large";
      case FrameStatus::Truncated:
        return "truncated";
      case FrameStatus::Error:
        return "error";
    }
    return "?";
}

FrameResult
readFrame(int fd, std::size_t maxBytes, int firstByteMs, int progressMs)
{
    FrameResult result;

    unsigned char header[4];
    std::size_t headerRead = 0;
    std::string payload;
    std::size_t payloadRead = 0;
    std::size_t payloadSize = 0;
    bool started = false;

    // The first byte runs on the patient budget; every later chunk
    // must arrive within progressMs of the previous one.
    bool hasDeadline = firstByteMs >= 0;
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(firstByteMs > 0
                                                     ? firstByteMs
                                                     : 0);

    for (;;) {
        const int wait = remainingMs(hasDeadline, deadline);
        const int ready = waitReadable(fd, wait);
        if (ready < 0) {
            result.status = FrameStatus::Error;
            result.error = std::strerror(errno);
            return result;
        }
        if (ready == 0) {
            result.status =
                started ? FrameStatus::Timeout : FrameStatus::Idle;
            return result;
        }

        char buf[65536];
        std::size_t want;
        char *dst;
        if (headerRead < sizeof(header)) {
            want = sizeof(header) - headerRead;
            dst = reinterpret_cast<char *>(header) + headerRead;
        } else {
            want = payloadSize - payloadRead;
            if (want > sizeof(buf))
                want = sizeof(buf);
            dst = buf;
        }

        const ssize_t n = ::recv(fd, dst, want, 0);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            result.status = FrameStatus::Error;
            result.error = std::strerror(errno);
            return result;
        }
        if (n == 0) {
            result.status =
                started ? FrameStatus::Truncated : FrameStatus::Eof;
            return result;
        }

        started = true;
        hasDeadline = progressMs >= 0;
        deadline = Clock::now() + std::chrono::milliseconds(
                                      progressMs > 0 ? progressMs : 0);

        if (headerRead < sizeof(header)) {
            headerRead += static_cast<std::size_t>(n);
            if (headerRead == sizeof(header)) {
                payloadSize = static_cast<std::size_t>(header[0]) |
                              (static_cast<std::size_t>(header[1]) << 8) |
                              (static_cast<std::size_t>(header[2]) << 16) |
                              (static_cast<std::size_t>(header[3]) << 24);
                if (payloadSize > maxBytes) {
                    result.status = FrameStatus::TooLarge;
                    return result;
                }
                if (payloadSize == 0) {
                    result.status = FrameStatus::Ok;
                    return result;
                }
                payload.resize(payloadSize);
            }
        } else {
            std::memcpy(payload.data() + payloadRead, buf,
                        static_cast<std::size_t>(n));
            payloadRead += static_cast<std::size_t>(n);
            if (payloadRead == payloadSize) {
                result.status = FrameStatus::Ok;
                result.payload = std::move(payload);
                return result;
            }
        }
    }
}

bool
writeFrame(int fd, std::string_view payload, std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    if (payload.size() > 0xffffffffu)
        return fail("frame too large for a 32-bit length prefix");

    const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
    unsigned char header[4] = {
        static_cast<unsigned char>(size & 0xff),
        static_cast<unsigned char>((size >> 8) & 0xff),
        static_cast<unsigned char>((size >> 16) & 0xff),
        static_cast<unsigned char>((size >> 24) & 0xff),
    };

    // Header and payload leave in one gathered write. Two send() calls
    // would let Nagle hold the payload until the peer ACKs the 4-byte
    // prefix, and a delayed ACK then stalls every TCP frame ~40 ms.
    struct iovec iov[2];
    iov[0].iov_base = header;
    iov[0].iov_len = sizeof(header);
    iov[1].iov_base = const_cast<char *>(payload.data());
    iov[1].iov_len = payload.size();
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    while (msg.msg_iovlen > 0) {
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return fail(std::strerror(errno));
        }
        // Partial write: drop the fully sent entries, trim the next.
        std::size_t sent = static_cast<std::size_t>(n);
        while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
            sent -= msg.msg_iov->iov_len;
            ++msg.msg_iov;
            --msg.msg_iovlen;
        }
        if (msg.msg_iovlen > 0) {
            msg.msg_iov->iov_base =
                static_cast<char *>(msg.msg_iov->iov_base) + sent;
            msg.msg_iov->iov_len -= sent;
        }
    }
    return true;
}

} // namespace tia
