/**
 * @file
 * perfbench-loadgen: a single-threaded open-loop request generator for
 * tia-serve.
 *
 *   perfbench-loadgen --socket PATH --connections K --schedule FILE
 *                     --out FILE
 *
 * The schedule is one request per line, "<due_us> <json>", where
 * due_us is the send time in microseconds from the start of the run
 * and json is the tia-serve/v1 request frame payload (its "id" must be
 * unique). The generator sends every request when it falls due,
 * whatever is still outstanding (open loop), on the connection with the
 * fewest outstanding requests; requests queued behind a slow one on the
 * same connection wait in the server, which is the system's queue, not
 * the generator's. One event loop (ppoll over K sockets) does all the
 * sending and receiving, so the process uses one thread and K
 * connections.
 *
 * Output, one line per request in schedule order:
 *
 *   id due_ns sent_ns done_ns ok cycles check error
 *
 * with times in nanoseconds from the start of the run, ok 1/0, check
 * "ok" or "bad", and error the typed error code or "-". A request
 * without a response by the end of the grace period gets done_ns -1
 * and error "timeout". The caller computes latency from due_ns (the
 * time the request should have been sent), so a stall that delays
 * later sends is charged to them, and generator lag as sent - due.
 */

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/json.hh"
#include "span.hh"

namespace {

using perfbench::nowNs;

/** How long after the last send the generator waits for responses. */
constexpr std::int64_t kGraceNs = 30'000'000'000;

struct Request
{
    std::uint64_t id = 0;
    std::int64_t dueNs = 0;
    std::string payload;
    std::int64_t sentNs = -1;
    std::int64_t doneNs = -1;
    bool ok = false;
    std::uint64_t cycles = 0;
    bool checkOk = false;
    std::string error = "-";
};

struct Connection
{
    int fd = -1;
    std::string out;          ///< Framed bytes not yet written.
    std::size_t outOffset = 0;
    std::string in;           ///< Bytes read, not yet parsed.
    std::size_t outstanding = 0;
};

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path)
        throw std::runtime_error("socket path too long: " + path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("connect " + path + ": " + why);
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

void
appendFrame(std::string &out, const std::string &payload)
{
    const auto n = static_cast<std::uint32_t>(payload.size());
    const char header[4] = {static_cast<char>(n & 0xff),
                            static_cast<char>((n >> 8) & 0xff),
                            static_cast<char>((n >> 16) & 0xff),
                            static_cast<char>((n >> 24) & 0xff)};
    out.append(header, 4);
    out += payload;
}

/** Write as much pending output as the socket takes. */
void
flush(Connection &conn)
{
    while (conn.outOffset < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.outOffset,
                   conn.out.size() - conn.outOffset, MSG_NOSIGNAL);
        if (n > 0) {
            conn.outOffset += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            throw std::runtime_error(std::string("send: ") +
                                     std::strerror(errno));
        }
    }
    if (conn.outOffset == conn.out.size()) {
        conn.out.clear();
        conn.outOffset = 0;
    }
}

void
recordResponse(const std::string &payload, std::int64_t doneNs,
               std::vector<Request> &requests,
               const std::unordered_map<std::uint64_t, std::size_t> &index)
{
    std::string error;
    const std::optional<tia::JsonValue> doc =
        tia::JsonValue::parse(payload, &error);
    if (!doc)
        throw std::runtime_error("malformed response: " + error);
    const tia::JsonValue *id = doc->find("id");
    if (id == nullptr || !id->isNumber())
        throw std::runtime_error("response without an id: " + payload);
    const auto it = index.find(static_cast<std::uint64_t>(id->number()));
    if (it == index.end())
        throw std::runtime_error("response for an unknown id: " + payload);
    Request &request = requests[it->second];
    request.doneNs = doneNs;
    const tia::JsonValue *ok = doc->find("ok");
    request.ok = ok != nullptr && ok->boolean();
    if (request.ok) {
        const tia::JsonValue *result = doc->find("result");
        const tia::JsonValue *cycles =
            result ? result->find("cycles") : nullptr;
        const tia::JsonValue *check = result ? result->find("check") : nullptr;
        request.cycles =
            cycles ? static_cast<std::uint64_t>(cycles->number()) : 0;
        request.checkOk =
            check != nullptr && check->isString() && check->str() == "ok";
    } else {
        const tia::JsonValue *err = doc->find("error");
        const tia::JsonValue *code = err ? err->find("code") : nullptr;
        request.error = code && code->isString() ? code->str() : "unknown";
    }
}

/** Read what the socket has and consume every complete frame. */
void
drain(Connection &conn, std::int64_t originNs,
      std::vector<Request> &requests,
      const std::unordered_map<std::uint64_t, std::size_t> &index,
      std::size_t &received)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn.in.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        throw std::runtime_error(n == 0 ? "server closed a connection"
                                        : std::string("recv: ") +
                                              std::strerror(errno));
    }
    const std::int64_t doneNs = static_cast<std::int64_t>(nowNs()) - originNs;
    std::size_t pos = 0;
    while (conn.in.size() - pos >= 4) {
        const auto *p =
            reinterpret_cast<const unsigned char *>(conn.in.data() + pos);
        const std::uint32_t len = p[0] | (p[1] << 8) | (p[2] << 16) |
                                  (static_cast<std::uint32_t>(p[3]) << 24);
        if (conn.in.size() - pos - 4 < len)
            break;
        recordResponse(conn.in.substr(pos + 4, len), doneNs, requests, index);
        pos += 4 + len;
        --conn.outstanding;
        ++received;
    }
    conn.in.erase(0, pos);
}

std::vector<Request>
readSchedule(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Request> requests;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos)
            throw std::runtime_error("bad schedule line: " + line);
        Request request;
        request.dueNs = std::stoll(line.substr(0, space)) * 1000;
        request.payload = line.substr(space + 1);
        std::string error;
        const std::optional<tia::JsonValue> doc =
            tia::JsonValue::parse(request.payload, &error);
        const tia::JsonValue *id = doc ? doc->find("id") : nullptr;
        if (id == nullptr || !id->isNumber())
            throw std::runtime_error("schedule request without an id: " +
                                     line);
        request.id = static_cast<std::uint64_t>(id->number());
        requests.push_back(std::move(request));
    }
    return requests;
}

int
run(int argc, char **argv)
{
    std::string socketPath;
    unsigned connections = 1;
    std::string schedulePath;
    std::string outPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error(arg + " needs an argument");
        const std::string value = argv[++i];
        if (arg == "--socket")
            socketPath = value;
        else if (arg == "--connections")
            connections = static_cast<unsigned>(std::stoul(value));
        else if (arg == "--schedule")
            schedulePath = value;
        else if (arg == "--out")
            outPath = value;
        else
            throw std::runtime_error("unknown option " + arg);
    }
    if (socketPath.empty() || connections == 0 || schedulePath.empty() ||
        outPath.empty())
        throw std::runtime_error("need --socket, --connections, --schedule "
                                 "and --out");

    std::vector<Request> requests = readSchedule(schedulePath);
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!index.emplace(requests[i].id, i).second)
            throw std::runtime_error("duplicate request id " +
                                     std::to_string(requests[i].id));
    }

    // Wake-ups as close to the due time as the kernel allows.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

    std::vector<Connection> conns(connections);
    for (Connection &conn : conns)
        conn.fd = connectUnix(socketPath);

    const std::int64_t originNs = static_cast<std::int64_t>(nowNs()) +
                                  2'000'000; // 2 ms to settle
    const std::int64_t lastDue =
        requests.empty() ? 0 : requests.back().dueNs;
    const std::int64_t deadline = lastDue + kGraceNs;
    std::size_t next = 0;
    std::size_t received = 0;
    std::size_t rr = 0;
    std::vector<pollfd> fds(conns.size());

    while (received < requests.size()) {
        std::int64_t now = static_cast<std::int64_t>(nowNs()) - originNs;
        if (now > deadline)
            break;
        while (next < requests.size() && requests[next].dueNs <= now) {
            // Least outstanding, ties broken round-robin.
            std::size_t best = rr % conns.size();
            for (std::size_t k = 0; k < conns.size(); ++k) {
                const std::size_t c = (rr + k) % conns.size();
                if (conns[c].outstanding < conns[best].outstanding)
                    best = c;
            }
            ++rr;
            Connection &conn = conns[best];
            appendFrame(conn.out, requests[next].payload);
            ++conn.outstanding;
            flush(conn);
            requests[next].sentNs =
                static_cast<std::int64_t>(nowNs()) - originNs;
            ++next;
        }

        for (std::size_t k = 0; k < conns.size(); ++k) {
            fds[k].fd = conns[k].fd;
            fds[k].events = POLLIN;
            if (!conns[k].out.empty())
                fds[k].events |= POLLOUT;
            fds[k].revents = 0;
        }
        now = static_cast<std::int64_t>(nowNs()) - originNs;
        std::int64_t waitNs = 50'000'000;
        if (next < requests.size())
            waitNs = std::min<std::int64_t>(
                waitNs, std::max<std::int64_t>(0, requests[next].dueNs - now));
        timespec timeout{};
        timeout.tv_sec = static_cast<time_t>(waitNs / 1'000'000'000);
        timeout.tv_nsec = static_cast<long>(waitNs % 1'000'000'000);
        const int rc = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (rc < 0 && errno != EINTR)
            throw std::runtime_error(std::string("ppoll: ") +
                                     std::strerror(errno));
        for (std::size_t k = 0; rc > 0 && k < conns.size(); ++k) {
            if (fds[k].revents & POLLOUT)
                flush(conns[k]);
            if (fds[k].revents & (POLLIN | POLLHUP | POLLERR))
                drain(conns[k], originNs, requests, index, received);
        }
    }
    for (Connection &conn : conns)
        ::close(conn.fd);

    std::FILE *out = std::fopen(outPath.c_str(), "w");
    if (out == nullptr)
        throw std::runtime_error("cannot write " + outPath);
    for (const Request &r : requests) {
        const bool timedOut = r.doneNs < 0;
        std::fprintf(out, "%llu %lld %lld %lld %d %llu %s %s\n",
                     static_cast<unsigned long long>(r.id),
                     static_cast<long long>(r.dueNs),
                     static_cast<long long>(r.sentNs),
                     static_cast<long long>(r.doneNs), r.ok ? 1 : 0,
                     static_cast<unsigned long long>(r.cycles),
                     r.checkOk ? "ok" : "bad",
                     timedOut ? "timeout" : r.error.c_str());
    }
    return std::fclose(out) == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench-loadgen: %s\n", error.what());
        return 2;
    }
}
