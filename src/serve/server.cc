#include "serve/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "core/assembler.hh"
#include "core/encoding.hh"
#include "core/logging.hh"
#include "exec/stop_token.hh"
#include "exec/thread_pool.hh"
#include "serve/frame.hh"
#include "uarch/config.hh"
#include "workloads/runner.hh"

namespace tia {

namespace {

using Clock = std::chrono::steady_clock;

/** Poll slice for loops that must observe drain/stop flags. */
constexpr int kSliceMs = 200;
/** Completion-wait slice while watching the client socket. */
constexpr auto kJobWaitSlice = std::chrono::milliseconds(100);
/** Latency reservoir bound (ring once full). */
constexpr std::size_t kLatencyReservoir = 65'536;

double
elapsedMs(Clock::time_point since, Clock::time_point now)
{
    return std::chrono::duration<double, std::milli>(now - since).count();
}

// ---- request parameter helpers (misuse throws FatalError, which the
// ---- worker maps onto a typed bad_request response) ------------------

std::string
paramString(const JsonValue &params, const char *key,
            const std::string &fallback)
{
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        return fallback;
    fatalIf(!value->isString(), "\"", key, "\" must be a string");
    return value->str();
}

std::string
requireString(const JsonValue &params, const char *key)
{
    const JsonValue *value = params.find(key);
    fatalIf(value == nullptr || !value->isString() || value->str().empty(),
            "\"", key, "\" (non-empty string) is required");
    return value->str();
}

std::uint64_t
paramU64(const JsonValue &params, const char *key, std::uint64_t fallback)
{
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        return fallback;
    const std::optional<std::uint64_t> number = wireU64(*value);
    fatalIf(!number.has_value(), "\"", key,
            "\" must be a non-negative integer");
    return *number;
}

bool
paramBool(const JsonValue &params, const char *key, bool fallback)
{
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        return fallback;
    fatalIf(value->kind() != JsonValue::Kind::Bool,
            "\"", key, "\" must be a boolean");
    return value->boolean();
}

WorkloadSizes
paramSizes(const JsonValue &params, std::string *name = nullptr)
{
    const std::string sizes = paramString(params, "sizes", "small");
    if (name != nullptr)
        *name = sizes;
    if (sizes == "small")
        return WorkloadSizes::small();
    if (sizes == "full")
        return WorkloadSizes::full();
    fatal("unknown \"sizes\" \"", sizes, "\" (expected small or full)");
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

JsonValue
stringArray(const std::vector<std::string> &values)
{
    JsonValue out = JsonValue::array();
    for (const std::string &value : values)
        out.push(value);
    return out;
}

bool
isHang(RunStatus status)
{
    return status == RunStatus::Deadlock || status == RunStatus::Livelock ||
           status == RunStatus::StepLimit;
}

JsonValue
hangDetail(const WorkloadRun &run)
{
    JsonValue detail = JsonValue::object();
    detail["classification"] = runStatusName(run.hang.classification);
    detail["summary"] = run.hang.summary;
    detail["cycles"] = run.totalCycles;
    detail["wait_chain"] = stringArray(run.hang.waitChain);
    detail["blocked"] = stringArray(run.hang.blockedAgents);
    return detail;
}

/** True when the peer of @p fd is gone (closed or errored). */
bool
peerDisconnected(int fd)
{
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 0);
    if (rc <= 0)
        return false;
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0)
        return true;
    if ((pfd.revents & POLLIN) != 0) {
        // Data pending is a pipelined request, not a hangup; only a
        // zero-byte read means the peer closed its end.
        char byte;
        const ssize_t n =
            ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
        return n == 0;
    }
    return false;
}

int
listenUnix(const std::string &path, bool *bound, std::string *error)
{
    struct sockaddr_un addr = {};
    if (path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "unix socket path too long (" +
                     std::to_string(path.size()) + " bytes): " + path;
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket(AF_UNIX): ") + strerror(errno);
        return -1;
    }
    ::unlink(path.c_str()); // stale socket from a previous run
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 128) != 0) {
        if (error)
            *error = "bind/listen(" + path + "): " + strerror(errno);
        ::close(fd);
        return -1;
    }
    *bound = true;
    return fd;
}

int
listenTcp(int port, int *boundPort, std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket(AF_INET): ") + strerror(errno);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 128) != 0) {
        if (error)
            *error = "bind/listen(127.0.0.1:" + std::to_string(port) +
                     "): " + strerror(errno);
        ::close(fd);
        return -1;
    }
    struct sockaddr_in bound = {};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr *>(&bound),
                      &len) == 0)
        *boundPort = ntohs(bound.sin_port);
    return fd;
}

} // namespace

/**
 * One admitted request in flight. The connection thread creates it,
 * waits on `cv`/`done` and owns the socket write; a worker fills
 * `response`/`outcome`. The stop source carries both the request
 * deadline and disconnect/shutdown cancellation into the simulator.
 */
struct Server::Job
{
    ServeRequest request;
    Clock::time_point receivedAt;
    StopSource stop;
    std::atomic<bool> disconnected{false};
    bool hang = false; ///< Simulation ended in a diagnosed hang class.

    enum class Outcome
    {
        Completed,
        CancelledDeadline,
        CancelledDisconnect,
        Failed,
    };
    Outcome outcome = Outcome::Completed;

    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    JsonValue response;
};

Server::Server(ServerOptions options) : opt_(std::move(options))
{
}

Server::~Server()
{
    if (started_)
        hardStop();
    closeListeners();
    for (int &fd : wakePipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
}

bool
Server::start(std::string *error)
{
    fatalIf(started_, "Server::start called twice");
    if (!opt_.cachePath.empty())
        cache_.load(opt_.cachePath, nullptr); // cold start is fine
    cache_.setVerifyHits(opt_.cacheVerify);

    if (::pipe2(wakePipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
        if (error)
            *error = std::string("pipe2: ") + strerror(errno);
        return false;
    }
    if (!opt_.unixPath.empty()) {
        unixFd_ = listenUnix(opt_.unixPath, &boundUnix_, error);
        if (unixFd_ < 0)
            return false;
    }
    if (opt_.tcpPort >= 0) {
        tcpFd_ = listenTcp(opt_.tcpPort, &boundTcpPort_, error);
        if (tcpFd_ < 0) {
            closeListeners();
            return false;
        }
    }
    if (unixFd_ < 0 && tcpFd_ < 0) {
        if (error)
            *error = "no listener configured (need a unix path or a "
                     "tcp port)";
        return false;
    }

    startTime_ = Clock::now();
    workerCount_ =
        opt_.workers != 0 ? opt_.workers : ThreadPool::defaultConcurrency();
    workers_.reserve(workerCount_);
    for (unsigned i = 0; i < workerCount_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    started_ = true;
    return true;
}

bool
Server::draining() const
{
    std::lock_guard lk(mu_);
    return draining_;
}

void
Server::wake()
{
    if (wakePipe_[1] >= 0) {
        const char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &byte, 1);
    }
}

void
Server::requestDrain()
{
    {
        std::lock_guard lk(mu_);
        if (draining_)
            return;
        draining_ = true;
    }
    queueCv_.notify_all();
    stateCv_.notify_all();
    wake();
}

void
Server::waitDrained()
{
    {
        std::unique_lock lk(mu_);
        stateCv_.wait(lk, [this] {
            return draining_ && queue_.empty() && active_.empty() &&
                   counters_.liveConnections == 0;
        });
    }
    joinAll();
}

void
Server::hardStop()
{
    std::vector<JobPtr> orphaned;
    {
        std::lock_guard lk(mu_);
        stopping_ = true;
        draining_ = true;
        for (Job *job : active_)
            job->stop.requestStop();
        while (!queue_.empty()) {
            orphaned.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        // Queued jobs never ran; they terminate as failed (the
        // admitted == completed + cancelled + failed + active + queued
        // identity needs every admitted request in a terminal bucket).
        counters_.failed += orphaned.size();
    }
    for (const JobPtr &job : orphaned) {
        job->response =
            makeError(job->request.id, ServeError::ShuttingDown,
                      "server stopped before the request ran");
        job->outcome = Job::Outcome::Failed;
        finishJob(job);
    }
    queueCv_.notify_all();
    stateCv_.notify_all();
    wake();
    joinAll();
}

void
Server::joinAll()
{
    {
        std::lock_guard lk(mu_);
        if (joined_)
            return;
        joined_ = true;
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
    for (std::thread &conn : connections_)
        if (conn.joinable())
            conn.join();
    connections_.clear();
    finished_.clear();
}

void
Server::closeListeners()
{
    for (int *fd : {&unixFd_, &tcpFd_}) {
        if (*fd >= 0) {
            ::close(*fd);
            *fd = -1;
        }
    }
    if (boundUnix_) {
        ::unlink(opt_.unixPath.c_str());
        boundUnix_ = false;
    }
}

bool
Server::flushCache(std::string *error)
{
    if (opt_.cachePath.empty())
        return true;
    return cache_.save(opt_.cachePath, error);
}

// ---- accept / connection plumbing -----------------------------------

void
Server::reapConnections()
{
    for (const auto &it : finished_) {
        if (it->joinable())
            it->join();
        connections_.erase(it);
    }
    finished_.clear();
}

void
Server::acceptLoop()
{
    for (;;) {
        {
            std::lock_guard lk(mu_);
            reapConnections();
            if (draining_ || stopping_)
                break;
        }
        struct pollfd fds[3];
        int nfds = 0;
        int unixIdx = -1, tcpIdx = -1;
        if (unixFd_ >= 0) {
            unixIdx = nfds;
            fds[nfds++] = {unixFd_, POLLIN, 0};
        }
        if (tcpFd_ >= 0) {
            tcpIdx = nfds;
            fds[nfds++] = {tcpFd_, POLLIN, 0};
        }
        fds[nfds++] = {wakePipe_[0], POLLIN, 0};

        const int rc = ::poll(fds, static_cast<nfds_t>(nfds), 1000);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[nfds - 1].revents & POLLIN) {
            char sink[64];
            while (::read(wakePipe_[0], sink, sizeof(sink)) > 0) {
            }
        }
        for (int idx : {unixIdx, tcpIdx}) {
            if (idx < 0 || (fds[idx].revents & POLLIN) == 0)
                continue;
            const int client =
                ::accept4(fds[idx].fd, nullptr, nullptr, SOCK_CLOEXEC);
            if (client < 0)
                continue;
            std::lock_guard lk(mu_);
            if (draining_ || stopping_) {
                ::close(client);
                continue;
            }
            counters_.connectionsTotal++;
            counters_.liveConnections++;
            const std::uint64_t connId = counters_.connectionsTotal;
            connections_.emplace_back();
            const auto it = std::prev(connections_.end());
            *it = std::thread([this, client, connId, it] {
                connectionLoop(client, connId);
                {
                    std::lock_guard inner(mu_);
                    counters_.liveConnections--;
                    finished_.push_back(it);
                }
                stateCv_.notify_all();
                wake(); // let the accept loop reap promptly
            });
        }
    }
    // Stop accepting the moment a drain begins: new connects are
    // refused instead of being accepted and immediately shed.
    closeListeners();
}

void
Server::connectionLoop(int fd, std::uint64_t connId)
{
    int idleMs = 0;
    for (;;) {
        {
            std::lock_guard lk(mu_);
            if (stopping_)
                break;
        }
        FrameResult frame =
            readFrame(fd, opt_.maxFrameBytes, kSliceMs, opt_.frameTimeoutMs);
        if (frame.status == FrameStatus::Idle) {
            idleMs += kSliceMs;
            bool leave;
            {
                std::lock_guard lk(mu_);
                leave = draining_ || stopping_;
            }
            if (leave)
                break; // drain: close idle connections at frame boundaries
            if (opt_.idleTimeoutMs >= 0 && idleMs >= opt_.idleTimeoutMs)
                break;
            continue;
        }
        idleMs = 0;
        if (frame.status == FrameStatus::Timeout) {
            {
                std::lock_guard lk(mu_);
                counters_.frameTimeouts++;
            }
            sendResponse(
                fd, makeError(0, ServeError::BadRequest,
                              "frame stalled mid-read (slow-loris "
                              "cutoff); closing connection"));
            break;
        }
        if (frame.status == FrameStatus::TooLarge) {
            {
                std::lock_guard lk(mu_);
                counters_.frameErrors++;
            }
            sendResponse(fd,
                         makeError(0, ServeError::BadRequest,
                                   "frame exceeds the " +
                                       std::to_string(opt_.maxFrameBytes) +
                                       "-byte limit; closing connection"));
            break;
        }
        if (frame.status != FrameStatus::Ok)
            break; // Eof / Truncated / Error
        if (!handleFrame(fd, frame.payload, connId))
            break;
    }
    ::close(fd);
}

bool
Server::sendResponse(int fd, const JsonValue &response)
{
    std::string error;
    if (writeFrame(fd, response.dump(), &error))
        return true;
    std::lock_guard lk(mu_);
    counters_.writeFailures++;
    return false;
}

bool
Server::handleFrame(int fd, const std::string &payload, std::uint64_t connId)
{
    std::string parseError;
    const auto doc = JsonValue::parse(payload, &parseError);
    if (!doc.has_value()) {
        {
            std::lock_guard lk(mu_);
            counters_.received++;
            counters_.rejected++;
        }
        // A malformed payload poisons one frame, not the connection:
        // length-prefixed framing stays synchronized.
        return sendResponse(fd, makeError(0, ServeError::BadRequest,
                                          "malformed JSON: " + parseError));
    }

    std::string requestError;
    auto request = parseRequest(*doc, &requestError);
    if (!request.has_value()) {
        std::uint64_t id = 0;
        if (const JsonValue *v = doc->find("id"))
            id = wireU64(*v).value_or(0);
        {
            std::lock_guard lk(mu_);
            counters_.received++;
            counters_.rejected++;
        }
        return sendResponse(
            fd, makeError(id, ServeError::BadRequest, requestError));
    }

    // Control plane: answered inline by the connection thread, exempt
    // from quotas and the queue so observability and shutdown keep
    // working on a saturated server. `stats`/`drain` count as received
    // + admitted + completed in one step to keep the counter identity
    // exact in any snapshot.
    if (request->method == "stats" || request->method == "drain" ||
        request->method == "methods") {
        JsonValue result;
        {
            std::lock_guard lk(mu_);
            counters_.received++;
            counters_.admitted++;
            counters_.completed++;
            if (request->method == "stats")
                result = serverStatsJsonLocked();
        }
        if (request->method == "methods")
            result = methodsResult();
        if (request->method == "drain") {
            result = JsonValue::object();
            result["draining"] = JsonValue(true);
        }
        const bool ok = sendResponse(fd, makeResult(request->id, result));
        if (request->method == "drain")
            requestDrain();
        return ok;
    }

    const bool knownMethod = request->method == "assemble" ||
                             request->method == "simulate" ||
                             request->method == "sweep";

    // Admission. Order matters: drain and validity first (no quota
    // charge for garbage), then queue capacity (no token spent on a
    // request that would be shed anyway), then the per-client bucket.
    const auto now = Clock::now();
    JobPtr job;
    JsonValue rejection;
    {
        std::lock_guard lk(mu_);
        counters_.received++;
        if (draining_ || stopping_) {
            counters_.shedDraining++;
            rejection = makeError(request->id, ServeError::ShuttingDown,
                                  "server is draining; no new work");
        } else if (!knownMethod) {
            counters_.rejected++;
            rejection =
                makeError(request->id, ServeError::BadRequest,
                          "unknown method \"" + request->method +
                              "\" (assemble, simulate, sweep, stats, "
                              "methods, drain)");
        } else if (queue_.size() >= opt_.queueCapacity) {
            counters_.shedQueueFull++;
            rejection =
                makeError(request->id, ServeError::RetryAfter,
                          "job queue is full", retryAfterHintMs());
        } else {
            const std::string key =
                request->client.empty()
                    ? "conn#" + std::to_string(connId)
                    : "client:" + request->client;
            auto [bucket, inserted] = buckets_.try_emplace(
                key, opt_.quotaRate, opt_.quotaBurst, now);
            std::uint64_t hint = 0;
            if (!bucket->second.tryAcquire(now, &hint)) {
                counters_.shedQuota++;
                rejection = makeError(request->id, ServeError::RetryAfter,
                                      "quota exhausted for " + key, hint);
            } else {
                counters_.admitted++;
                job = std::make_shared<Job>();
                job->request = std::move(*request);
                job->receivedAt = now;
                std::uint64_t deadlineMs = job->request.deadlineMs != 0
                                               ? job->request.deadlineMs
                                               : opt_.defaultDeadlineMs;
                if (opt_.maxDeadlineMs != 0)
                    deadlineMs = deadlineMs == 0
                                     ? opt_.maxDeadlineMs
                                     : std::min(deadlineMs,
                                                opt_.maxDeadlineMs);
                if (deadlineMs != 0)
                    job->stop.setDeadlineAfterMs(deadlineMs);
                queue_.push_back(job);
                counters_.queueHighWater = std::max(
                    counters_.queueHighWater,
                    static_cast<std::uint64_t>(queue_.size()));
            }
        }
    }
    if (job == nullptr)
        return sendResponse(fd, rejection);
    queueCv_.notify_one();
    return waitAndRespond(fd, job);
}

bool
Server::waitAndRespond(int fd, const JobPtr &job)
{
    {
        std::unique_lock jl(job->m);
        while (!job->done) {
            job->cv.wait_for(jl, kJobWaitSlice);
            if (job->done)
                break;
            // Watch the socket while the job runs: a client that
            // vanished should cancel its work and free the worker, not
            // leave a response to write into a dead pipe.
            if (!job->disconnected.load(std::memory_order_relaxed) &&
                peerDisconnected(fd)) {
                job->disconnected.store(true, std::memory_order_relaxed);
                job->stop.requestStop();
            }
        }
    }
    if (job->disconnected.load(std::memory_order_relaxed))
        return false; // nothing to write; worker recorded the cancel
    return sendResponse(fd, job->response);
}

// ---- worker side -----------------------------------------------------

void
Server::workerLoop()
{
    for (;;) {
        JobPtr job;
        {
            std::unique_lock lk(mu_);
            queueCv_.wait(lk, [this] {
                return !queue_.empty() || draining_ || stopping_;
            });
            if (queue_.empty()) {
                if (draining_ || stopping_)
                    return;
                continue;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            active_.insert(job.get());
        }

        executeJob(job);

        {
            std::lock_guard lk(mu_);
            active_.erase(job.get());
            switch (job->outcome) {
              case Job::Outcome::Completed:
                counters_.completed++;
                if (job->hang)
                    counters_.hangs++;
                recordLatency(elapsedMs(job->receivedAt, Clock::now()));
                break;
              case Job::Outcome::CancelledDeadline:
                counters_.cancelledDeadline++;
                break;
              case Job::Outcome::CancelledDisconnect:
                counters_.cancelledDisconnect++;
                break;
              case Job::Outcome::Failed:
                counters_.failed++;
                break;
            }
        }
        finishJob(job);
        stateCv_.notify_all();
    }
}

void
Server::finishJob(const JobPtr &job)
{
    {
        std::lock_guard jl(job->m);
        job->done = true;
    }
    job->cv.notify_all();
}

void
Server::executeJob(const JobPtr &job)
{
    Job &j = *job;
    if (j.stop.stopRequested()) {
        // Expired or disconnected while still queued: answer without
        // simulating at all.
        if (j.disconnected.load(std::memory_order_relaxed)) {
            j.outcome = Job::Outcome::CancelledDisconnect;
            j.response =
                makeError(j.request.id, ServeError::Deadline,
                          "client disconnected before execution");
        } else {
            JsonValue detail = JsonValue::object();
            detail["queued_ms"] = elapsedMs(j.receivedAt, Clock::now());
            j.outcome = Job::Outcome::CancelledDeadline;
            j.response = makeError(j.request.id, ServeError::Deadline,
                                   "deadline expired while queued", 0,
                                   std::move(detail));
        }
        return;
    }
    try {
        j.response = dispatch(j);
    } catch (const FatalError &e) {
        // Post-admission parameter misuse: a served (typed) error, not
        // a server failure.
        j.outcome = Job::Outcome::Completed;
        j.response =
            makeError(j.request.id, ServeError::BadRequest, e.what());
    } catch (const std::exception &e) {
        j.outcome = Job::Outcome::Failed;
        j.response =
            makeError(j.request.id, ServeError::Internal, e.what());
    }
}

JsonValue
Server::dispatch(Job &job)
{
    job.outcome = Job::Outcome::Completed;
    const JsonValue &params = job.request.params;
    if (job.request.method == "assemble")
        return handleAssemble(params, job);
    if (job.request.method == "simulate")
        return handleSimulate(params, job);
    if (job.request.method == "sweep")
        return handleSweep(params, job);
    // Unreachable: admission validated the method.
    return makeError(job.request.id, ServeError::BadRequest,
                     "unknown method \"" + job.request.method + "\"");
}

JsonValue
Server::handleAssemble(const JsonValue &params, Job &job)
{
    const std::string source = requireString(params, "source");
    const Program program = assemble(source); // FatalError -> bad_request

    JsonValue result = JsonValue::object();
    result["num_pes"] = program.pes.size();
    JsonValue instructions = JsonValue::array();
    JsonValue machineCode = JsonValue::array();
    for (const std::vector<Instruction> &pe : program.pes) {
        instructions.push(pe.size());
        JsonValue words = JsonValue::array();
        for (std::uint32_t word : encodeStore(program.params, pe))
            words.push(word);
        machineCode.push(std::move(words));
    }
    result["static_instructions"] = std::move(instructions);
    result["machine_code"] = std::move(machineCode);
    return makeResult(job.request.id, std::move(result));
}

JsonValue
Server::handleSimulate(const JsonValue &params, Job &job)
{
    const std::string name = requireString(params, "workload");
    const ServeRegistry::WorkloadFactory *factory =
        registry_.workload(name);
    fatalIf(factory == nullptr, "unknown workload \"", name,
            "\" (known: ", joinNames(registry_.workloadNames()), ")");

    std::string sizesName;
    const WorkloadSizes sizes = paramSizes(params, &sizesName);
    const std::string uarchName = paramString(params, "uarch", "TDX");
    const auto uarch = parseConfigName(uarchName);
    fatalIf(!uarch.has_value(), "unknown uarch \"", uarchName, "\"");

    CycleRunOptions options;
    options.maxCycles = paramU64(params, "max_cycles", options.maxCycles);
    options.stop = job.stop.token();
    options.cache = paramBool(params, "cache", true) ? &cache_ : nullptr;

    std::vector<std::string> analysisNames = {"cpi", "verdict"};
    if (const JsonValue *requested = params.find("analyses")) {
        fatalIf(!requested->isArray(),
                "\"analyses\" must be an array of names");
        analysisNames.clear();
        for (const JsonValue &entry : requested->items()) {
            fatalIf(!entry.isString(), "analysis names must be strings");
            fatalIf(registry_.analysis(entry.str()) == nullptr,
                    "unknown analysis \"", entry.str(), "\" (known: ",
                    joinNames(registry_.analysisNames()), ")");
            analysisNames.push_back(entry.str());
        }
    }

    const Workload workload = (*factory)(sizes);
    const WorkloadRun run = runCycle(workload, *uarch, options);

    if (run.status == RunStatus::Cancelled) {
        JsonValue detail = JsonValue::object();
        detail["cycles"] = run.totalCycles;
        detail["summary"] = run.hang.summary;
        bool serverStopping;
        {
            std::lock_guard lk(mu_);
            serverStopping = stopping_;
        }
        if (serverStopping) {
            job.outcome = Job::Outcome::Failed;
            return makeError(job.request.id, ServeError::ShuttingDown,
                             "cancelled by server shutdown", 0,
                             std::move(detail));
        }
        const bool gone =
            job.disconnected.load(std::memory_order_relaxed);
        job.outcome = gone ? Job::Outcome::CancelledDisconnect
                           : Job::Outcome::CancelledDeadline;
        return makeError(job.request.id, ServeError::Deadline,
                         gone ? "cancelled: client disconnected"
                              : "deadline expired after " +
                                    std::to_string(run.totalCycles) +
                                    " cycles",
                         0, std::move(detail));
    }
    if (isHang(run.status)) {
        // A diagnosed hang is a *served* result about the workload —
        // the request completed; the simulation did not.
        job.hang = true;
        return makeError(job.request.id, ServeError::Hang,
                         run.hang.summary, 0, hangDetail(run));
    }

    JsonValue result = JsonValue::object();
    result["workload"] = name;
    result["uarch"] = uarch->name();
    result["sizes"] = sizesName;
    result["status"] = runStatusName(run.status);
    result["cycles"] = run.totalCycles;
    result["check"] = run.checkError.empty() ? JsonValue("ok")
                                             : JsonValue(run.checkError);
    JsonValue analyses = JsonValue::object();
    for (const std::string &analysisName : analysisNames)
        analyses[analysisName] =
            (*registry_.analysis(analysisName))(run);
    result["analyses"] = std::move(analyses);
    return makeResult(job.request.id, std::move(result));
}

JsonValue
Server::handleSweep(const JsonValue &params, Job &job)
{
    std::string sizesName;
    const WorkloadSizes sizes = paramSizes(params, &sizesName);

    std::vector<std::string> names;
    const JsonValue *requested = params.find("workloads");
    if (requested == nullptr ||
        (requested->isString() && requested->str() == "all")) {
        // "all" means the halting suite; `spin` must be asked for by
        // name (it cannot finish and would poison every sweep).
        for (const std::string &name : registry_.workloadNames())
            if (name != "spin")
                names.push_back(name);
    } else {
        fatalIf(!requested->isArray(),
                "\"workloads\" must be \"all\" or an array of names");
        for (const JsonValue &entry : requested->items()) {
            fatalIf(!entry.isString(), "workload names must be strings");
            names.push_back(entry.str());
        }
        fatalIf(names.empty(), "\"workloads\" must not be empty");
    }
    std::vector<Workload> workloads;
    workloads.reserve(names.size());
    for (const std::string &name : names) {
        const ServeRegistry::WorkloadFactory *factory =
            registry_.workload(name);
        fatalIf(factory == nullptr, "unknown workload \"", name,
                "\" (known: ", joinNames(registry_.workloadNames()), ")");
        workloads.push_back((*factory)(sizes));
    }

    std::vector<PeConfig> configs;
    const JsonValue *configParam = params.find("configs");
    if (configParam == nullptr) {
        configs = figure5Configs();
    } else if (configParam->isString()) {
        configs = parseConfigList(configParam->str());
    } else {
        fatalIf(!configParam->isArray(),
                "\"configs\" must be a string or an array of names");
        for (const JsonValue &entry : configParam->items()) {
            fatalIf(!entry.isString(), "config names must be strings");
            const auto config = parseConfigName(entry.str());
            fatalIf(!config.has_value(), "unknown uarch \"", entry.str(),
                    "\"");
            configs.push_back(*config);
        }
        fatalIf(configs.empty(), "\"configs\" must not be empty");
    }

    CycleRunOptions options;
    options.maxCycles = paramU64(params, "max_cycles", options.maxCycles);
    options.stop = job.stop.token();
    options.cache = paramBool(params, "cache", true) ? &cache_ : nullptr;

    // Serial within this worker: the request already owns one worker
    // slot; fanning out would let one sweep starve other clients.
    const CycleMatrix matrix = runCycleMatrix(workloads, configs, options, 1);
    std::size_t cancelledCells = 0;
    JsonValue cells = JsonValue::array();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        JsonValue row = JsonValue::array();
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const WorkloadRun &run = matrix.run(c, w);
            if (run.status == RunStatus::Cancelled)
                cancelledCells++;
            JsonValue cell = JsonValue::object();
            cell["status"] = runStatusName(run.status);
            cell["cycles"] = run.totalCycles;
            cell["cpi"] = run.worker.cpi();
            cell["check"] = run.checkError.empty()
                                ? JsonValue("ok")
                                : JsonValue(run.checkError);
            row.push(std::move(cell));
        }
        cells.push(std::move(row));
    }

    if (cancelledCells > 0) {
        JsonValue detail = JsonValue::object();
        detail["cells"] = matrix.runs.size();
        detail["cancelled_cells"] = cancelledCells;
        const bool gone =
            job.disconnected.load(std::memory_order_relaxed);
        job.outcome = gone ? Job::Outcome::CancelledDisconnect
                           : Job::Outcome::CancelledDeadline;
        return makeError(job.request.id, ServeError::Deadline,
                         "sweep cancelled before completion", 0,
                         std::move(detail));
    }

    JsonValue result = JsonValue::object();
    result["sizes"] = sizesName;
    result["workloads"] = stringArray(names);
    JsonValue configNames = JsonValue::array();
    for (const PeConfig &config : configs)
        configNames.push(config.name());
    result["configs"] = std::move(configNames);
    result["wall_ms"] = matrix.wallMs;
    result["cells"] = std::move(cells);
    return makeResult(job.request.id, std::move(result));
}

// ---- stats -----------------------------------------------------------

std::uint64_t
Server::retryAfterHintMs() const
{
    // Rough time for one queue slot to free up: recent per-request
    // latency times queue occupancy, spread over the worker pool.
    const double perRequest = latencyEmaMs_ > 0.0 ? latencyEmaMs_ : 25.0;
    const double workers = workerCount_ > 0 ? workerCount_ : 1;
    const double hint =
        perRequest * (static_cast<double>(queue_.size()) + 1.0) / workers;
    return static_cast<std::uint64_t>(std::clamp(hint, 5.0, 2000.0));
}

void
Server::recordLatency(double ms)
{
    latencyEmaMs_ =
        latencyEmaMs_ == 0.0 ? ms : 0.9 * latencyEmaMs_ + 0.1 * ms;
    if (latenciesMs_.size() < kLatencyReservoir) {
        latenciesMs_.push_back(ms);
    } else {
        latenciesMs_[latencyNext_] = ms;
        latencyNext_ = (latencyNext_ + 1) % kLatencyReservoir;
    }
}

Server::Counters
Server::counters() const
{
    std::lock_guard lk(mu_);
    Counters out = counters_;
    out.active = active_.size();
    out.queueDepth = queue_.size();
    return out;
}

JsonValue
Server::serverStatsJsonLocked() const
{
    const double uptimeMs = elapsedMs(startTime_, Clock::now());
    const Counters &c = counters_;

    JsonValue s = JsonValue::object();
    s["uptime_ms"] = uptimeMs;
    s["received"] = c.received;
    s["admitted"] = c.admitted;
    s["rejected"] = c.rejected;
    s["shed"] = c.shedQueueFull + c.shedQuota + c.shedDraining;
    s["shed_queue_full"] = c.shedQueueFull;
    s["shed_quota"] = c.shedQuota;
    s["shed_draining"] = c.shedDraining;
    s["completed"] = c.completed;
    s["cancelled"] = c.cancelledDeadline + c.cancelledDisconnect;
    s["cancelled_deadline"] = c.cancelledDeadline;
    s["cancelled_disconnect"] = c.cancelledDisconnect;
    s["failed"] = c.failed;
    s["hangs"] = c.hangs;
    s["frame_timeouts"] = c.frameTimeouts;
    s["frame_errors"] = c.frameErrors;
    s["write_failures"] = c.writeFailures;
    s["active"] = active_.size();
    s["queue_depth"] = queue_.size();
    s["queue_capacity"] = opt_.queueCapacity;
    s["queue_high_water"] = c.queueHighWater;
    s["workers"] = workerCount_;
    s["connections"] = c.liveConnections;
    s["connections_total"] = c.connectionsTotal;
    s["req_per_sec"] = uptimeMs > 0.0
                           ? static_cast<double>(c.completed) /
                                 (uptimeMs / 1000.0)
                           : 0.0;

    JsonValue latency = JsonValue::object();
    latency["count"] = latenciesMs_.size();
    double p50 = 0.0, p99 = 0.0, maxMs = 0.0;
    if (!latenciesMs_.empty()) {
        std::vector<double> sorted = latenciesMs_;
        const auto nth = [&sorted](double q) {
            const std::size_t idx = std::min(
                sorted.size() - 1,
                static_cast<std::size_t>(q * (sorted.size() - 1) + 0.5));
            std::nth_element(sorted.begin(), sorted.begin() + idx,
                             sorted.end());
            return sorted[idx];
        };
        p50 = nth(0.50);
        p99 = nth(0.99);
        maxMs = *std::max_element(sorted.begin(), sorted.end());
    }
    latency["p50"] = p50;
    latency["p99"] = p99;
    latency["max"] = maxMs;
    s["latency_ms"] = std::move(latency);
    return s;
}

JsonValue
Server::serverStatsJson() const
{
    std::lock_guard lk(mu_);
    return serverStatsJsonLocked();
}

JsonValue
Server::methodsResult() const
{
    JsonValue result = JsonValue::object();
    result["protocol"] = kServeProtocol;
    result["methods"] = stringArray({"assemble", "simulate", "sweep",
                                     "stats", "methods", "drain"});
    result["workloads"] = stringArray(registry_.workloadNames());
    result["analyses"] = stringArray(registry_.analysisNames());
    JsonValue uarchs = JsonValue::array();
    for (const PeConfig &config : allConfigs())
        uarchs.push(config.name());
    result["uarchs"] = std::move(uarchs);
    return result;
}

JsonValue
Server::metricsDocument() const
{
    JsonValue doc = JsonValue::object();
    doc["schema"] = "tia-metrics/v1";
    doc["tool"] = "tia-serve";
    doc["runs"] = JsonValue::array();
    doc["server"] = serverStatsJson();
    doc["cache"] = cache_.statsJson();
    return doc;
}

} // namespace tia
