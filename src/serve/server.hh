/**
 * @file
 * The tia-serve daemon core: a fault-tolerant multi-client simulation
 * service over Unix / TCP sockets.
 *
 * Architecture (docs/serve.md):
 *
 *   accept thread ── one connection thread per client ── worker pool
 *
 * Connection threads own all socket I/O: they read length-prefixed
 * JSON frames (serve/frame.hh, with slow-loris cutoffs), run
 * *admission* — per-client token-bucket quotas, then a bounded job
 * queue whose overflow is a typed `retry_after` rejection, never a
 * blocked reader — and wait for their job's completion, watching the
 * socket so a client that disconnects mid-request cancels its job and
 * frees the worker. Workers execute jobs with the request deadline
 * armed as a cooperative StopSource threaded through runCycle /
 * CycleFabric, so a deadline-expired or watchdog-flagged simulation
 * returns a typed error instead of wedging the pool. Identical
 * simulate requests coalesce onto the shared single-flight SimCache:
 * concurrent duplicates block on one computation, repeats are warm
 * hits served in microseconds.
 *
 * The robustness contract, which the torture tests enforce:
 *
 *  - every admitted request produces exactly one response (result or
 *    typed error); nothing is ever silently dropped;
 *  - requestDrain() (SIGTERM in the daemon) stops admission, finishes
 *    in-flight work, delivers every pending response, then lets
 *    waitDrained() return so the cache can be flushed and the process
 *    exit 0;
 *  - a hostile or dead client can cost at most its own connection —
 *    never a worker, never another client's request.
 */

#ifndef TIA_SERVE_SERVER_HH
#define TIA_SERVE_SERVER_HH

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/simcache.hh"
#include "obs/json.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "serve/token_bucket.hh"

namespace tia {

struct ServerOptions
{
    /** Unix socket path ("" disables the Unix listener). */
    std::string unixPath;
    /** TCP port on 127.0.0.1 (-1 disables; 0 binds an ephemeral port). */
    int tcpPort = -1;
    /** Worker threads (0 = ThreadPool::defaultConcurrency()). */
    unsigned workers = 0;
    /** Bounded job-queue capacity; overflow sheds with retry_after. */
    std::size_t queueCapacity = 64;
    /** Per-client sustained requests/second (0 = unlimited). */
    double quotaRate = 0.0;
    /** Per-client burst size (tokens). */
    double quotaBurst = 8.0;
    /** Default per-request deadline when the client sends none (0 = none). */
    std::uint64_t defaultDeadlineMs = 0;
    /** Hard cap on client-supplied deadlines (0 = uncapped). */
    std::uint64_t maxDeadlineMs = 0;
    /** Reject frames larger than this. */
    std::size_t maxFrameBytes = 4u << 20;
    /** Close a connection idle at a frame boundary for this long. */
    int idleTimeoutMs = 60'000;
    /** Slow-loris cutoff: max stall inside a started frame. */
    int frameTimeoutMs = 5'000;
    /** Persistent TIASIMC1 warm tier ("" = in-memory only). */
    std::string cachePath;
    /** Re-simulate every cache hit and compare (--cache-verify). */
    bool cacheVerify = false;
};

class Server
{
  public:
    explicit Server(ServerOptions options);

    /** Hard-stops if still running (cancels in-flight work). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind listeners, load the warm cache tier, start threads.
     * Returns false with @p error on bind/listen failure.
     */
    bool start(std::string *error);

    /** Actual TCP port (useful with tcpPort = 0); -1 when disabled. */
    int tcpPort() const { return boundTcpPort_; }

    /**
     * Graceful shutdown: stop accepting connections and admitting
     * requests, let in-flight work finish and every pending response
     * flush. Idempotent, non-blocking; pair with waitDrained().
     */
    void requestDrain();

    /** Block until a requested drain has fully completed. */
    void waitDrained();

    /**
     * Immediate shutdown: drain admission, cancel in-flight jobs via
     * their stop tokens, fail queued jobs with shutting_down, join
     * everything. Used by the destructor and tests.
     */
    void hardStop();

    /** Persist the cache tier (crash-safe tmp+fsync+rename+flock). */
    bool flushCache(std::string *error);

    /** True once a drain has been requested (SIGTERM or `drain` RPC). */
    bool draining() const;

    SimCache &cache() { return cache_; }

    /** Monotonic counters; the source of the "server" metrics block. */
    struct Counters
    {
        std::uint64_t received = 0;
        std::uint64_t admitted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t shedQueueFull = 0;
        std::uint64_t shedQuota = 0;
        std::uint64_t shedDraining = 0;
        std::uint64_t completed = 0;
        std::uint64_t cancelledDeadline = 0;
        std::uint64_t cancelledDisconnect = 0;
        std::uint64_t failed = 0;
        std::uint64_t hangs = 0;
        std::uint64_t frameTimeouts = 0;
        std::uint64_t frameErrors = 0;
        std::uint64_t writeFailures = 0;
        std::uint64_t connectionsTotal = 0;
        std::uint64_t active = 0;
        std::uint64_t queueDepth = 0;
        std::uint64_t queueHighWater = 0;
        std::uint64_t liveConnections = 0;
    };

    Counters counters() const;

    /** The tia-metrics/v1 "server" block (validated by tia-metrics-check). */
    JsonValue serverStatsJson() const;

    /** Full tia-metrics/v1 document: server block + cache block. */
    JsonValue metricsDocument() const;

  private:
    struct Job;
    using JobPtr = std::shared_ptr<Job>;

    void acceptLoop();
    void connectionLoop(int fd, std::uint64_t connId);
    void workerLoop();
    /** Handle one complete frame; false closes the connection. */
    bool handleFrame(int fd, const std::string &payload,
                     std::uint64_t connId);
    bool waitAndRespond(int fd, const JobPtr &job);
    void executeJob(const JobPtr &job);
    JsonValue dispatch(Job &job);
    JsonValue handleAssemble(const JsonValue &params, Job &job);
    JsonValue handleSimulate(const JsonValue &params, Job &job);
    JsonValue handleSweep(const JsonValue &params, Job &job);
    JsonValue methodsResult() const;
    JsonValue serverStatsJsonLocked() const; ///< callers hold mu_
    std::uint64_t retryAfterHintMs() const;  ///< callers hold mu_
    void recordLatency(double ms);           ///< callers hold mu_
    void finishJob(const JobPtr &job);
    bool sendResponse(int fd, const JsonValue &response);
    void reapConnections(); ///< callers hold mu_
    void joinAll();
    void closeListeners();
    void wake();

    ServerOptions opt_;
    const ServeRegistry registry_ = ServeRegistry::builtin();
    SimCache cache_;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    int boundTcpPort_ = -1;
    int wakePipe_[2] = {-1, -1};
    bool boundUnix_ = false;
    bool started_ = false;
    bool joined_ = false;
    unsigned workerCount_ = 0;
    std::chrono::steady_clock::time_point startTime_;

    std::thread acceptThread_;
    std::vector<std::thread> workers_;

    mutable std::mutex mu_;
    std::condition_variable queueCv_; ///< workers: work or shutdown
    std::condition_variable stateCv_; ///< drain watchers
    std::deque<JobPtr> queue_;
    std::set<Job *> active_;
    std::map<std::string, TokenBucket> buckets_;
    Counters counters_;
    bool draining_ = false;
    bool stopping_ = false;
    double latencyEmaMs_ = 0.0;
    std::vector<double> latenciesMs_; ///< bounded reservoir
    std::size_t latencyNext_ = 0;     ///< ring index once full

    std::list<std::thread> connections_;
    std::vector<std::list<std::thread>::iterator> finished_;
};

} // namespace tia

#endif // TIA_SERVE_SERVER_HH
