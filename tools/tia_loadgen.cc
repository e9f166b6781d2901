/**
 * @file
 * tia-loadgen: load generator and drain-contract checker for tia-serve.
 *
 *   tia-loadgen --socket PATH | --port N | --spawn TIA_SERVE_BIN
 *               [options]
 *
 * Runs `--clients` concurrent connections, each issuing `--requests`
 * simulate calls, honoring `retry_after` rejections with jittered
 * exponential backoff (ServeClient::callWithRetry). Every request must
 * end in a result or a typed error; in normal mode any transport-level
 * loss is a failure (exit 1).
 *
 * With --spawn the tool fork/execs a private daemon on a Unix socket,
 * waits for it to accept, runs the load, fetches `stats`, SIGTERMs the
 * daemon and requires exit status 0 — the full deployment lifecycle in
 * one command. Adding --sigterm sends the SIGTERM *mid-load* instead,
 * turning the run into a drain-under-fire check: responses already
 * admitted must still arrive (or arrive as typed `shutting_down` /
 * `deadline` errors); only then may connections die.
 *
 * Options:
 *   --clients N         concurrent connections (default 4; 0 =
 *                       hardware concurrency)
 *   --requests N        requests per client (default 25)
 *   --workloads A,B     workload names cycled per request
 *                       (default gcd,udiv,mean)
 *   --uarch NAME        microarchitecture (default TDX)
 *   --sizes small|full  workload sizes (default small)
 *   --deadline-ms N     per-request deadline
 *   --max-cycles N      per-request cycle budget override
 *   --no-cache          ask the server not to use its result cache
 *   --sigterm           (with --spawn) SIGTERM the daemon mid-load
 *   --sigterm-after-ms N  delay before the mid-load SIGTERM (default
 *                       200)
 *   --bench FILE        write a JSON summary (client-side latency
 *                       percentiles, outcome tallies, server stats)
 *   --seed N            jitter/backoff PRNG seed (default 1)
 *   Pass-through to a spawned daemon: --workers, --queue, --quota-rps,
 *   --quota-burst, --cache, --metrics (the daemon's exit document,
 *   checkable with tia-metrics-check).
 *
 * Exit codes: 0 contract held, 1 violation or daemon failure, 2 usage.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "serve/client.hh"

namespace {

using namespace tia;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string unixPath;
    int tcpPort = -1;
    std::string spawnBin;
    unsigned clients = 4;
    unsigned requests = 25;
    std::vector<std::string> workloads = {"gcd", "udiv", "mean"};
    std::string uarch = "TDX";
    std::string sizes = "small";
    std::uint64_t deadlineMs = 0;
    std::uint64_t maxCycles = 0;
    bool useCache = true;
    bool sigterm = false;
    std::uint64_t sigtermAfterMs = 200;
    std::string benchPath;
    std::uint64_t seed = 1;
    // Spawned-daemon pass-through.
    unsigned workers = 0;
    std::size_t queueCapacity = 0;
    double quotaRps = 0.0;
    double quotaBurst = 0.0;
    std::string cachePath;
    std::string metricsPath;
};

/** Outcome tallies across all client threads. */
struct Tally
{
    std::mutex mu;
    std::uint64_t ok = 0;
    std::map<std::string, std::uint64_t> typedErrors;
    std::uint64_t transportErrors = 0;
    std::uint64_t retries = 0;
    std::vector<double> latenciesMs;
};

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::string current;
    for (char c : text) {
        if (c == ',') {
            fatalIf(current.empty(), "empty list entry in \"", text, "\"");
            out.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    fatalIf(current.empty(), "empty list entry in \"", text, "\"");
    out.push_back(current);
    return out;
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(q * (sorted.size() - 1) + 0.5));
    return sorted[idx];
}

std::optional<ServeClient>
connect(const Options &opt, std::string *error)
{
    if (!opt.unixPath.empty())
        return ServeClient::connectUnix(opt.unixPath, error);
    return ServeClient::connectTcp("127.0.0.1", opt.tcpPort, error);
}

/** fork/exec a private daemon; returns its pid (fatal on failure). */
pid_t
spawnDaemon(const Options &opt)
{
    std::vector<std::string> args = {opt.spawnBin, "--socket",
                                     opt.unixPath};
    const auto push = [&args](const std::string &flag,
                              const std::string &value) {
        args.push_back(flag);
        args.push_back(value);
    };
    if (opt.workers != 0)
        push("--workers", std::to_string(opt.workers));
    if (opt.queueCapacity != 0)
        push("--queue", std::to_string(opt.queueCapacity));
    if (opt.quotaRps > 0.0)
        push("--quota-rps", std::to_string(opt.quotaRps));
    if (opt.quotaBurst > 0.0)
        push("--quota-burst", std::to_string(opt.quotaBurst));
    if (!opt.cachePath.empty())
        push("--cache", opt.cachePath);
    if (!opt.metricsPath.empty())
        push("--metrics", opt.metricsPath);

    const pid_t pid = ::fork();
    fatalIf(pid < 0, "fork failed");
    if (pid == 0) {
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        std::perror("tia-loadgen: execv");
        ::_exit(127);
    }
    // Readiness: the daemon is up once its socket accepts.
    for (int attempt = 0; attempt < 500; ++attempt) {
        std::string error;
        if (auto probe = ServeClient::connectUnix(opt.unixPath, &error))
            return pid;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            fatal("spawned daemon exited during startup (status ",
                  status, ")");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::kill(pid, SIGKILL);
    fatal("spawned daemon never became ready on ", opt.unixPath);
}

void
clientThread(const Options &opt, unsigned index, Tally &tally,
             std::atomic<bool> &serverGone)
{
    std::string error;
    auto client = connect(opt, &error);
    if (!client.has_value()) {
        std::lock_guard lk(tally.mu);
        tally.transportErrors++;
        return;
    }
    client->setClient("load" + std::to_string(index));
    client->setDeadlineMs(opt.deadlineMs);
    BackoffPolicy policy;
    policy.seed = opt.seed * 0x9e3779b97f4a7c15ull + index + 1;

    for (unsigned req = 0; req < opt.requests; ++req) {
        JsonValue params = JsonValue::object();
        params["workload"] =
            opt.workloads[(index + req) % opt.workloads.size()];
        params["uarch"] = opt.uarch;
        params["sizes"] = opt.sizes;
        if (opt.maxCycles != 0)
            params["max_cycles"] = opt.maxCycles;
        if (!opt.useCache)
            params["cache"] = JsonValue(false);

        unsigned retries = 0;
        const auto start = Clock::now();
        auto response = client->callWithRetry("simulate",
                                              std::move(params), policy,
                                              &error, &retries);
        const double ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - start)
                              .count();
        std::lock_guard lk(tally.mu);
        tally.retries += retries;
        if (!response.has_value()) {
            tally.transportErrors++;
            if (serverGone.load())
                return; // connection died during a requested drain
            // Transport hiccup outside shutdown: reconnect and go on;
            // the final tally decides whether the contract held.
            client = connect(opt, &error);
            if (!client.has_value())
                return;
            client->setClient("load" + std::to_string(index));
            client->setDeadlineMs(opt.deadlineMs);
            continue;
        }
        if (response->ok) {
            tally.ok++;
            tally.latenciesMs.push_back(ms);
        } else {
            tally.typedErrors[serveErrorCode(response->error)]++;
            if (response->error == ServeError::ShuttingDown)
                return; // drain reached us; stop sending
        }
    }
}

int
run(const Options &opt)
{
    pid_t daemon = -1;
    if (!opt.spawnBin.empty())
        daemon = spawnDaemon(opt);

    Tally tally;
    std::atomic<bool> serverGone{false};
    const auto loadStart = Clock::now();

    std::vector<std::thread> threads;
    threads.reserve(opt.clients);
    for (unsigned i = 0; i < opt.clients; ++i)
        threads.emplace_back(
            [&opt, i, &tally, &serverGone] {
                clientThread(opt, i, tally, serverGone);
            });

    if (opt.sigterm && daemon > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opt.sigtermAfterMs));
        std::fprintf(stderr, "tia-loadgen: SIGTERM mid-load\n");
        serverGone.store(true);
        ::kill(daemon, SIGTERM);
    }
    for (std::thread &t : threads)
        t.join();
    const double wallMs = std::chrono::duration<double, std::milli>(
                              Clock::now() - loadStart)
                              .count();

    // Post-load stats (the server is still up unless we SIGTERMed it).
    JsonValue serverStats;
    if (!opt.sigterm) {
        std::string error;
        if (auto client = connect(opt, &error)) {
            if (auto response = client->call("stats", JsonValue(), &error);
                response.has_value() && response->ok)
                serverStats = response->result;
        }
    }

    int daemonExit = -1;
    if (daemon > 0) {
        if (!opt.sigterm) {
            serverGone.store(true);
            ::kill(daemon, SIGTERM);
        }
        // A draining daemon must exit 0 promptly once in-flight work
        // finishes; give it ample budget, then treat a hang as failure.
        int status = 0;
        for (int attempt = 0; attempt < 3000; ++attempt) {
            const pid_t got = ::waitpid(daemon, &status, WNOHANG);
            if (got == daemon) {
                daemonExit = WIFEXITED(status) ? WEXITSTATUS(status)
                                               : 128 + WTERMSIG(status);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (daemonExit < 0) {
            std::fprintf(stderr,
                         "tia-loadgen: daemon did not exit; SIGKILL\n");
            ::kill(daemon, SIGKILL);
            ::waitpid(daemon, &status, 0);
        }
    }

    // Report.
    std::sort(tally.latenciesMs.begin(), tally.latenciesMs.end());
    const double p50 = percentile(tally.latenciesMs, 0.50);
    const double p99 = percentile(tally.latenciesMs, 0.99);
    const double maxMs =
        tally.latenciesMs.empty() ? 0.0 : tally.latenciesMs.back();
    std::uint64_t typedTotal = 0;
    for (const auto &[code, count] : tally.typedErrors)
        typedTotal += count;
    const double rps =
        wallMs > 0.0 ? static_cast<double>(tally.ok) / (wallMs / 1000.0)
                     : 0.0;
    std::fprintf(stderr,
                 "tia-loadgen: %llu ok, %llu typed errors, %llu "
                 "transport errors, %llu retries in %.1f ms "
                 "(%.0f ok/s; p50 %.3f ms, p99 %.3f ms)\n",
                 static_cast<unsigned long long>(tally.ok),
                 static_cast<unsigned long long>(typedTotal),
                 static_cast<unsigned long long>(tally.transportErrors),
                 static_cast<unsigned long long>(tally.retries), wallMs,
                 rps, p50, p99);
    for (const auto &[code, count] : tally.typedErrors)
        std::fprintf(stderr, "tia-loadgen:   %s: %llu\n", code.c_str(),
                     static_cast<unsigned long long>(count));

    if (!opt.benchPath.empty()) {
        JsonValue doc = JsonValue::object();
        doc["tool"] = "tia-loadgen";
        JsonValue config = JsonValue::object();
        config["clients"] = opt.clients;
        config["requests_per_client"] = opt.requests;
        JsonValue names = JsonValue::array();
        for (const std::string &name : opt.workloads)
            names.push(name);
        config["workloads"] = std::move(names);
        config["uarch"] = opt.uarch;
        config["sizes"] = opt.sizes;
        config["deadline_ms"] = opt.deadlineMs;
        config["cache"] = JsonValue(opt.useCache);
        config["sigterm_mid_load"] = JsonValue(opt.sigterm);
        doc["config"] = std::move(config);
        JsonValue results = JsonValue::object();
        results["ok"] = tally.ok;
        JsonValue typed = JsonValue::object();
        for (const auto &[code, count] : tally.typedErrors)
            typed[code] = count;
        results["typed_errors"] = std::move(typed);
        results["transport_errors"] = tally.transportErrors;
        results["retries"] = tally.retries;
        results["wall_ms"] = wallMs;
        results["ok_per_sec"] = rps;
        JsonValue latency = JsonValue::object();
        latency["count"] = tally.latenciesMs.size();
        latency["p50"] = p50;
        latency["p99"] = p99;
        latency["max"] = maxMs;
        results["latency_ms"] = std::move(latency);
        doc["results"] = std::move(results);
        doc["server"] = std::move(serverStats);
        if (daemon > 0)
            doc["daemon_exit"] = daemonExit;
        std::ofstream out(opt.benchPath, std::ios::trunc);
        fatalIf(!out, "cannot write ", opt.benchPath);
        out << doc.dump() << "\n";
        std::fprintf(stderr, "tia-loadgen: wrote %s\n",
                     opt.benchPath.c_str());
    }

    // Contract verdict.
    if (daemon > 0 && daemonExit != 0) {
        std::fprintf(stderr,
                     "tia-loadgen: FAIL: daemon exit status %d\n",
                     daemonExit);
        return 1;
    }
    if (!opt.sigterm && tally.transportErrors > 0) {
        std::fprintf(stderr,
                     "tia-loadgen: FAIL: %llu transport errors without "
                     "a shutdown in progress\n",
                     static_cast<unsigned long long>(
                         tally.transportErrors));
        return 1;
    }
    // Typed errors are responses: a run where every request was
    // answered `deadline` honored the contract. Only silence fails.
    if (tally.ok + typedTotal == 0 && !opt.sigterm) {
        std::fprintf(stderr, "tia-loadgen: FAIL: no responses at all\n");
        return 1;
    }
    std::fprintf(stderr,
                 "tia-loadgen: contract held: %llu ok, %llu typed "
                 "errors, %llu transport errors, %llu retries\n",
                 static_cast<unsigned long long>(tally.ok),
                 static_cast<unsigned long long>(typedTotal),
                 static_cast<unsigned long long>(tally.transportErrors),
                 static_cast<unsigned long long>(tally.retries));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveTarget = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                fatalIf(i + 1 >= argc, arg, " needs an argument");
                return argv[++i];
            };
            if (arg == "--socket") {
                opt.unixPath = next();
                haveTarget = true;
            } else if (arg == "--port") {
                opt.tcpPort = static_cast<int>(std::stoul(next()));
                haveTarget = true;
            } else if (arg == "--spawn") {
                opt.spawnBin = next();
                haveTarget = true;
            } else if (arg == "--clients") {
                opt.clients = ThreadPool::parseJobs(next(), "--clients");
            } else if (arg == "--requests") {
                opt.requests = static_cast<unsigned>(std::stoul(next()));
            } else if (arg == "--workloads") {
                opt.workloads = splitCsv(next());
            } else if (arg == "--uarch") {
                opt.uarch = next();
            } else if (arg == "--sizes") {
                opt.sizes = next();
            } else if (arg == "--deadline-ms") {
                opt.deadlineMs = std::stoull(next());
            } else if (arg == "--max-cycles") {
                opt.maxCycles = std::stoull(next());
            } else if (arg == "--no-cache") {
                opt.useCache = false;
            } else if (arg == "--sigterm") {
                opt.sigterm = true;
            } else if (arg == "--sigterm-after-ms") {
                opt.sigtermAfterMs = std::stoull(next());
            } else if (arg == "--bench") {
                opt.benchPath = next();
            } else if (arg == "--seed") {
                opt.seed = std::stoull(next());
            } else if (arg == "--workers") {
                opt.workers = ThreadPool::parseJobs(next(), "--workers");
            } else if (arg == "--queue") {
                opt.queueCapacity = std::stoul(next());
            } else if (arg == "--quota-rps") {
                opt.quotaRps = std::stod(next());
            } else if (arg == "--quota-burst") {
                opt.quotaBurst = std::stod(next());
            } else if (arg == "--cache") {
                opt.cachePath = next();
            } else if (arg == "--metrics") {
                opt.metricsPath = next();
            } else {
                std::fprintf(stderr, "unknown option %s\n", arg.c_str());
                return 2;
            }
        }
        fatalIf(!haveTarget,
                "need --socket PATH, --port N or --spawn TIA_SERVE_BIN");
        if (!opt.spawnBin.empty() && opt.unixPath.empty()) {
            // Short relative path: sockaddr_un caps paths at ~107
            // bytes, and ctest working directories can be deep.
            opt.unixPath =
                "loadgen." + std::to_string(::getpid()) + ".sock";
        }
        ::signal(SIGPIPE, SIG_IGN);
        return run(opt);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tia-loadgen: %s\n", error.what());
        return 1;
    }
}
