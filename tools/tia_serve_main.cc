/**
 * @file
 * tia-serve: the fault-tolerant simulation service daemon.
 *
 *   tia-serve [--socket PATH] [--port N] [options]
 *
 * Serves the tia-serve/v1 protocol (docs/serve.md): assemble /
 * simulate / sweep / stats / methods / drain over length-prefixed JSON
 * frames, with per-client token-bucket quotas, a bounded job queue
 * with typed backpressure, per-request deadlines enforced as
 * cooperative cancellation inside the simulator, and a crash-safe
 * persistent result cache shared with the tia-sweep / tia-sim CLIs.
 *
 * Options:
 *   --socket PATH        listen on a Unix socket at PATH
 *   --port N             listen on 127.0.0.1:N (0 = ephemeral port)
 *   --port-file FILE     write the bound TCP port to FILE (for
 *                        scripts using --port 0)
 *   --workers N          worker threads (default: hardware concurrency)
 *   --queue N            job-queue capacity (default 64); overflow is
 *                        shed with a typed retry_after error
 *   --quota-rps X        per-client sustained requests/second
 *                        (default: unlimited)
 *   --quota-burst X      per-client burst size (default 8)
 *   --deadline-ms N      default per-request deadline when the client
 *                        sends none (default: none)
 *   --max-deadline-ms N  hard cap on client deadlines
 *   --frame-timeout-ms N slow-loris cutoff once a frame has started
 *                        (default 5000)
 *   --idle-timeout-ms N  close idle connections (default 60000)
 *   --max-frame-bytes N  reject larger request frames (default 4 MiB)
 *   --cache FILE         persistent TIASIMC1 warm tier, loaded at
 *                        start and flushed (crash-safely) at drain
 *   --cache-verify       re-simulate every cache hit and compare
 *   --metrics FILE       write the final tia-metrics/v1 document
 *                        (server + cache blocks) on exit
 *
 * SIGTERM / SIGINT request a graceful drain: stop admitting, finish
 * in-flight work, answer everything, flush the cache, exit 0. The
 * `drain` RPC does the same remotely.
 *
 * Exit codes: 0 drained cleanly, 1 fatal error, 2 usage.
 */

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/logging.hh"
#include "core/parse.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "serve/server.hh"

namespace {

using namespace tia;

int g_signalPipe[2] = {-1, -1};

extern "C" void
onSignal(int)
{
    // Self-pipe: the only async-signal-safe thing to do is poke the fd
    // the main loop is polling.
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(g_signalPipe[1], &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    ServerOptions opt;
    std::string metricsPath;
    std::string portFile;
    bool haveListener = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                fatalIf(i + 1 >= argc, arg, " needs an argument");
                return argv[++i];
            };
            if (arg == "--socket") {
                opt.unixPath = next();
                haveListener = true;
            } else if (arg == "--port") {
                opt.tcpPort =
                    static_cast<int>(parseCount64("--port", next(), 65535));
                haveListener = true;
            } else if (arg == "--port-file") {
                portFile = next();
            } else if (arg == "--workers") {
                opt.workers = ThreadPool::parseJobs(next(), "--workers");
            } else if (arg == "--queue") {
                opt.queueCapacity = parseCount64("--queue", next());
            } else if (arg == "--quota-rps") {
                opt.quotaRate = parseRate("--quota-rps", next());
            } else if (arg == "--quota-burst") {
                opt.quotaBurst = parseRate("--quota-burst", next());
            } else if (arg == "--deadline-ms") {
                opt.defaultDeadlineMs = parseCount64("--deadline-ms", next());
            } else if (arg == "--max-deadline-ms") {
                opt.maxDeadlineMs = parseCount64("--max-deadline-ms", next());
            } else if (arg == "--frame-timeout-ms") {
                // At most INT_MAX / 2, so the server's int millisecond
                // clocks can step past either timeout without overflow.
                opt.frameTimeoutMs = static_cast<int>(parseCount64(
                    "--frame-timeout-ms", next(), INT_MAX / 2));
            } else if (arg == "--idle-timeout-ms") {
                opt.idleTimeoutMs = static_cast<int>(parseCount64(
                    "--idle-timeout-ms", next(), INT_MAX / 2));
            } else if (arg == "--max-frame-bytes") {
                opt.maxFrameBytes = parseCount64("--max-frame-bytes", next());
            } else if (arg == "--cache") {
                opt.cachePath = next();
            } else if (arg == "--cache-verify") {
                opt.cacheVerify = true;
            } else if (arg == "--metrics") {
                metricsPath = next();
            } else {
                std::fprintf(stderr, "unknown option %s\n", arg.c_str());
                return 2;
            }
        }
        if (!haveListener) {
            std::fprintf(stderr,
                         "tia-serve: need --socket PATH and/or --port N "
                         "(see tools/tia_serve_main.cc)\n");
            return 2;
        }
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tia-serve: %s\n", error.what());
        return 2;
    }

    try {
        if (::pipe2(g_signalPipe, O_CLOEXEC | O_NONBLOCK) != 0) {
            std::perror("tia-serve: pipe2");
            return 1;
        }
        struct sigaction action = {};
        action.sa_handler = onSignal;
        ::sigaction(SIGTERM, &action, nullptr);
        ::sigaction(SIGINT, &action, nullptr);
        ::signal(SIGPIPE, SIG_IGN);

        const std::string unixPath = opt.unixPath;
        Server server(std::move(opt));
        std::string error;
        if (!server.start(&error)) {
            std::fprintf(stderr, "tia-serve: %s\n", error.c_str());
            return 1;
        }
        if (!portFile.empty() && server.tcpPort() >= 0) {
            std::ofstream out(portFile, std::ios::trunc);
            out << server.tcpPort() << "\n";
        }
        std::string listening = "tia-serve: listening on";
        if (!unixPath.empty())
            listening += " " + unixPath;
        if (server.tcpPort() >= 0)
            listening += " 127.0.0.1:" + std::to_string(server.tcpPort());
        std::fprintf(stderr, "%s\n", listening.c_str());

        // Wait for a shutdown signal or a remote `drain` request.
        for (;;) {
            struct pollfd pfd = {};
            pfd.fd = g_signalPipe[0];
            pfd.events = POLLIN;
            const int rc = ::poll(&pfd, 1, 200);
            if (rc > 0 && (pfd.revents & POLLIN) != 0) {
                char sink[16];
                while (::read(g_signalPipe[0], sink, sizeof(sink)) > 0) {
                }
                std::fprintf(stderr,
                             "tia-serve: signal received; draining\n");
                server.requestDrain();
                break;
            }
            if (server.draining()) {
                std::fprintf(stderr,
                             "tia-serve: drain requested; draining\n");
                break;
            }
        }
        server.waitDrained();

        if (!server.flushCache(&error)) {
            std::fprintf(stderr, "tia-serve: cache flush failed: %s\n",
                         error.c_str());
            return 1;
        }
        if (!metricsPath.empty() &&
            !writeFile(metricsPath,
                       server.metricsDocument().dump() + "\n")) {
            std::fprintf(stderr, "tia-serve: cannot write %s\n",
                         metricsPath.c_str());
            return 1;
        }
        const Server::Counters c = server.counters();
        std::fprintf(stderr,
                     "tia-serve: drained: %llu received, %llu completed, "
                     "%llu cancelled, %llu shed, %llu failed\n",
                     static_cast<unsigned long long>(c.received),
                     static_cast<unsigned long long>(c.completed),
                     static_cast<unsigned long long>(
                         c.cancelledDeadline + c.cancelledDisconnect),
                     static_cast<unsigned long long>(
                         c.shedQueueFull + c.shedQuota + c.shedDraining),
                     static_cast<unsigned long long>(c.failed));
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tia-serve: %s\n", error.what());
        return 1;
    }
}
