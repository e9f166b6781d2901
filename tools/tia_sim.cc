/**
 * @file
 * tia-sim: command-line simulator, the C++ counterpart of the paper
 * toolchain's functional ISA simulator plus the cycle-accurate
 * microarchitecture models.
 *
 *   tia-sim prog.s [options]
 *
 * Options:
 *   -p FILE            parameter file (Table 1 keys)
 *   -u NAMES           microarchitecture ("functional" by default;
 *                      e.g. "TDX", "T|DX +P+Q", "T|D|X1|X2 +P+N+Q").
 *                      A comma-separated list, whose entries may
 *                      also be "all" (all 32 configurations) or
 *                      "fig5" (the Figure 5 subset), sweeps the
 *                      program over every named microarchitecture.
 *   --jobs N           worker threads for multi-uarch sweeps
 *                      (default: hardware concurrency). Results are
 *                      printed in list order and are bit-identical to
 *                      a serial sweep.
 *   --pes N            fabric size (default: as many PEs as the
 *                      program targets)
 *   --connect A.O:B.I  wire PE A output O to PE B input I (repeat)
 *   --read-port P.A.D  memory read port on PE P (addr out A, data in D)
 *   --write-port P.A.D memory write port on PE P (addr out A, data out D)
 *   --reg P.R=V        preload register R of PE P with V
 *   --mem A=V          preload memory word A with V (repeat)
 *   --dump A[:N]       print N (default 1) memory words from A after
 *                      the run (repeat). The numbers in --connect,
 *                      the ports, --reg, --mem and --dump are decimal
 *                      and at most 2^32-1.
 *   --max-cycles N     simulation budget (default 100,000,000 — the
 *                      shared kDefaultMaxCycles)
 *   --quiescence N     quiescence/watchdog window in cycles
 *                      (default 10,000)
 *   --inject PLAN      fault-injection plan (see sim/fault.hh), e.g.
 *                      "seed=7;drop:ch0@p0.01;mispredict:pe0@p0.1"
 *   --watchdog         print the full hang diagnosis (wait-for chain,
 *                      blocked agents) when a run does not halt
 *   --trace FILE       write a Chrome trace_event JSON trace (load in
 *                      chrome://tracing or Perfetto); single cycle-
 *                      accurate -u only
 *   --trace-level L    trace granularity: "events" (default; issue,
 *                      retire, quash, predictor, halt) or
 *                      "cycles" (adds per-stage occupancy tracks and
 *                      per-cycle channel depths)
 *   --metrics FILE     write a tia-metrics/v1 JSON document with one
 *                      run entry per swept microarchitecture
 *                      (validate with tia-metrics-check)
 *   --stats            print host-side simulation statistics: wall
 *                      time, simulated cycles per host second, and how
 *                      many PE steps ran and how many of them the
 *                      control memo replayed (cycle-accurate runs
 *                      only)
 *
 * tia-sim always simulates; the result cache (docs/simcache.md) is
 * reached through tia-sweep --cache and tia-serve --cache.
 *
 * Single-PE programs with no wiring options get the conventional port
 * map automatically: read port on %o0/%i0, write port on %o1/%o2.
 *
 * Each cycle-accurate run goes through executeCycle
 * (workloads/runner.hh), the fabric execution runCycle uses: an
 * injected fault that escalates to an architectural trap (e.g. a
 * corrupted address out of bounds) is reported as that run's outcome,
 * not as a tool error.
 *
 * Exit codes: 0 halted, 1 error, 2 usage, 3 quiescent (starved),
 * 4 deadlock, 5 livelock, 6 step limit, 7 cancelled, 8 trapped (an
 * injected fault escalated to a trap) — so scripts can distinguish
 * the failure classes. A multi-uarch sweep exits with the worst
 * (highest) per-run code.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/assembler.hh"
#include "core/logging.hh"
#include "core/parse.hh"
#include "exec/pipeline.hh"
#include "exec/thread_pool.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "sim/fault.hh"
#include "sim/functional.hh"
#include "uarch/fabric_metrics.hh"
#include "workloads/runner.hh"

namespace {

using namespace tia;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open ", path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** printf into a growing string (per-run output is buffered so a
 *  parallel sweep prints deterministically in list order). */
void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

/** Split "12.3:4.5"-style arguments of @p option on the given
 *  separators into decimal fields of at most 32 bits. */
std::vector<unsigned long>
numbers(const char *option, const std::string &text,
        const char *separators)
{
    std::vector<unsigned long> values;
    for (std::size_t begin = 0;;) {
        const std::size_t end = text.find_first_of(separators, begin);
        values.push_back(parseCount64(
            option, std::string_view(text).substr(begin, end - begin),
            UINT32_MAX));
        if (end == std::string::npos)
            return values;
        begin = end + 1;
    }
}

struct Options
{
    std::string program;
    std::string paramsPath;
    std::string uarch = "functional";
    unsigned pes = 0;
    unsigned jobs = 0; ///< Sweep workers; 0 = hardware concurrency.
    std::vector<std::array<unsigned long, 4>> connects;
    std::vector<std::array<unsigned long, 3>> readPorts;
    std::vector<std::array<unsigned long, 3>> writePorts;
    std::vector<std::array<unsigned long, 3>> regs;
    std::vector<std::array<unsigned long, 2>> mems;
    std::vector<std::array<unsigned long, 2>> dumps;
    std::uint64_t maxCycles = kDefaultMaxCycles;
    std::uint64_t quiescenceWindow = kDefaultQuiescenceWindow;
    std::string injectPlan;
    bool watchdog = false;
    bool stats = false;
    std::string tracePath;   ///< Chrome trace_event JSON output.
    TraceLevel traceLevel = TraceLevel::Events;
    std::string metricsPath; ///< tia-metrics/v1 JSON output.
};

/** Exit code of a run that ended in an architectural trap. */
constexpr int kTrappedExitCode = 8;

/** Map a run status to the tool's documented exit code. */
int
exitCode(RunStatus status)
{
    switch (status) {
      case RunStatus::Halted:
        return 0;
      case RunStatus::Quiescent:
        return 3;
      case RunStatus::Deadlock:
        return 4;
      case RunStatus::Livelock:
        return 5;
      case RunStatus::StepLimit:
        return 6;
      case RunStatus::Cancelled:
        return 7;
    }
    return 1;
}

void
printCounters(std::string &out, const char *label, const PerfCounters &c)
{
    appendf(out, "%s: cycles %llu, retired %llu, CPI %s\n", label,
            static_cast<unsigned long long>(c.cycles),
            static_cast<unsigned long long>(c.retired),
            formatCpi(c.cpi()).c_str());
    appendf(out,
            "  quashed %llu, predicate-hazard %llu, data-hazard "
            "%llu, forbidden %llu, no-trigger %llu\n",
            static_cast<unsigned long long>(c.quashed),
            static_cast<unsigned long long>(c.predicateHazard),
            static_cast<unsigned long long>(c.dataHazard),
            static_cast<unsigned long long>(c.forbidden),
            static_cast<unsigned long long>(c.noTrigger));
    if (c.predictions > 0) {
        appendf(out, "  predictions %llu (%.1f%% accurate)\n",
                static_cast<unsigned long long>(c.predictions),
                c.predictionAccuracy() * 100.0);
    }
    if (c.faultsInjected > 0) {
        appendf(out, "  faults injected %llu, recovered %llu\n",
                static_cast<unsigned long long>(c.faultsInjected),
                static_cast<unsigned long long>(c.faultRecoveries));
    }
}

int
run(const Options &opt)
{
    ArchParams params;
    if (!opt.paramsPath.empty())
        params = parseParams(readFile(opt.paramsPath));
    // The program as a Workload, so cycle-accurate runs share
    // runCycle's fabric execution. There is no golden model to check
    // the memory image against (--dump shows it instead), so the check
    // always passes.
    Workload workload;
    workload.name = opt.program;
    workload.program = assemble(readFile(opt.program), params);
    for (const auto &m : opt.mems)
        workload.inputs.push_back(
            {static_cast<Word>(m[0]), {static_cast<Word>(m[1])}});
    workload.check = [](const Memory &) { return std::string(); };

    const unsigned pes = opt.pes ? opt.pes : workload.program.numPes();
    FabricBuilder builder(params, pes);
    const bool default_ports = opt.connects.empty() &&
                               opt.readPorts.empty() &&
                               opt.writePorts.empty();
    if (default_ports && pes == 1) {
        builder.addReadPort(0, 0, 0);
        builder.addWritePort(0, 1, 2);
    }
    for (const auto &c : opt.connects) {
        builder.connect(static_cast<unsigned>(c[0]),
                        static_cast<unsigned>(c[1]),
                        static_cast<unsigned>(c[2]),
                        static_cast<unsigned>(c[3]));
    }
    for (const auto &r : opt.readPorts) {
        builder.addReadPort(static_cast<unsigned>(r[0]),
                            static_cast<unsigned>(r[1]),
                            static_cast<unsigned>(r[2]));
    }
    for (const auto &w : opt.writePorts) {
        builder.addWritePort(static_cast<unsigned>(w[0]),
                             static_cast<unsigned>(w[1]),
                             static_cast<unsigned>(w[2]));
    }
    std::vector<std::vector<Word>> reg_files(pes);
    for (const auto &r : opt.regs) {
        // Range-check before the resize below sizes a vector by R.
        fatalIf(r[0] >= pes, "--reg ", r[0], ".", r[1], ": PE ", r[0],
                " is out of range (the fabric has ", pes, " PE(s))");
        fatalIf(r[1] >= params.numRegs, "--reg ", r[0], ".", r[1],
                ": register ", r[1], " is out of range (",
                params.numRegs, " registers per PE)");
        auto &file = reg_files[r[0]];
        if (file.size() <= r[1])
            file.resize(r[1] + 1, 0);
        file[r[1]] = static_cast<Word>(r[2]);
    }
    for (unsigned pe = 0; pe < pes; ++pe) {
        if (!reg_files[pe].empty())
            builder.setInitialRegs(pe, reg_files[pe]);
    }
    workload.config = builder.build();

    // Range-check memory addresses before any simulation, so a typo
    // cannot discard the results of a whole sweep at dump time.
    const std::size_t words = workload.config.memoryWords;
    for (const auto &m : opt.mems) {
        fatalIf(m[0] >= words, "--mem ", m[0], "=", m[1], ": address ",
                m[0], " is out of range (", words, " memory words)");
    }
    for (const auto &d : opt.dumps) {
        const unsigned long count = d[1] ? d[1] : 1;
        fatalIf(d[0] >= words || count > words - d[0], "--dump ", d[0],
                ":", count, " reads past the end of memory (", words,
                " words)");
    }
    auto dump = [&](std::string &out, const Memory &memory) {
        for (const auto &d : opt.dumps) {
            const unsigned long count = d[1] ? d[1] : 1;
            for (unsigned long i = 0; i < count; ++i) {
                const Word addr = static_cast<Word>(d[0] + i);
                appendf(out, "mem[%u] = %u (0x%08x)\n", addr,
                        memory.read(addr), memory.read(addr));
            }
        }
    };
    const bool tracing = !opt.tracePath.empty();
    if (opt.uarch == "functional") {
        fatalIf(!opt.injectPlan.empty(),
                "--inject requires a cycle-accurate -u microarchitecture");
        fatalIf(opt.stats,
                "--stats requires a cycle-accurate -u microarchitecture");
        fatalIf(tracing, "--trace requires a cycle-accurate -u "
                         "microarchitecture");
        fatalIf(!opt.metricsPath.empty(),
                "--metrics requires a cycle-accurate -u "
                "microarchitecture");
        FunctionalFabric fabric(workload.config, workload.program);
        workload.preload(fabric.memory());
        const RunStatus status = fabric.run(opt.maxCycles);
        std::printf("functional simulation: %s\n", runStatusName(status));
        for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
            std::printf("PE %u: %llu instructions%s\n", pe,
                        static_cast<unsigned long long>(
                            fabric.pe(pe).dynamicInstructions()),
                        fabric.pe(pe).halted() ? " (halted)" : "");
        }
        std::string text;
        dump(text, fabric.memory());
        std::fputs(text.c_str(), stdout);
        return exitCode(status);
    }

    // Resolve the microarchitecture sweep list up front so a typo
    // fails before any simulation starts.
    const std::vector<PeConfig> uarchs = parseConfigList(opt.uarch);

    fatalIf(tracing && uarchs.size() > 1,
            "--trace wants a single -u microarchitecture (traces from a "
            "sweep would interleave)");

    std::optional<FaultPlan> plan;
    if (!opt.injectPlan.empty())
        plan.emplace(FaultPlan::parse(opt.injectPlan));

    // Per-run metrics entries, written by index — safe under a
    // parallel sweep, assembled in list order afterwards.
    std::vector<JsonValue> metricsRuns(uarchs.size());

    // One task per microarchitecture; each owns its fabric and
    // injector, so the sweep result does not depend on --jobs.
    auto simulate = [&](std::size_t index) {
        const PeConfig &uarch = uarchs[index];
        CycleRunOptions options;
        options.maxCycles = opt.maxCycles;
        options.quiescenceWindow = opt.quiescenceWindow;
        options.faults = plan ? &*plan : nullptr;

        // The trace sink lives on this task's stack — --trace is
        // rejected for multi-uarch sweeps, so at most one task builds
        // it.
        std::optional<ChromeTraceSink> chrome;
        if (tracing) {
            chrome.emplace();
            for (unsigned pe = 0; pe < pes; ++pe) {
                chrome->setPeMetadata(pe, "PE " + std::to_string(pe),
                                      uarch.shape.segmentNames());
            }
            options.trace = &*chrome;
            options.traceLevel = opt.traceLevel;
        }

        const auto host_start = std::chrono::steady_clock::now();
        CycleExecution execution = executeCycle(workload, uarch, options);
        const double host_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - host_start)
                .count();
        CycleFabric &fabric = *execution.fabric;
        const RunStatus status = execution.status;
        std::string text;
        appendf(text, "%s simulation: %s after %llu cycles\n",
                uarch.name().c_str(),
                execution.trap ? "trapped" : runStatusName(status),
                static_cast<unsigned long long>(fabric.now()));
        if (execution.trap)
            appendf(text, "  trapped: %s\n", execution.trap->c_str());
        const HangReport &report = fabric.hangReport();
        if (!report.summary.empty())
            appendf(text, "  %s\n", report.summary.c_str());
        if (opt.watchdog) {
            for (const auto &line : report.waitChain)
                appendf(text, "  %s\n", line.c_str());
            for (const auto &agent : report.blockedAgents)
                appendf(text, "  blocked: %s\n", agent.c_str());
        }
        for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
            std::string label = "PE " + std::to_string(pe);
            printCounters(text, label.c_str(), fabric.pe(pe).counters());
        }
        const FaultInjector *injector = execution.injector.get();
        if (injector) {
            appendf(text, "fault injection (%s):\n%s",
                    injector->plan().toString().c_str(),
                    injector->stats().summary().c_str());
        }
        if (opt.stats) {
            const FabricStepStats steps = fabric.stepStats();
            appendf(text,
                    "host stats: %.3f ms wall, %.0f simulated "
                    "cycles/s\n",
                    host_seconds * 1e3,
                    host_seconds > 0.0
                        ? static_cast<double>(fabric.now()) / host_seconds
                        : 0.0);
            appendf(text, "  PE steps: %llu executed\n",
                    static_cast<unsigned long long>(steps.peStepsExecuted));
            appendf(text,
                    "  PE steps replayed from the control memo: %llu "
                    "(%.1f%% of executed)\n",
                    static_cast<unsigned long long>(steps.peStepsReplayed),
                    steps.peStepsExecuted > 0
                        ? 100.0 *
                              static_cast<double>(steps.peStepsReplayed) /
                              static_cast<double>(steps.peStepsExecuted)
                        : 0.0);
        }
        if (chrome) {
            fatalIf(!chrome->writeTo(opt.tracePath), "cannot write ",
                    opt.tracePath);
            appendf(text, "trace: %s\n", opt.tracePath.c_str());
        }
        if (!opt.metricsPath.empty()) {
            JsonValue entry = fabricRunMetrics(fabric, uarch, status);
            if (injector) {
                JsonValue faults = JsonValue::object();
                faults["plan"] = injector->plan().toString();
                faults = faultStatsJson(injector->stats(), std::move(faults));
                if (execution.trap)
                    faults["trap"] = *execution.trap;
                entry["faults"] = std::move(faults);
            }
            metricsRuns[index] = std::move(entry);
        }
        dump(text, fabric.memory());
        return std::make_pair(
            execution.trap ? kTrappedExitCode : exitCode(status),
            std::move(text));
    };

    std::vector<std::pair<int, std::string>> results(uarchs.size());
    const SweepPipeline pipeline(opt.jobs);
    const PipelineResult sweep = pipeline.run(
        uarchs.size(), simulate,
        [&](std::size_t i, std::pair<int, std::string> &&result) {
            results[i] = std::move(result);
        });

    int worst = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0)
            std::printf("\n");
        std::fputs(results[i].second.c_str(), stdout);
        worst = std::max(worst, results[i].first);
    }
    if (uarchs.size() > 1) {
        std::printf("\nswept %zu microarchitectures on %u worker "
                    "thread(s) in %.1f ms\n",
                    uarchs.size(), sweep.jobs, sweep.wallMs);
    }
    if (!opt.metricsPath.empty()) {
        MetricsRegistry registry("tia-sim");
        registry.root()["program"] = opt.program;
        for (auto &entry : metricsRuns)
            registry.addRun(std::move(entry));
        fatalIf(!registry.writeTo(opt.metricsPath), "cannot write ",
                opt.metricsPath);
        std::printf("metrics: %s\n", opt.metricsPath.c_str());
    }
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                fatalIf(i + 1 >= argc, arg, " needs an argument");
                return argv[++i];
            };
            if (arg == "-p") {
                opt.paramsPath = next();
            } else if (arg == "-u") {
                opt.uarch = next();
            } else if (arg == "--pes") {
                opt.pes = parseCount("--pes", next());
            } else if (arg == "--jobs") {
                opt.jobs = ThreadPool::parseJobs(next());
            } else if (arg == "--connect") {
                const auto v = numbers("--connect", next(), ".:");
                fatalIf(v.size() != 4, "--connect wants A.O:B.I");
                opt.connects.push_back({v[0], v[1], v[2], v[3]});
            } else if (arg == "--read-port") {
                const auto v = numbers("--read-port", next(), ".");
                fatalIf(v.size() != 3, "--read-port wants P.A.D");
                opt.readPorts.push_back({v[0], v[1], v[2]});
            } else if (arg == "--write-port") {
                const auto v = numbers("--write-port", next(), ".");
                fatalIf(v.size() != 3, "--write-port wants P.A.D");
                opt.writePorts.push_back({v[0], v[1], v[2]});
            } else if (arg == "--reg") {
                const auto v = numbers("--reg", next(), ".=");
                fatalIf(v.size() != 3, "--reg wants P.R=V");
                opt.regs.push_back({v[0], v[1], v[2]});
            } else if (arg == "--mem") {
                const auto v = numbers("--mem", next(), "=");
                fatalIf(v.size() != 2, "--mem wants A=V");
                opt.mems.push_back({v[0], v[1]});
            } else if (arg == "--dump") {
                const auto v = numbers("--dump", next(), ":");
                fatalIf(v.empty() || v.size() > 2, "--dump wants A[:N]");
                opt.dumps.push_back({v[0], v.size() > 1 ? v[1] : 1});
            } else if (arg == "--max-cycles") {
                opt.maxCycles = parseCount64("--max-cycles", next());
            } else if (arg == "--quiescence") {
                opt.quiescenceWindow = parseCount64("--quiescence", next());
            } else if (arg == "--inject") {
                opt.injectPlan = next();
            } else if (arg == "--watchdog") {
                opt.watchdog = true;
            } else if (arg == "--stats") {
                opt.stats = true;
            } else if (arg == "--trace") {
                opt.tracePath = next();
            } else if (arg == "--trace-level") {
                const std::string level = next();
                if (level == "events") {
                    opt.traceLevel = TraceLevel::Events;
                } else if (level == "cycles") {
                    opt.traceLevel = TraceLevel::Cycles;
                } else {
                    tia::fatalIf(true, "--trace-level wants \"events\" "
                                       "or \"cycles\", got \"",
                                 level, "\"");
                }
            } else if (arg == "--metrics") {
                opt.metricsPath = next();
            } else if (!arg.empty() && arg[0] != '-' &&
                       opt.program.empty()) {
                opt.program = arg;
            } else {
                std::fprintf(stderr, "unknown option %s\n", arg.c_str());
                return 2;
            }
        }
        tia::fatalIf(opt.program.empty(), "no program given");
        const int code = run(opt);
        // Results are buffered: a full device fails only at the flush.
        tia::fatalIf(std::fflush(stdout) != 0 || std::ferror(stdout),
                     "cannot write the results to stdout");
        return code;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tia-sim: %s\n", error.what());
        return 1;
    }
}
