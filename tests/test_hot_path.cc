/**
 * @file
 * Equivalence tests for the hot-loop optimizations: the ring-buffer
 * TaggedQueue and the fabric's control memo. Every optimization must be
 * invisible to the architecture — identical queue semantics, and
 * bit-identical cycle counts, counters and hang reports from run() and
 * from a bare step() loop.
 */

#include <algorithm>
#include <array>
#include <deque>
#include <random>
#include <utility>

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "exec/stop_token.hh"
#include "sim/fault.hh"
#include "sim/queue.hh"
#include "uarch/cycle_fabric.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia {
namespace {

// ---------------------------------------------------------------------
// Ring-buffer TaggedQueue vs a deque reference model.
// ---------------------------------------------------------------------

/** The pre-ring TaggedQueue semantics, kept as an executable spec. */
struct DequeModel
{
    explicit DequeModel(unsigned capacity) : capacity(capacity) {}

    unsigned capacity;
    std::deque<Token> entries;
    std::deque<Token> pending;
    unsigned pops = 0; ///< Pops since the last commit.
    std::uint64_t events = 0; ///< Pushes + pops, as QueueEventLog counts.

    bool canPush() const { return entries.size() + pending.size() < capacity; }

    void
    push(const Token &t)
    {
        pending.push_back(t);
        ++events;
    }

    Token
    pop()
    {
        Token t = entries.front();
        entries.pop_front();
        ++events;
        ++pops;
        return t;
    }

    void
    commit()
    {
        for (const auto &t : pending)
            entries.push_back(t);
        pending.clear();
        pops = 0;
    }

    void
    pushImmediate(const Token &t)
    {
        entries.push_back(t);
        ++events;
    }
};

TEST(RingBufferQueue, MatchesDequeModelUnderRandomOps)
{
    std::mt19937 rng(0xDECADE);
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };

    for (unsigned trial = 0; trial < 200; ++trial) {
        const unsigned capacity = 1 + pick(7); // covers non-powers of 2
        TaggedQueue queue(capacity);
        DequeModel model(capacity);
        QueueEventLog log(8);
        queue.setEventLog(&log, 7);

        for (unsigned op = 0; op < 400; ++op) {
            switch (pick(5)) {
              case 0: // deferred push
                if (model.canPush()) {
                    const Token t{static_cast<Word>(rng()),
                                  static_cast<Tag>(pick(4))};
                    queue.push(t);
                    model.push(t);
                }
                break;
              case 1: // pop
                if (!model.entries.empty()) {
                    const Token expect = model.pop();
                    ASSERT_EQ(queue.pop(), expect);
                }
                break;
              case 2:
                queue.commit();
                model.commit();
                break;
              case 3: // immediate push (functional mode: no pending)
                if (model.pending.empty() &&
                    model.entries.size() < capacity) {
                    const Token t{static_cast<Word>(rng()),
                                  static_cast<Tag>(pick(4))};
                    queue.pushImmediate(t);
                    model.pushImmediate(t);
                }
                break;
              default: { // deep peek
                const unsigned depth = pick(capacity + 1);
                const Token *got = queue.peek(depth);
                if (depth < model.entries.size()) {
                    ASSERT_NE(got, nullptr);
                    ASSERT_EQ(*got, model.entries[depth]);
                } else {
                    ASSERT_EQ(got, nullptr);
                }
                break;
              }
            }
            ASSERT_EQ(queue.size(), model.entries.size());
            ASSERT_EQ(queue.empty(), model.entries.empty());
            ASSERT_EQ(queue.popsThisCycle(), model.pops);
            ASSERT_EQ(queue.snapshotSize(),
                      queue.size() + queue.popsThisCycle());
            ASSERT_EQ(queue.pendingPushes(), model.pending.size());
        }
        EXPECT_EQ(log.progressEvents(), model.events);
        if (model.events > 0) {
            ASSERT_EQ(log.dirtyChannels().size(), 1u);
            EXPECT_EQ(log.dirtyChannels().front(), 7u);
        }
    }
}

TEST(RingBufferQueue, OverflowStillPanics)
{
    TaggedQueue queue(2);
    queue.push({1, 0});
    queue.push({2, 0});
    EXPECT_ANY_THROW(queue.push({3, 0}));
}

// ---------------------------------------------------------------------
// Quiescent runs and run() exits. (The suite keeps the IdlePeSleep name
// it had while the fabric parked idle PEs; each case pins a property
// that outlived the parking.)
// ---------------------------------------------------------------------

/** Everything observable about one cycle-accurate execution. */
struct RunObservation
{
    RunStatus status;
    Cycle cycles;
    std::vector<PerfCounters> counters;
    std::vector<std::vector<Word>> regs;
    std::vector<std::uint64_t> preds;
    HangReport report;
    std::vector<Word> memory;

    bool operator==(const RunObservation &) const = default;
};

/** A trace sink that drops every event: attaching it turns the
 *  control memo off without changing anything else about a run. */
class NullSink : public TraceSink
{
  public:
    void record(const TraceEvent &) override {}
};

TEST(IdlePeSleep, QuiescentStarvationIdentical)
{
    // A PE waiting forever on an input fed by a PE that never fires:
    // nothing retires and no agent is active, so the run goes quiescent
    // the cycle the window elapses, with every PE's cycles attributed
    // to no-trigger. run(), which replays from the control memo past
    // FabricMemo::kEngageAfter cycles, a traced run, which never
    // replays, and a bare step() loop agree on the clock, the counters
    // and (for the two runs) the diagnosis.
    ArchParams params;
    const Program program = assemble(
        "when %p == XXXXXXX0 with %i0.1: add %r0, %r0, %i0; deq %i0;\n",
        params);
    FabricBuilder builder(params, 2);
    builder.connect(1, 0, 0, 0); // feed PE0 from PE1, which never fires
    const FabricConfig config = builder.build();
    const PeConfig tdx{allShapes()[0], false, false, false};

    auto observe = [](const CycleFabric &fabric, RunStatus status) {
        RunObservation obs;
        obs.status = status;
        obs.cycles = fabric.now();
        for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
            obs.counters.push_back(fabric.pe(pe).counters());
            obs.regs.push_back(fabric.pe(pe).regs());
            obs.preds.push_back(fabric.pe(pe).preds());
        }
        obs.report = fabric.hangReport();
        return obs;
    };
    for (const Cycle window :
         {Cycle{40}, Cycle{100}, kDefaultQuiescenceWindow}) {
        const std::string what = "window " + std::to_string(window);
        CycleFabric ran(config, program, tdx);
        const RunObservation obs =
            observe(ran, ran.run({kDefaultMaxCycles, window}));
        EXPECT_EQ(obs.status, RunStatus::Quiescent) << what;
        EXPECT_EQ(obs.report.classification, RunStatus::Quiescent) << what;
        EXPECT_EQ(obs.report.summary,
                  "quiescent: 1 agent(s) starved with no wait cycle "
                  "(producer halted or idle)")
            << what;
        EXPECT_EQ(obs.cycles, window) << what;
        for (const PerfCounters &c : obs.counters) {
            EXPECT_EQ(c.cycles, window) << what;
            EXPECT_EQ(c.noTrigger, window) << what;
        }

        NullSink sink;
        CycleFabric traced(config, program, tdx);
        traced.setTraceSink(&sink);
        EXPECT_EQ(observe(traced, traced.run({kDefaultMaxCycles, window})),
                  obs)
            << what;

        CycleFabric stepped(config, program, tdx);
        while (stepped.now() < window)
            stepped.step();
        for (unsigned pe = 0; pe < stepped.numPes(); ++pe) {
            EXPECT_EQ(stepped.pe(pe).counters(), obs.counters[pe])
                << what << " PE " << pe;
        }
    }
}

/**
 * The counter-integrity contract (uarch/counters.hh): every PE cycle
 * lands in exactly one attribution bucket, except the cycles claimed
 * by instructions still in flight. Must hold on EVERY exit path —
 * including budget and quiescence exits while the control memo holds
 * replayed cycles whose counter deltas are not yet settled.
 */
void
expectBucketIntegrity(CycleFabric &fabric, const char *where)
{
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        const PerfCounters &c = fabric.pe(pe).counters();
        const std::uint64_t buckets = c.retired + c.quashed +
                                      c.predicateHazard + c.dataHazard +
                                      c.forbidden + c.noTrigger;
        EXPECT_EQ(buckets + fabric.pe(pe).inFlight(), c.cycles)
            << where << " PE " << pe;
        // An unhalted PE's clock runs to the end of the fabric's.
        if (!fabric.pe(pe).halted()) {
            EXPECT_EQ(c.cycles, fabric.now()) << where << " PE " << pe;
        }
    }
    // One executed step per PE cycle.
    std::uint64_t pe_cycles = 0;
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe)
        pe_cycles += fabric.pe(pe).counters().cycles;
    EXPECT_EQ(fabric.stepStats().peStepsExecuted, pe_cycles) << where;
}

TEST(IdlePeSleep, CountersSettleOnEveryExitPath)
{
    // A sparse fabric — one gcd worker plus 15 programless PEs that
    // never fire — driven to each of the run() exit reasons.
    const Workload workload = makeGcd(WorkloadSizes::small());
    FabricConfig config = workload.config;
    const unsigned total_pes = config.numPes + 15;
    config.inputChannel.resize(
        total_pes,
        std::vector<int>(config.params.numInputQueues, kUnbound));
    config.outputChannel.resize(
        total_pes,
        std::vector<int>(config.params.numOutputQueues, kUnbound));
    config.initialRegs.resize(total_pes);
    config.initialPreds.resize(total_pes, 0);
    config.numPes = total_pes;
    const PeConfig uarch{allShapes()[7], true, true, true};

    {
        // Cycle-budget exit: the watchdog window never elapses, so the
        // run stops mid-flight, before the control memo engages.
        CycleFabric fabric(config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run({50, 10'000}), RunStatus::StepLimit);
        expectBucketIntegrity(fabric, "step-limit");
    }
    {
        // Larger budget, same exit, after the worker made progress and
        // the memo replayed cycles.
        CycleFabric fabric(config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run({200, 10'000}), RunStatus::StepLimit);
        expectBucketIntegrity(fabric, "step-limit-200");
    }
    {
        // Quiescence/watchdog exit: the worker halts, the idle PEs
        // starve, and the quiescence window trips.
        CycleFabric fabric(config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run({kDefaultMaxCycles, 100}),
                  RunStatus::Quiescent);
        EXPECT_TRUE(fabric.pe(workload.workerPe).halted());
        expectBucketIntegrity(fabric, "quiescent");
    }
    {
        // Halted exit on the unpadded fabric.
        CycleFabric fabric(workload.config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run(), RunStatus::Halted);
        expectBucketIntegrity(fabric, "halted");
    }
}

// ---------------------------------------------------------------------
// The fabric control memo: run() against a bare per-cycle step() loop.
// (The suite keeps the RunAhead name of the lone-PE memo these cases
// were written for; each now pins the same property of the fabric
// memo.)
// ---------------------------------------------------------------------

/** A channel's contents and sizing signals. */
struct ChannelObservation
{
    std::vector<Token> tokens; ///< Head first.
    unsigned size = 0;
    unsigned highWater = 0;

    bool operator==(const ChannelObservation &) const = default;
};

/** Everything observable about a fabric after a run, plus host steps. */
struct FabricObservation
{
    Cycle cycles = 0;
    std::vector<PerfCounters> counters;
    /** Per PE: retired, quashed, predicate, data, forbidden, no trigger. */
    std::vector<std::array<double, 6>> cpiStacks;
    std::vector<std::vector<Word>> regs;
    std::vector<std::uint64_t> preds;
    std::vector<std::vector<Word>> scratchpads;
    /** Per PE: the between-cycle queue view the hang diagnosis reads. */
    std::vector<PeWaitInfo> queueWaits;
    std::vector<ChannelObservation> channels;
    /** Per read port, each held request's cycles until due and tag. */
    std::vector<std::vector<std::pair<Cycle, Tag>>> heldRequests;
    std::vector<Word> memory;
    std::uint64_t stepsExecuted = 0;

    bool operator==(const FabricObservation &) const = default;
};

FabricObservation
observeFabric(const CycleFabric &fabric)
{
    FabricObservation obs;
    obs.cycles = fabric.now();
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        obs.counters.push_back(fabric.pe(pe).counters());
        const CpiStack cpi = cpiStack(fabric.pe(pe).counters());
        obs.cpiStacks.push_back({cpi.retired, cpi.quashed,
                                 cpi.predicateHazard, cpi.dataHazard,
                                 cpi.forbidden, cpi.noTrigger});
        obs.regs.push_back(fabric.pe(pe).regs());
        obs.preds.push_back(fabric.pe(pe).preds());
        obs.scratchpads.push_back(fabric.pe(pe).scratchpad());
        obs.queueWaits.push_back(fabric.pe(pe).queueWaits());
    }
    for (unsigned ch = 0; ch < fabric.numChannels(); ++ch) {
        const TaggedQueue &queue = fabric.channel(ch);
        ChannelObservation channel;
        for (unsigned depth = 0; depth < queue.size(); ++depth)
            channel.tokens.push_back(*queue.peek(depth));
        channel.size = queue.size();
        channel.highWater = queue.highWater();
        obs.channels.push_back(std::move(channel));
    }
    for (unsigned rp = 0; rp < fabric.numReadPorts(); ++rp) {
        const MemoryReadPort &port = fabric.readPort(rp);
        auto &held = obs.heldRequests.emplace_back();
        for (std::size_t i = 0; i < port.inFlight(); ++i)
            held.emplace_back(port.heldWait(i, fabric.now()), port.heldTag(i));
    }
    obs.memory = fabric.memory().snapshot();
    obs.stepsExecuted = fabric.stepStats().peStepsExecuted;
    return obs;
}

bool
allHalted(const CycleFabric &fabric)
{
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        if (!fabric.pe(pe).halted())
            return false;
    }
    return true;
}

TEST(RunAhead, WorkloadSuiteMatchesPerCycleStepLoop)
{
    // Every Table 3 workload at both sizes on all 32 uarchs plus +P+N
    // and +P+N+Q: run(), which replays most cycles from the control
    // memo, leaves exactly what a bare step() loop leaves.
    std::vector<Workload> workloads = allWorkloads(WorkloadSizes::small());
    for (Workload &workload : allWorkloads(WorkloadSizes::full()))
        workloads.push_back(std::move(workload));
    std::vector<PeConfig> uarchs = allConfigs();
    ASSERT_EQ(uarchs.size(), 32u);
    uarchs.push_back({allShapes()[7], true, false, true}); // +P+N
    uarchs.push_back({allShapes()[7], true, true, true});  // +P+N+Q
    for (const Workload &workload : workloads) {
        for (const PeConfig &uarch : uarchs) {
            CycleFabric ran(workload.config, workload.program, uarch);
            workload.preload(ran.memory());
            ASSERT_EQ(ran.run(), RunStatus::Halted)
                << workload.name << " / " << uarch.name();

            CycleFabric stepped(workload.config, workload.program, uarch);
            workload.preload(stepped.memory());
            while (!allHalted(stepped) && stepped.now() < kDefaultMaxCycles)
                stepped.step();

            ASSERT_EQ(observeFabric(ran), observeFabric(stepped))
                << workload.name << " / " << uarch.name();
        }
    }
}

/**
 * A counted loop that then waits forever on a never-fed input: its last
 * instruction retires in the cycle the PE first finds no trigger.
 */
constexpr const char *kCountThenStarve =
    "when %p == XXXXXX00: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
    "when %p == XXXXXX01: eq %p1, %r0, #40; set %p = ZZZZZZZ0;\n"
    "when %p == XXXXXX10: add %r1, %r0, #1; set %p = ZZZZZZ11;\n"
    "when %p == XXXXXX11 with %i0.0: halt;\n";

TEST(RunAhead, BudgetAndQuiescenceExitsMatchPerCycleStep)
{
    // 1-PE programs that never halt: an endless register loop, and
    // kCountThenStarve. The control memo replays their active
    // stretches, so the budget exit — step limit or, once the window
    // elapses without progress, livelock — and the quiescence exit must
    // land on the same cycle with the same diagnosis as a traced run
    // (which never replays), with the same state as a bare step() loop.
    const ArchParams params;
    const std::vector<std::pair<const char *, Program>> programs = {
        {"loop",
         assemble("when %p == XXXXXXX0: add %r0, %r0, #1; "
                  "set %p = ZZZZZZZ1;\n"
                  "when %p == XXXXXXX1: add %r1, %r1, %r0; "
                  "set %p = ZZZZZZZ0;\n",
                  params)},
        {"count then starve", assemble(kCountThenStarve, params)},
    };
    FabricBuilder builder(params, 1);
    const FabricConfig config = builder.build();
    for (const auto &[name, program] : programs) {
        for (const PeConfig &uarch : allConfigs()) {
            for (const Cycle window : {Cycle{100}, Cycle{10'000}}) {
                const std::string what = std::string(name) + " / " +
                                         uarch.name() + " / window " +
                                         std::to_string(window);
                const FabricRunOptions options{1'000, window, {}};

                CycleFabric ran(config, program, uarch);
                const RunStatus status = ran.run(options);
                EXPECT_NE(status, RunStatus::Halted) << what;

                NullSink sink;
                CycleFabric traced(config, program, uarch);
                traced.setTraceSink(&sink);
                EXPECT_EQ(traced.run(options), status) << what;
                EXPECT_EQ(ran.hangReport(), traced.hangReport()) << what;
                EXPECT_EQ(observeFabric(ran), observeFabric(traced))
                    << what;

                CycleFabric stepped(config, program, uarch);
                while (stepped.now() < ran.now())
                    stepped.step();
                EXPECT_EQ(observeFabric(ran), observeFabric(stepped))
                    << what;
            }
        }
    }
}

TEST(RunAhead, SuperblockExitsLandOnEveryCycle)
{
    // A replay lookup runs a whole superblock only when none of run()'s
    // exits lands inside it. A budget of every k across six superblock
    // caps past the memo's engagement ends a run on each cycle of the
    // superblocks there: in full-size gcd (one PE, no memory ports),
    // merge (a memory port may act in every replayed cycle) and
    // dot_product. Each run leaves exactly what a bare step() loop
    // leaves after k cycles.
    const std::vector<PeConfig> uarchs = {
        {allShapes()[0], false, false, false}, // TDX
        {allShapes()[7], false, false, false}, // T|D|X1|X2
    };
    const Cycle first = FabricMemo::kEngageAfter;
    const Cycle last = first + 6 * FabricMemo::kSuperblockCap;
    for (const Workload &workload : {makeGcd(WorkloadSizes::full()),
                                     makeMerge(WorkloadSizes::full()),
                                     makeDotProduct(WorkloadSizes::full())}) {
        for (const PeConfig &uarch : uarchs) {
            const std::string what = workload.name + " / " + uarch.name();
            CycleFabric stepped(workload.config, workload.program, uarch);
            workload.preload(stepped.memory());
            while (stepped.now() < first)
                stepped.step();
            FabricStepStats steps;
            for (Cycle k = first; k <= last; ++k) {
                ASSERT_FALSE(allHalted(stepped)) << what;
                CycleFabric ran(workload.config, workload.program, uarch);
                workload.preload(ran.memory());
                EXPECT_EQ(ran.run({k}), RunStatus::StepLimit)
                    << what << " / budget " << k;
                ASSERT_EQ(observeFabric(ran), observeFabric(stepped))
                    << what << " / budget " << k;
                steps = ran.stepStats();
                stepped.step();
            }
            // Superblocks ran: some lookups replayed several cycles.
            EXPECT_GT(steps.cyclesReplayed, 2 * steps.replayLookups) << what;
        }
    }

    // Quiescence windows of 1 to 8 cycles: kCountThenStarve ends idling
    // in a replayed self-loop, and the window closes where that loop's
    // superblock would otherwise run.
    const ArchParams params;
    const Program program = assemble(kCountThenStarve, params);
    FabricBuilder builder(params, 1);
    const FabricConfig config = builder.build();
    for (const PeConfig &uarch : allConfigs()) {
        for (Cycle window = 1; window <= 8; ++window) {
            const std::string what =
                uarch.name() + " / window " + std::to_string(window);
            const FabricRunOptions options{1'000, window, {}};
            CycleFabric ran(config, program, uarch);
            EXPECT_EQ(ran.run(options), RunStatus::Quiescent) << what;

            NullSink sink;
            CycleFabric traced(config, program, uarch);
            traced.setTraceSink(&sink);
            EXPECT_EQ(traced.run(options), RunStatus::Quiescent) << what;
            EXPECT_EQ(ran.hangReport(), traced.hangReport()) << what;

            CycleFabric stepped(config, program, uarch);
            while (stepped.now() < ran.now())
                stepped.step();
            EXPECT_EQ(observeFabric(ran), observeFabric(stepped)) << what;
            EXPECT_EQ(observeFabric(ran), observeFabric(traced)) << what;
        }
    }
}

TEST(RunAhead, PortProgramsAtTinyQuiescenceWindowsMatchPerCycleStep)
{
    // Programs that stall behind memory ports, at quiescence windows of
    // 1 to 8 cycles, where the last cycle before the verdict can move a
    // token while no agent stays active: the diagnosis reads each PE's
    // between-cycle queue view, which run() must leave as a bare step()
    // loop does. "loads then stall" replays its load loop from the memo
    // before the port backs up behind the response channel it stops
    // draining; the other two are HangDiagnosis fabrics.
    const ArchParams params;
    struct PortProgram
    {
        const char *name;
        Program program;
        FabricConfig config;
        bool replays = false; ///< The memo replays its loop.
    };
    std::vector<PortProgram> programs;
    {
        FabricBuilder builder(params, 1);
        builder.addReadPort(0, 0, 0);
        programs.push_back(
            {"read port behind full response channel",
             assemble("when %p == XXXXXXXX: mov %o0.0, #3;\n", params),
             builder.build()});
    }
    {
        FabricBuilder builder(params, 1);
        builder.addReadPort(0, 0, 0);
        programs.push_back(
            {"loads then stall",
             assemble("when %p == XXXXX000: mov %o0.0, #3; "
                      "set %p = ZZZZZZ01;\n"
                      "when %p == XXXXX001 with %i0.0: add %r0, %r0, #1; "
                      "deq %i0; set %p = ZZZZZZ10;\n"
                      "when %p == XXXXX010: eq %p2, %r0, #40; "
                      "set %p = ZZZZZZ00;\n"
                      "when %p == XXXXX1XX: mov %o0.0, #3;\n",
                      params),
             builder.build(), true});
    }
    {
        FabricBuilder builder(params, 1);
        builder.addWritePort(0, 1, 2);
        programs.push_back({"write port awaiting data",
                            assemble("when %p == XXXXXXX0: mov %o1.0, #5;\n"
                                     "when %p == XXXXXXX1: mov %o2.0, #7;\n",
                                     params),
                            builder.build()});
    }
    for (const PortProgram &p : programs) {
        for (const PeConfig &uarch : allConfigs()) {
            for (Cycle window = 1; window <= 8; ++window) {
                const std::string what = std::string(p.name) + " / " +
                                         uarch.name() + " / window " +
                                         std::to_string(window);
                const FabricRunOptions options{10'000, window, {}};
                CycleFabric ran(p.config, p.program, uarch);
                const RunStatus status = ran.run(options);
                EXPECT_NE(status, RunStatus::Halted) << what;
                // A one-cycle window closes inside the first load's wait.
                if (p.replays && window > 1) {
                    EXPECT_GT(ran.stepStats().cyclesReplayed, 0u) << what;
                }

                NullSink sink;
                CycleFabric traced(p.config, p.program, uarch);
                traced.setTraceSink(&sink);
                EXPECT_EQ(traced.run(options), status) << what;
                EXPECT_EQ(ran.hangReport(), traced.hangReport()) << what;
                EXPECT_EQ(observeFabric(ran), observeFabric(traced)) << what;

                CycleFabric stepped(p.config, p.program, uarch);
                while (stepped.now() < ran.now())
                    stepped.step();
                EXPECT_EQ(observeFabric(ran), observeFabric(stepped)) << what;
            }
        }
    }
}

TEST(RunAhead, AttachedStopTokenChangesNothing)
{
    // A token that is polled but never fires caps every stretch of
    // replayed cycles at the next poll boundary; results must not move.
    const StopSource source;
    auto expect_same = [&](const FabricConfig &config,
                           const Program &program, const PeConfig &uarch,
                           const Workload *workload, Cycle max_cycles,
                           const std::string &what) {
        FabricRunOptions options;
        options.maxCycles = max_cycles;
        CycleFabric plain(config, program, uarch);
        CycleFabric polled(config, program, uarch);
        if (workload) {
            workload->preload(plain.memory());
            workload->preload(polled.memory());
        }
        const RunStatus status = plain.run(options);
        options.stop = source.token();
        ASSERT_EQ(polled.run(options), status) << what;
        ASSERT_EQ(observeFabric(polled), observeFabric(plain)) << what;
        EXPECT_EQ(polled.hangReport(), plain.hangReport()) << what;
    };

    const std::vector<PeConfig> uarchs = {
        {allShapes()[0], false, false, false}, // TDX
        {allShapes()[7], false, false, false}, // T|D|X1|X2
        {allShapes()[7], true, true, true},    // T|D|X1|X2 +P+N+Q
    };
    for (const Workload &workload : allWorkloads(WorkloadSizes::small())) {
        for (const PeConfig &uarch : uarchs) {
            expect_same(workload.config, workload.program, uarch,
                        &workload, kDefaultMaxCycles,
                        workload.name + " / " + uarch.name());
        }
    }

    // The small workloads all finish before the first poll after the
    // immediate one; a never-halting loop crosses several.
    const Program loop = assemble(
        "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: add %r1, %r1, %r0; set %p = ZZZZZZZ0;\n");
    FabricBuilder builder(loop.params, 1);
    const FabricConfig config = builder.build();
    for (const PeConfig &uarch : uarchs) {
        expect_same(config, loop, uarch, nullptr,
                    3 * kStopCheckInterval + 123, "loop / " + uarch.name());
    }
}

/** Predicate pattern or update of width @p bits, MSB left: bit i is
 *  @p fill unless @p chars names it. */
std::string
predString(unsigned bits, char fill,
           const std::vector<std::pair<unsigned, char>> &chars)
{
    std::string text(bits, fill);
    for (const auto &[bit, c] : chars)
        text[bits - 1 - bit] = c;
    return text;
}

TEST(RunAhead, MemoPastItsNodeCapMatchesPerCycleStepLoop)
{
    // A 13-bit ripple counter held in predicates, counted up three
    // times: one pass walks 8,192 control states, twice the memo's
    // node cap. Each pass ends by storing through the write port, and
    // the next starts behind a datapath predicate write that (without
    // +P) drains the pipeline, so every pass allocates in-flight
    // entries alike. The first pass fills the memo and runs on through
    // step(); the later ones replay the recorded states, then step on
    // from the memo's frontier, looking their state up again every
    // FabricMemo::kEngageAfter cycles. Results match a bare step() loop.
    constexpr unsigned kBits = 13;
    static_assert((std::size_t{1} << kBits) >= 2 * FabricMemo::kNodeCap);
    ArchParams params;
    params.numPreds = 20;
    params.numInstructions = 32;
    const unsigned width = params.numPreds;
    const unsigned carried = kBits, stored = 14, written = 15, done = 16,
                   checked = 17, go = 18;
    auto when = [&](std::vector<std::pair<unsigned, char>> bits) {
        return "when %p == " + predString(width, 'X', bits) + ": ";
    };
    auto set = [&](std::vector<std::pair<unsigned, char>> bits) {
        return "; set %p = " + predString(width, 'Z', bits) + ";\n";
    };
    std::string source;
    for (unsigned i = 0; i < kBits; ++i) {
        std::vector<std::pair<unsigned, char>> pattern = {
            {i, '0'}, {carried, '0'}, {go, '1'}};
        std::vector<std::pair<unsigned, char>> update = {{i, '1'}};
        for (unsigned low = 0; low < i; ++low) {
            pattern.push_back({low, '1'});
            update.push_back({low, '0'});
        }
        source += when(pattern) + "add %r0, %r0, #1" + set(update);
    }
    std::vector<std::pair<unsigned, char>> full = {{carried, '0'},
                                                   {go, '1'}};
    for (unsigned low = 0; low < kBits; ++low)
        full.push_back({low, '1'});
    source += when(full) + "add %r1, %r1, #1" + set({{carried, '1'}});
    source += when({{carried, '1'}, {stored, '0'}}) + "mov %o1.0, %r1" +
              set({{stored, '1'}});
    source += when({{stored, '1'}, {written, '0'}}) + "mov %o2.0, %r0" +
              set({{written, '1'}});
    source += when({{written, '1'}, {checked, '0'}}) + "uge %p" +
              std::to_string(done) + ", %r1, #3" + set({{checked, '1'}});
    source += when({{checked, '1'}, {done, '0'}}) + "nop; set %p = " +
              predString(width, '0', {}) + ";\n";
    source += when({{checked, '1'}, {done, '1'}}) + "halt;\n";
    source += when({{checked, '0'}, {go, '0'}}) + "mov %p" +
              std::to_string(go) + ", #1;\n";
    const Program program = assemble(source, params);
    FabricBuilder builder(params, 1);
    builder.addWritePort(0, 1, 2); // %o1 = store address, %o2 = data
    const FabricConfig config = builder.build();

    std::vector<PeConfig> uarchs = allConfigs();
    uarchs.push_back({allShapes()[7], true, false, true}); // +P+N
    uarchs.push_back({allShapes()[7], true, true, true});  // +P+N+Q
    for (const PeConfig &uarch : uarchs) {
        CycleFabric stepped(config, program, uarch);
        while (!allHalted(stepped) && stepped.now() < kDefaultMaxCycles)
            stepped.step();
        ASSERT_TRUE(allHalted(stepped)) << uarch.name();
        EXPECT_EQ(stepped.memory().read(3), 3 * ((1u << kBits) - 1))
            << uarch.name();

        CycleFabric ran(config, program, uarch);
        ASSERT_EQ(ran.run(), RunStatus::Halted) << uarch.name();
        EXPECT_EQ(observeFabric(ran), observeFabric(stepped))
            << uarch.name();
        if (!uarch.predictPredicates) {
            EXPECT_GT(ran.stepStats().peStepsReplayed, (1u << kBits) / 4)
                << uarch.name();
        }
    }
}

TEST(RunAhead, EpisodesEndingNearTheMemoThresholdMatchPerCycleStepLoop)
{
    // Pass k loads k mod 64 into a 6-bit predicate counter (one srl
    // per bit), counts it up to overflow one cycle per count, and
    // stores k + 1 through the write port. Written for the lone-PE
    // memo, whose episodes the stores ended near its threshold; the
    // fabric memo follows the PE through the stores, so every pass
    // replays. Results match a bare step() loop, and the memo replays
    // exactly as often as when the fabric memo was written: a change to
    // when it engages or what it records must re-measure the count.
    // Runs cut off by a budget within a cycle or two of
    // FabricMemo::kEngageAfter end where the step loop does, and replay
    // nothing before the memo engages.
    constexpr unsigned kBits = 6;
    constexpr unsigned kPasses = 70;
    ArchParams params;
    params.numPreds = 16;
    params.numInstructions = 32;
    const unsigned width = params.numPreds;
    const unsigned carried = kBits, stage0 = 7, stored = 10, written = 11,
                   done = 12, checked = 13;
    using Bits = std::vector<std::pair<unsigned, char>>;
    auto when = [&](const Bits &bits) {
        return "when %p == " + predString(width, 'X', bits) + ": ";
    };
    auto set = [&](const Bits &bits) {
        return "; set %p = " + predString(width, 'Z', bits) + ";\n";
    };
    // A 3-bit stage: 0-5 load counter bit k, 6 counts.
    auto stage = [&](unsigned k, Bits more) {
        for (unsigned b = 0; b < 3; ++b)
            more.push_back({stage0 + b, ((k >> b) & 1) ? '1' : '0'});
        return more;
    };
    std::string source;
    for (unsigned k = 0; k < kBits; ++k) {
        source += when(stage(k, {{carried, '0'}})) + "srl %p" +
                  std::to_string(k) + ", %r1, #" + std::to_string(k) +
                  set(stage(k + 1, {}));
    }
    Bits full = {{carried, '0'}};
    for (unsigned i = 0; i < kBits; ++i) {
        Bits pattern = {{i, '0'}, {carried, '0'}};
        Bits update = {{i, '1'}};
        for (unsigned low = 0; low < i; ++low) {
            pattern.push_back({low, '1'});
            update.push_back({low, '0'});
        }
        source += when(stage(kBits, pattern)) + "nop" + set(update);
        full.push_back({i, '1'});
    }
    source += when(stage(kBits, full)) + "add %r1, %r1, #1" +
              set({{carried, '1'}});
    source += when({{carried, '1'}, {stored, '0'}}) + "mov %o1.0, %r1" +
              set({{stored, '1'}});
    source += when({{stored, '1'}, {written, '0'}}) + "mov %o2.0, %r1" +
              set({{written, '1'}});
    source += when({{written, '1'}, {checked, '0'}}) + "uge %p" +
              std::to_string(done) + ", %r1, #" + std::to_string(kPasses) +
              set({{checked, '1'}});
    source += when({{checked, '1'}, {done, '0'}}) + "nop; set %p = " +
              predString(width, '0', {}) + ";\n";
    source += when({{checked, '1'}, {done, '1'}}) + "halt;\n";
    const Program program = assemble(source, params);
    FabricBuilder builder(params, 1);
    builder.addWritePort(0, 1, 2); // %o1 = store address, %o2 = data
    const FabricConfig config = builder.build();

    std::uint64_t replayed = 0;
    for (const PeConfig &uarch : allConfigs()) {
        const std::string what = uarch.name();
        CycleFabric stepped(config, program, uarch);
        while (!allHalted(stepped) && stepped.now() < kDefaultMaxCycles)
            stepped.step();
        ASSERT_TRUE(allHalted(stepped)) << what;
        EXPECT_EQ(stepped.memory().read(kPasses), kPasses) << what;

        CycleFabric ran(config, program, uarch);
        ASSERT_EQ(ran.run(), RunStatus::Halted) << what;
        EXPECT_EQ(observeFabric(ran), observeFabric(stepped)) << what;
        EXPECT_GT(ran.stepStats().peStepsReplayed, 0u) << what;
        replayed += ran.stepStats().peStepsReplayed;
    }
    // Over all 32 uarchs: the count the memo gave when this test was
    // last measured. A change to when the memo engages or what it
    // records must re-measure it.
    EXPECT_EQ(replayed, 56'258u);

    const PeConfig tdx{allShapes()[0], false, false, false};
    for (Cycle budget = FabricMemo::kEngageAfter - 2;
         budget <= FabricMemo::kEngageAfter + 2; ++budget) {
        CycleFabric ran(config, program, tdx);
        EXPECT_EQ(ran.run(FabricRunOptions{budget, 10'000, {}}),
                  RunStatus::StepLimit);
        EXPECT_EQ(ran.stepStats().peStepsReplayed, 0u) << budget;
        CycleFabric stepped(config, program, tdx);
        while (stepped.now() < budget)
            stepped.step();
        EXPECT_EQ(observeFabric(ran), observeFabric(stepped)) << budget;
    }
}

TEST(RunAhead, MemoKeysQueuesDeeperThanAByte)
{
    // 300 tokens wait on a channel nobody drains while the producer
    // then loops alone: the memo's key must hold an occupancy past 255.
    ArchParams params;
    params.queueCapacity = 512;
    const Program program = assemble(
        "when %p == XXXXXX00: add %o0.0, %r0, #0; set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: add %r0, %r0, #1; set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: ult %p7, %r0, #300; set %p = ZZZZZZ11;\n"
        "when %p == 1XXXXX11: nop; set %p = ZZZZZZ00;\n"
        "when %p == 0XXXX011: add %r1, %r1, #3; set %p = ZZZZZ111;\n"
        "when %p == XXXX0111: ult %p6, %r1, #600; set %p = ZZZZ1ZZZ;\n"
        "when %p == X1XX1X11: nop; set %p = ZZZZ0011;\n"
        "when %p == X0XX1X11: halt;\n",
        params);
    FabricBuilder builder(params, 2);
    builder.connect(0, 0, 1, 0);
    const FabricConfig config = builder.build();
    for (const PeConfig &uarch : {PeConfig{allShapes()[0], false, false,
                                           false},
                                  PeConfig{allShapes()[7], true, true,
                                           true}}) {
        CycleFabric ran(config, program, uarch);
        const RunStatus status = ran.run();
        CycleFabric stepped(config, program, uarch);
        while (stepped.now() < ran.now())
            stepped.step();
        EXPECT_EQ(observeFabric(ran), observeFabric(stepped))
            << uarch.name();
        EXPECT_EQ(ran.channel(0).size(), 300u) << uarch.name();
        EXPECT_TRUE(ran.pe(0).halted()) << uarch.name();
        EXPECT_NE(status, RunStatus::Halted) << uarch.name();
        EXPECT_GT(ran.stepStats().peStepsReplayed, 0u) << uarch.name();
    }
}

/** How a fabric ended when a step trapped. */
struct TrapObservation
{
    std::string message;
    FabricObservation fabric;

    bool operator==(const TrapObservation &) const = default;
};

template <typename Body>
TrapObservation
observeTrap(CycleFabric &fabric, Body body)
{
    TrapObservation obs;
    try {
        body();
        ADD_FAILURE() << "no trap";
    } catch (const FatalError &error) {
        obs.message = error.what();
    }
    obs.fabric = observeFabric(fabric);
    return obs;
}

TEST(RunAhead, TrapDuringMemoReplayMatchesPerCycleStepLoop)
{
    // A loop whose scratchpad address walks past the end after far
    // more than FabricMemo::kEngageAfter iterations: run() is replaying
    // recorded cycles when the out-of-bounds access comes up, and must
    // leave the message, clock and counters a bare step() loop leaves.
    // The load variant traps in the cycle's branch (a predicate write).
    // The stride variant's ninth store is out of bounds, so it traps
    // among the plain steps before the memo engages.
    const ArchParams params;
    struct TrapProgram
    {
        const char *name;
        Program program;
        bool replays; ///< Traps while the memo is replaying.
    };
    const std::vector<TrapProgram> programs = {
        {"store",
         assemble("when %p == XXXXXXX0: ssw %r0, %r0; set %p = ZZZZZZZ1;\n"
                  "when %p == XXXXXXX1: add %r0, %r0, #1; "
                  "set %p = ZZZZZZZ0;\n",
                  params),
         true},
        {"load into a predicate",
         assemble("when %p == XXXXXXX0: lsw %p7, %r0, #0; "
                  "set %p = ZZZZZZZ1;\n"
                  "when %p == 0XXXXXX1: add %r0, %r0, #1; "
                  "set %p = ZZZZZZZ0;\n"
                  "when %p == 1XXXXXX1: halt;\n",
                  params),
         true},
        {"store with a stride of 128",
         assemble("when %p == XXXXXXX0: ssw %r0, %r0; set %p = ZZZZZZZ1;\n"
                  "when %p == XXXXXXX1: add %r0, %r0, #128; "
                  "set %p = ZZZZZZZ0;\n",
                  params),
         false},
    };
    FabricBuilder builder(params, 1);
    const FabricConfig config = builder.build();
    for (const auto &[name, program, replays] : programs) {
        for (const PeConfig &uarch : allConfigs()) {
            const std::string what = std::string(name) + " / " + uarch.name();
            CycleFabric ran(config, program, uarch);
            const TrapObservation via_run =
                observeTrap(ran, [&] { ran.run(); });

            CycleFabric stepped(config, program, uarch);
            const TrapObservation via_step = observeTrap(stepped, [&] {
                while (stepped.now() < kDefaultMaxCycles)
                    stepped.step();
            });
            EXPECT_NE(via_run.message.find("out of bounds"),
                      std::string::npos)
                << what << ": " << via_run.message;
            EXPECT_EQ(via_run, via_step) << what;
            if (replays) {
                EXPECT_GT(via_run.fabric.counters.at(0).retired,
                          10 * FabricMemo::kEngageAfter)
                    << what;
                EXPECT_GT(ran.stepStats().peStepsReplayed, 0u) << what;
            } else {
                EXPECT_LT(via_run.fabric.cycles,
                          Cycle{FabricMemo::kEngageAfter})
                    << what;
                EXPECT_EQ(ran.stepStats().peStepsReplayed, 0u) << what;
            }
        }
    }
}

TEST(RunAhead, ReplayedStepsCountOnlyWhenTheMemoRuns)
{
    // The control memo replays most of full-size gcd. A trace sink or
    // a fault injector turns it off, so nothing is replayed; results
    // never move.
    const Workload gcd = makeGcd(WorkloadSizes::full());
    const PeConfig uarch{allShapes()[7], false, false, false}; // T|D|X1|X2
    ASSERT_EQ(uarch.name(), "T|D|X1|X2");

    CycleFabric plain(gcd.config, gcd.program, uarch);
    gcd.preload(plain.memory());
    ASSERT_EQ(plain.run(), RunStatus::Halted);
    const FabricStepStats steps = plain.stepStats();
    EXPECT_GT(steps.peStepsReplayed, 0u);
    EXPECT_LE(steps.peStepsReplayed, steps.peStepsExecuted);
    EXPECT_GT(steps.peStepsReplayed, steps.peStepsExecuted / 2);

    // Full-size udiv: two PEs, whose pushes and pops ended every
    // episode of the lone-PE memo after 148.5 cycles on average. The
    // fabric memo follows them across the channel traffic and replays
    // well over half of the steps.
    const Workload udiv = makeUdiv(WorkloadSizes::full());
    CycleFabric divided(udiv.config, udiv.program, uarch);
    udiv.preload(divided.memory());
    ASSERT_EQ(divided.run(), RunStatus::Halted);
    const FabricStepStats udiv_steps = divided.stepStats();
    EXPECT_LE(udiv_steps.peStepsReplayed, udiv_steps.peStepsExecuted);
    EXPECT_GT(udiv_steps.peStepsReplayed * 10,
              udiv_steps.peStepsExecuted * 6);

    NullSink sink;
    CycleFabric traced(gcd.config, gcd.program, uarch);
    traced.setTraceSink(&sink);
    gcd.preload(traced.memory());
    ASSERT_EQ(traced.run(), RunStatus::Halted);
    EXPECT_EQ(traced.stepStats().peStepsReplayed, 0u);
    EXPECT_EQ(observeFabric(traced), observeFabric(plain));

    // A plan whose one fault never fires leaves results unchanged.
    FaultInjector injector(FaultPlan::parse("seed=1;mispredict:pe0@p0"));
    CycleFabric injected(gcd.config, gcd.program, uarch, &injector);
    gcd.preload(injected.memory());
    ASSERT_EQ(injected.run(), RunStatus::Halted);
    EXPECT_EQ(injected.stepStats().peStepsReplayed, 0u);
    EXPECT_EQ(observeFabric(injected), observeFabric(plain));
}

TEST(RunAhead, MemoryPortTrapDuringReplayMatchesPerCycleStepLoop)
{
    // A loop that loads (or stores) through a memory port at an address
    // that walks past the end of memory after far more than
    // FabricMemo::kEngageAfter iterations. The access traps in the
    // port, after every PE has stepped the cycle, while run() is
    // replaying: it must leave the message, clock and counters a bare
    // step() loop leaves. In the branching load, each iteration's
    // superblock starts at the branch (the only node with a check) and
    // the port accepts the address some cycles later, so the trapping
    // cycle falls inside a superblock.
    const ArchParams params;
    const std::vector<std::pair<const char *, Program>> programs = {
        {"branching load",
         assemble("when %p == XXXXX000: ult %p7, %r0, #1; "
                  "set %p = ZZZZZ001;\n"
                  "when %p == XXXXX001: nop; set %p = ZZZZZ010;\n"
                  "when %p == XXXXX010: add %o0.0, %r0, #0; "
                  "set %p = ZZZZZ011;\n"
                  "when %p == XXXXX011 with %i0.0: mov %r1, %i0; deq %i0; "
                  "set %p = ZZZZZ100;\n"
                  "when %p == XXXXX100: add %r0, %r0, #64; "
                  "set %p = ZZZZZ000;\n",
                  params)},
        {"load",
         assemble("when %p == XXXXXX00: add %o0.0, %r0, #0; "
                  "set %p = ZZZZZZ01;\n"
                  "when %p == XXXXXX01 with %i0.0: mov %r1, %i0; deq %i0; "
                  "set %p = ZZZZZZ10;\n"
                  "when %p == XXXXXX10: add %r0, %r0, #64; "
                  "set %p = ZZZZZZ00;\n",
                  params)},
        {"store",
         assemble("when %p == XXXXXX00: add %o1.0, %r0, #0; "
                  "set %p = ZZZZZZ01;\n"
                  "when %p == XXXXXX01: mov %o2.0, %r0; set %p = ZZZZZZ10;\n"
                  "when %p == XXXXXX10: add %r0, %r0, #64; "
                  "set %p = ZZZZZZ00;\n",
                  params)},
    };
    FabricBuilder builder(params, 1);
    builder.addReadPort(0, 0, 0);
    builder.addWritePort(0, 1, 2);
    const FabricConfig config = builder.build();
    for (const auto &[name, program] : programs) {
        for (const PeConfig &uarch : allConfigs()) {
            const std::string what = std::string(name) + " / " + uarch.name();
            CycleFabric ran(config, program, uarch);
            const TrapObservation via_run =
                observeTrap(ran, [&] { ran.run(); });

            CycleFabric stepped(config, program, uarch);
            const TrapObservation via_step = observeTrap(stepped, [&] {
                while (stepped.now() < kDefaultMaxCycles)
                    stepped.step();
            });
            EXPECT_NE(via_run.message.find("out of bounds"),
                      std::string::npos)
                << what << ": " << via_run.message;
            EXPECT_EQ(via_run, via_step) << what;
            const FabricStepStats steps = ran.stepStats();
            EXPECT_GT(steps.peStepsReplayed, steps.peStepsExecuted / 2)
                << what;
            EXPECT_GT(steps.cyclesReplayed, 2 * steps.replayLookups) << what;
        }
    }
}

TEST(FabricMemo, ReplaysMostStepsOfFullSizeMultiPeRows)
{
    // A guard against a change that silently disengages the memo: on
    // TDX the full-size dot_product (3 PEs) and stream (2 PEs) replay
    // at least 90% of their PE steps (99.8% and 99.9% when the memo
    // was written).
    const PeConfig tdx{allShapes()[0], false, false, false};
    for (const Workload &workload :
         {makeDotProduct(WorkloadSizes::full()),
          makeStream(WorkloadSizes::full())}) {
        CycleFabric fabric(workload.config, workload.program, tdx);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run(), RunStatus::Halted) << workload.name;
        const FabricStepStats steps = fabric.stepStats();
        EXPECT_GE(steps.peStepsReplayed * 10, steps.peStepsExecuted * 9)
            << workload.name << ": " << steps.peStepsReplayed << " of "
            << steps.peStepsExecuted << " steps replayed";
    }
}

} // namespace
} // namespace tia
