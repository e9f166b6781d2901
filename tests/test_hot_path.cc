/**
 * @file
 * Equivalence tests for the hot-loop optimizations: the compiled,
 * predicate-first trigger-descriptor scheduler fast path, the
 * ring-buffer TaggedQueue, the fabric's idle-PE sleep/wake machinery
 * and its lone-PE run-ahead. Every optimization must be invisible to
 * the architecture — identical schedule outcomes, identical queue
 * semantics, bit-identical cycle counts, counters and hang reports
 * with sleep on and off, and with run() against a bare step() loop.
 */

#include <algorithm>
#include <deque>
#include <random>
#include <utility>

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "exec/stop_token.hh"
#include "sim/fault.hh"
#include "sim/queue.hh"
#include "sim/scheduler.hh"
#include "uarch/cycle_fabric.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia {
namespace {

// ---------------------------------------------------------------------
// Scheduler fast path vs reference, over random instructions & status.
// ---------------------------------------------------------------------

constexpr unsigned kQueues = 4;
constexpr unsigned kPreds = 8;

/** Fixed queue status backing both the view and the packed words. */
struct SyntheticStatus
{
    std::array<unsigned, kQueues> occupancy{};
    std::array<Tag, kQueues> headTag{};
    std::array<bool, kQueues> outputSpace{};
};

class SyntheticView : public QueueStatusView
{
  public:
    explicit SyntheticView(const SyntheticStatus &s) : s_(s) {}

    unsigned
    inputOccupancy(unsigned q) const override
    {
        return s_.occupancy[q];
    }

    std::optional<Tag>
    inputHeadTag(unsigned q) const override
    {
        if (s_.occupancy[q] == 0)
            return std::nullopt;
        return s_.headTag[q];
    }

    bool
    outputHasSpace(unsigned q) const override
    {
        return s_.outputSpace[q];
    }

  private:
    const SyntheticStatus &s_;
};

QueueStatusWords
packStatus(const SyntheticStatus &s)
{
    QueueStatusWords words;
    for (unsigned q = 0; q < kQueues; ++q) {
        if (s.occupancy[q] > 0) {
            words.inputReady |= std::uint32_t{1} << q;
            words.headTag[q] = s.headTag[q];
        }
        if (s.outputSpace[q])
            words.outputSpace |= std::uint32_t{1} << q;
    }
    return words;
}

Instruction
randomInstruction(std::mt19937 &rng)
{
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };

    Instruction inst;
    inst.trigger.valid = pick(10) != 0;
    for (unsigned p = 0; p < kPreds; ++p) {
        switch (pick(4)) {
          case 0:
            inst.trigger.predOn |= std::uint64_t{1} << p;
            break;
          case 1:
            inst.trigger.predOff |= std::uint64_t{1} << p;
            break;
          default:
            break;
        }
    }
    // Up to MaxCheck (2) distinct checked queues.
    const unsigned checks = pick(3);
    std::array<unsigned, kQueues> order = {0, 1, 2, 3};
    std::shuffle(order.begin(), order.end(), rng);
    for (unsigned c = 0; c < checks; ++c) {
        QueueCheck check;
        check.queue = static_cast<std::uint8_t>(order[c]);
        check.tag = static_cast<Tag>(pick(4));
        check.negate = pick(2) != 0;
        inst.trigger.queueChecks.push_back(check);
    }
    for (auto &src : inst.srcs) {
        switch (pick(4)) {
          case 0:
            src = {SrcType::InputQueue, static_cast<std::uint8_t>(pick(kQueues))};
            break;
          case 1:
            src = {SrcType::Reg, static_cast<std::uint8_t>(pick(4))};
            break;
          case 2:
            src = {SrcType::Immediate, 0};
            break;
          default:
            src = {SrcType::None, 0};
            break;
        }
    }
    switch (pick(4)) {
      case 0:
        inst.dst = {DstType::OutputQueue, static_cast<std::uint8_t>(pick(kQueues))};
        break;
      case 1:
        inst.dst = {DstType::Reg, 0};
        break;
      default:
        inst.dst = {DstType::None, 0};
        break;
    }
    std::shuffle(order.begin(), order.end(), rng);
    const unsigned deqs = pick(3);
    for (unsigned d = 0; d < deqs; ++d)
        inst.dequeues.push_back(static_cast<std::uint8_t>(order[d]));
    return inst;
}

TEST(SchedulerFastPath, MatchesReferenceOnRandomPrograms)
{
    std::mt19937 rng(0xC0FFEE);
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };

    for (unsigned trial = 0; trial < 2000; ++trial) {
        std::vector<Instruction> program;
        const unsigned size = 1 + pick(16);
        for (unsigned i = 0; i < size; ++i)
            program.push_back(randomInstruction(rng));
        const std::vector<TriggerDesc> descs = compileTriggerDescs(program);

        SyntheticStatus status;
        for (unsigned q = 0; q < kQueues; ++q) {
            status.occupancy[q] = pick(4);
            status.headTag[q] = static_cast<Tag>(pick(4));
            status.outputSpace[q] = pick(2) != 0;
        }
        const SyntheticView view(status);
        const QueueStatusWords words = packStatus(status);

        for (unsigned sample = 0; sample < 8; ++sample) {
            const std::uint64_t preds = rng() & ((1u << kPreds) - 1);
            // pendingPreds is nonzero only without prediction; bias
            // towards zero as in real runs, but cover the hazard path.
            const std::uint64_t pending =
                (sample % 3 == 0) ? (rng() & ((1u << kPreds) - 1)) : 0;

            const ScheduleResult ref =
                schedule(program, preds, pending, view);
            unsigned status_calls = 0;
            const ScheduleResult fast =
                scheduleLazy(descs, preds, pending, [&] {
                    ++status_calls;
                    return words;
                });
            ASSERT_EQ(static_cast<int>(fast.outcome),
                      static_cast<int>(ref.outcome))
                << "trial " << trial;
            ASSERT_EQ(fast.index, ref.index) << "trial " << trial;

            // Predicate-first: status is asked for at most once, and
            // never when no predicate-eligible trigger needs a queue.
            ASSERT_LE(status_calls, 1u) << "trial " << trial;
            bool needs_queues = false;
            for (const TriggerDesc &desc : descs) {
                const std::uint64_t fail =
                    (desc.predOn & ~preds) | (desc.predOff & preds);
                if (desc.valid && (fail & ~pending) == 0 &&
                    (desc.inputNeed | desc.outputNeed) != 0) {
                    needs_queues = true;
                }
            }
            if (!needs_queues) {
                ASSERT_EQ(status_calls, 0u) << "trial " << trial;
            }

            // Condition evaluation agrees instruction by instruction.
            for (unsigned i = 0; i < size; ++i) {
                if (!program[i].trigger.valid)
                    continue;
                ASSERT_EQ(queueConditionsHold(descs[i], words),
                          queueConditionsHold(program[i], view))
                    << "trial " << trial << " inst " << i;
            }
        }
    }
}

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
    unsigned snapshot = 0;
    unsigned pops = 0;
    std::uint64_t totalPushes = 0;
    std::uint64_t totalPops = 0;

    bool canPush() const { return entries.size() + pending.size() < capacity; }

    void
    push(const Token &t)
    {
        pending.push_back(t);
        ++totalPushes;
    }

    Token
    pop()
    {
        Token t = entries.front();
        entries.pop_front();
        ++totalPops;
        ++pops;
        return t;
    }

    void
    beginCycle()
    {
        snapshot = static_cast<unsigned>(entries.size());
        pops = 0;
    }

    void
    commit()
    {
        for (const auto &t : pending)
            entries.push_back(t);
        pending.clear();
    }

    void
    pushImmediate(const Token &t)
    {
        entries.push_back(t);
        ++totalPushes;
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
            switch (pick(6)) {
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
                queue.beginCycle();
                model.beginCycle();
                break;
              case 3:
                queue.commit();
                model.commit();
                break;
              case 4: // immediate push (functional mode: no pending)
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
                const auto got = queue.peek(depth);
                if (depth < model.entries.size()) {
                    ASSERT_TRUE(got.has_value());
                    ASSERT_EQ(*got, model.entries[depth]);
                } else {
                    ASSERT_FALSE(got.has_value());
                }
                break;
              }
            }
            ASSERT_EQ(queue.size(), model.entries.size());
            ASSERT_EQ(queue.empty(), model.entries.empty());
            ASSERT_EQ(queue.snapshotSize(), model.snapshot);
            ASSERT_EQ(queue.popsThisCycle(), model.pops);
            ASSERT_EQ(queue.pendingPushes(), model.pending.size());
            ASSERT_EQ(queue.hasPendingPush(), !model.pending.empty());
            ASSERT_EQ(queue.totalPushes(), model.totalPushes);
            ASSERT_EQ(queue.totalPops(), model.totalPops);
        }
        EXPECT_EQ(log.progressEvents(), model.totalPushes + model.totalPops);
        if (model.totalPushes > 0) {
            ASSERT_EQ(log.pushedChannels().size(), 1u);
            EXPECT_EQ(log.pushedChannels().front(), 7u);
        }
        if (model.totalPushes + model.totalPops > 0) {
            ASSERT_EQ(log.dirtyChannels().size(), 1u);
            EXPECT_EQ(log.dirtyChannels().front(), 7u);
            EXPECT_TRUE(log.dirty(7));
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
// Idle-PE sleep/wake: bit-identical runs with the optimization off.
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

RunObservation
observeRun(const Workload &workload, const PeConfig &uarch, bool sleep,
           FaultInjector *injector = nullptr)
{
    CycleFabric fabric(workload.config, workload.program, uarch, injector);
    fabric.setIdleSleepEnabled(sleep);
    workload.preload(fabric.memory());

    RunObservation obs;
    obs.status = fabric.run();
    obs.cycles = fabric.now();
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        obs.counters.push_back(fabric.pe(pe).counters());
        obs.regs.push_back(fabric.pe(pe).regs());
        obs.preds.push_back(fabric.pe(pe).preds());
    }
    obs.report = fabric.hangReport();
    obs.memory = fabric.memory().snapshot();

    // Host-side accounting must balance: every architectural PE cycle
    // was either executed or skipped-and-accounted.
    const FabricStepStats steps = fabric.stepStats();
    std::uint64_t pe_cycles = 0;
    for (const auto &c : obs.counters)
        pe_cycles += c.cycles;
    EXPECT_EQ(steps.peStepsExecuted + steps.peStepsSkipped, pe_cycles);
    if (!sleep || injector != nullptr)
        EXPECT_EQ(steps.peStepsSkipped, 0u);
    return obs;
}

TEST(IdlePeSleep, WorkloadSuiteBitIdentical)
{
    const std::vector<Workload> workloads =
        allWorkloads(WorkloadSizes::small());
    const std::vector<PeConfig> uarchs = {
        {allShapes()[0], false, false, false}, // TDX
        {allShapes()[0], false, true, false},  // TDX +Q
        {allShapes()[7], true, true, false},   // T|D|X1|X2 +P+Q
        {allShapes()[7], true, true, true},    // T|D|X1|X2 +P+N+Q
    };
    for (const Workload &workload : workloads) {
        for (const PeConfig &uarch : uarchs) {
            const RunObservation with = observeRun(workload, uarch, true);
            const RunObservation without =
                observeRun(workload, uarch, false);
            ASSERT_EQ(with, without)
                << workload.name << " / " << uarch.name();
            ASSERT_EQ(with.status, RunStatus::Halted) << workload.name;
        }
    }
}

TEST(IdlePeSleep, SkipsStepsOnSparseFabrics)
{
    // One worker plus many programless PEs: the sleep list should
    // elide nearly all of the idle PEs' steps while leaving the
    // worker's results untouched.
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

    const PeConfig uarch{allShapes()[0], false, false, false};
    CycleFabric fabric(config, workload.program, uarch);
    workload.preload(fabric.memory());
    // Idle PEs never halt, so the run ends by quiescence after the
    // worker is done.
    ASSERT_EQ(fabric.run(), RunStatus::Quiescent);
    EXPECT_TRUE(fabric.pe(workload.workerPe).halted());

    const FabricStepStats steps = fabric.stepStats();
    EXPECT_GT(steps.peStepsSkipped, steps.peStepsExecuted);
    // Idle PEs still account one no-trigger cycle per fabric cycle.
    for (unsigned pe = config.numPes - 15; pe < total_pes; ++pe) {
        EXPECT_EQ(fabric.pe(pe).counters().cycles,
                  fabric.pe(pe).counters().noTrigger);
    }
}

TEST(IdlePeSleep, QuiescentStarvationIdentical)
{
    // A PE waiting forever on a never-fed input: with sleep it parks
    // immediately, yet quiescence timing, diagnosis and counters must
    // not move.
    ArchParams params;
    const Program program = assemble(
        "when %p == XXXXXXX0 with %i0.1: add %r0, %r0, %i0; deq %i0;\n",
        params);
    FabricBuilder builder(params, 2);
    builder.connect(1, 0, 0, 0); // feed PE0 from PE1, which never fires
    const FabricConfig config = builder.build();

    auto observe = [&](bool sleep) {
        CycleFabric fabric(config, program, {allShapes()[0], false, false,
                                             false});
        fabric.setIdleSleepEnabled(sleep);
        const RunStatus status = fabric.run();
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
    const RunObservation with = observe(true);
    const RunObservation without = observe(false);
    ASSERT_EQ(with, without);
    EXPECT_EQ(with.status, RunStatus::Quiescent);
}

TEST(IdlePeSleep, FaultInjectionDisablesSleepAndStaysIdentical)
{
    // Stuck-status windows open and close without queue events, so a
    // fabric with an injector must not park PEs — and two runs of the
    // same plan stay deterministic regardless of the sleep knob.
    const Workload workload = makeGcd(WorkloadSizes::small());
    const PeConfig uarch{allShapes()[7], true, false, true};
    const FaultPlan plan =
        FaultPlan::parse("seed=42;mispredict:pe0@p0.05");

    FaultInjector a(plan);
    FaultInjector b(plan);
    const RunObservation with = observeRun(workload, uarch, true, &a);
    const RunObservation without = observeRun(workload, uarch, false, &b);
    ASSERT_EQ(with, without);
    EXPECT_GT(with.counters.at(workload.workerPe).faultsInjected, 0u);
}

/**
 * The counter-integrity contract (uarch/counters.hh): every PE cycle
 * lands in exactly one attribution bucket, except the cycles claimed
 * by instructions still in flight. Must hold on EVERY exit path —
 * including budget and quiescence exits where parked PEs have
 * unsettled sleep debt at the moment the run stops.
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
}

TEST(IdlePeSleep, CountersSettleOnEveryExitPath)
{
    // A sparse fabric — one gcd worker plus 15 programless PEs that
    // park immediately — driven to each of the run() exit reasons.
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
        // run stops mid-flight with every idle PE still parked.
        CycleFabric fabric(config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run({50, 10'000}), RunStatus::StepLimit);
        expectBucketIntegrity(fabric, "step-limit");
    }
    {
        // Larger budget, same exit, after the worker made progress.
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
// Trigger resolution: the mask fast path must be invisible next to the
// QueueStatusView reference scheduler.
// ---------------------------------------------------------------------

// The two differentials below keep the suite and test names they had
// while a verdict memo sat in front of the fast path.

/** One run with the scheduler flavour pinned. */
RunObservation
observeScheduler(const Workload &workload, const PeConfig &uarch,
                 bool reference, FaultInjector *injector = nullptr)
{
    CycleFabric fabric(workload.config, workload.program, uarch, injector);
    fabric.setUseReferenceScheduler(reference);
    workload.preload(fabric.memory());

    RunObservation obs;
    obs.status = fabric.run();
    obs.cycles = fabric.now();
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        obs.counters.push_back(fabric.pe(pe).counters());
        obs.regs.push_back(fabric.pe(pe).regs());
        obs.preds.push_back(fabric.pe(pe).preds());
    }
    obs.report = fabric.hangReport();
    obs.memory = fabric.memory().snapshot();
    return obs;
}

TEST(ResolutionCache, WorkloadSuiteBitIdenticalToReferenceScheduler)
{
    const std::vector<Workload> workloads =
        allWorkloads(WorkloadSizes::small());
    const std::vector<PeConfig> uarchs = {
        {allShapes()[0], false, false, false}, // TDX
        {allShapes()[0], false, true, false},  // TDX +Q
        {allShapes()[7], true, true, false},   // T|D|X1|X2 +P+Q
        {allShapes()[7], true, true, true},    // T|D|X1|X2 +P+N+Q
    };
    for (const Workload &workload : workloads) {
        for (const PeConfig &uarch : uarchs) {
            ASSERT_EQ(observeScheduler(workload, uarch, false),
                      observeScheduler(workload, uarch, true))
                << workload.name << " / " << uarch.name();
        }
    }
}

TEST(ResolutionCache, FaultInjectionDisarmsIncrementalPath)
{
    // Stuck-status windows, drops and corruptions change the queue view
    // without the fabric's channel events; both schedulers must read
    // them the same way.
    const Workload workload = makeGcd(WorkloadSizes::small());
    const PeConfig uarch{allShapes()[0], false, true, false};
    const FaultPlan plan = FaultPlan::parse(
        "seed=99;drop:ch0@p0.05;corrupt:ch0@p0.02,mask=0x4;"
        "stuckempty:ch0@c20+40;stuckfull:ch2@c200+30;"
        "mispredict:pe0@p0.1");

    FaultInjector a(plan);
    FaultInjector b(plan);
    EXPECT_EQ(observeScheduler(workload, uarch, false, &a),
              observeScheduler(workload, uarch, true, &b));
    EXPECT_GT(a.stats().totalFired(), 0u);
}

TEST(IdlePeSleep, MutatingAccessorWakesParkedPe)
{
    // A parked PE whose predicates are changed externally must be
    // reconsidered; pe() wakes it so the next cycle re-schedules.
    ArchParams params;
    const Program program =
        assemble("when %p == XXXXXXX1: halt;\n", params);
    FabricBuilder builder(params, 1);
    const FabricConfig config = builder.build();

    CycleFabric fabric(config, program, {allShapes()[0], false, false,
                                         false});
    for (unsigned i = 0; i < 10; ++i)
        fabric.step(); // p0 clear: no trigger; the PE parks
    EXPECT_GT(fabric.stepStats().peStepsSkipped, 0u);
    EXPECT_EQ(fabric.pe(0).counters().cycles, 10u);

    fabric.pe(0).setPreds(1); // wakes the PE as a side effect
    fabric.step();
    EXPECT_TRUE(fabric.pe(0).halted());
    EXPECT_EQ(fabric.pe(0).counters().cycles, 11u);
    EXPECT_EQ(fabric.pe(0).counters().retired, 1u);
}

// ---------------------------------------------------------------------
// Run-ahead: run() against a bare per-cycle step() loop.
// ---------------------------------------------------------------------

/** Everything observable about a fabric after a run, plus host steps. */
struct FabricObservation
{
    Cycle cycles = 0;
    std::vector<PerfCounters> counters;
    std::vector<std::vector<Word>> regs;
    std::vector<std::uint64_t> preds;
    std::vector<Word> memory;
    std::uint64_t stepsExecuted = 0;
    std::uint64_t stepsSkipped = 0;

    bool operator==(const FabricObservation &) const = default;
};

FabricObservation
observeFabric(const CycleFabric &fabric)
{
    FabricObservation obs;
    obs.cycles = fabric.now();
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        obs.counters.push_back(fabric.pe(pe).counters());
        obs.regs.push_back(fabric.pe(pe).regs());
        obs.preds.push_back(fabric.pe(pe).preds());
    }
    obs.memory = fabric.memory().snapshot();
    const FabricStepStats steps = fabric.stepStats();
    obs.stepsExecuted = steps.peStepsExecuted;
    obs.stepsSkipped = steps.peStepsSkipped;
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

/** A trace sink that drops every event: attaching it turns run-ahead
 *  off without changing anything else about a run. */
class NullSink : public TraceSink
{
  public:
    void record(const TraceEvent &) override {}
};

TEST(RunAhead, WorkloadSuiteMatchesPerCycleStepLoop)
{
    const std::vector<Workload> workloads =
        allWorkloads(WorkloadSizes::small());
    const std::vector<PeConfig> uarchs = allConfigs();
    ASSERT_EQ(uarchs.size(), 32u);
    for (const Workload &workload : workloads) {
        for (const PeConfig &uarch : uarchs) {
            for (const bool sleep : {true, false}) {
                CycleFabric ran(workload.config, workload.program, uarch);
                ran.setIdleSleepEnabled(sleep);
                workload.preload(ran.memory());
                ASSERT_EQ(ran.run(), RunStatus::Halted)
                    << workload.name << " / " << uarch.name();

                CycleFabric stepped(workload.config, workload.program,
                                    uarch);
                stepped.setIdleSleepEnabled(sleep);
                workload.preload(stepped.memory());
                while (!allHalted(stepped) &&
                       stepped.now() < kDefaultMaxCycles) {
                    stepped.step();
                }

                ASSERT_EQ(observeFabric(ran), observeFabric(stepped))
                    << workload.name << " / " << uarch.name()
                    << (sleep ? " sleep" : " no sleep");
            }
        }
    }
}

TEST(RunAhead, BudgetAndQuiescenceExitsMatchPerCycleStep)
{
    // 1-PE programs that never halt: an endless register loop, and a
    // counted loop that then waits forever on a never-fed input (its
    // last instruction retires in the cycle the PE first can sleep).
    // Run-ahead covers their active stretches, so the budget exit —
    // step limit or, once the window elapses without progress,
    // livelock — and the quiescence exit must land on the same cycle
    // with the same diagnosis as a traced run (which never runs
    // ahead), with the same state as a bare step() loop.
    const ArchParams params;
    const std::vector<std::pair<const char *, Program>> programs = {
        {"loop",
         assemble("when %p == XXXXXXX0: add %r0, %r0, #1; "
                  "set %p = ZZZZZZZ1;\n"
                  "when %p == XXXXXXX1: add %r1, %r1, %r0; "
                  "set %p = ZZZZZZZ0;\n",
                  params)},
        {"count then starve",
         assemble("when %p == XXXXXX00: add %r0, %r0, #1; "
                  "set %p = ZZZZZZZ1;\n"
                  "when %p == XXXXXX01: eq %p1, %r0, #40; "
                  "set %p = ZZZZZZZ0;\n"
                  "when %p == XXXXXX10: add %r1, %r0, #1; "
                  "set %p = ZZZZZZ11;\n"
                  "when %p == XXXXXX11 with %i0.0: halt;\n",
                  params)},
    };
    FabricBuilder builder(params, 1);
    const FabricConfig config = builder.build();
    for (const auto &[name, program] : programs) {
        for (const PeConfig &uarch : allConfigs()) {
            for (const Cycle window : {Cycle{100}, Cycle{10'000}}) {
                for (const bool sleep : {true, false}) {
                    const std::string what = std::string(name) + " / " +
                                             uarch.name() + " / window " +
                                             std::to_string(window) +
                                             (sleep ? "" : " / no sleep");
                    const FabricRunOptions options{1'000, window, {}};

                    CycleFabric ran(config, program, uarch);
                    ran.setIdleSleepEnabled(sleep);
                    const RunStatus status = ran.run(options);
                    EXPECT_NE(status, RunStatus::Halted) << what;

                    NullSink sink;
                    CycleFabric traced(config, program, uarch);
                    traced.setIdleSleepEnabled(sleep);
                    traced.setTraceSink(&sink);
                    EXPECT_EQ(traced.run(options), status) << what;
                    EXPECT_EQ(ran.hangReport(), traced.hangReport())
                        << what;
                    EXPECT_EQ(observeFabric(ran), observeFabric(traced))
                        << what;

                    CycleFabric stepped(config, program, uarch);
                    stepped.setIdleSleepEnabled(sleep);
                    while (stepped.now() < ran.now())
                        stepped.step();
                    EXPECT_EQ(observeFabric(ran), observeFabric(stepped))
                        << what;
                }
            }
        }
    }
}

TEST(RunAhead, AttachedStopTokenChangesNothing)
{
    // A token that is polled but never fires caps every run-ahead
    // stretch at the next poll boundary; results must not move.
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

} // namespace
} // namespace tia
