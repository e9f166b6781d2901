/**
 * @file
 * Equivalence tests for the hot-loop optimizations: the compiled,
 * predicate-first trigger encoder, the ring-buffer TaggedQueue, the
 * fabric's idle-PE sleep/wake machinery and its control memo.
 * Every optimization must be invisible to the architecture —
 * identical schedule outcomes, identical queue semantics,
 * bit-identical cycle counts, counters and hang reports with sleep on
 * and off, and with run() against a bare step() loop.
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
#include "sim/scheduler.hh"
#include "uarch/cycle_fabric.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia {
namespace {

// ---------------------------------------------------------------------
// Trigger encoder vs reference, over random instructions & status.
// ---------------------------------------------------------------------

constexpr unsigned kQueues = 4;

/** Fixed queue status backing both the view and the encoder's queries. */
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

/** TriggerEncoder::queueFail over @p s. */
std::uint64_t
queueFailOf(const TriggerEncoder &encoder, const SyntheticStatus &s)
{
    return encoder.queueFail(
        [&](unsigned q) -> std::optional<Tag> {
            if (s.occupancy[q] == 0)
                return std::nullopt;
            return s.headTag[q];
        },
        [&](unsigned q) { return s.outputSpace[q]; });
}

/** True if @p inst has any queue condition, explicit or implicit. */
bool
needsQueues(const Instruction &inst)
{
    bool needs = !inst.trigger.queueChecks.empty() ||
                 !inst.dequeues.empty() || inst.enqueues();
    for (const auto &src : inst.srcs)
        needs = needs || src.type == SrcType::InputQueue;
    return needs;
}

Instruction
randomInstruction(std::mt19937 &rng, const ArchParams &params)
{
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };

    Instruction inst;
    inst.trigger.valid = pick(10) != 0;
    // Half the triggers care about a few predicates anywhere in the
    // word, so wide predicate files still leave triggers eligible; the
    // rest draw dense patterns.
    const unsigned cares =
        pick(2) != 0 ? pick(5) : pick(params.numPreds + 1);
    for (unsigned c = 0; c < cares; ++c) {
        const std::uint64_t bit = std::uint64_t{1} << pick(params.numPreds);
        if ((inst.trigger.predOff & bit) != 0)
            continue;
        if (pick(2) != 0)
            inst.trigger.predOn |= bit;
        else if ((inst.trigger.predOn & bit) == 0)
            inst.trigger.predOff |= bit;
    }
    // Up to MaxCheck (2) distinct checked queues.
    const unsigned checks = pick(3);
    std::array<unsigned, kQueues> order = {0, 1, 2, 3};
    std::shuffle(order.begin(), order.end(), rng);
    for (unsigned c = 0; c < checks; ++c) {
        QueueCheck check;
        check.queue = static_cast<std::uint8_t>(order[c]);
        check.tag = static_cast<Tag>(pick(params.maxTag() + 1u));
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
    auto random_bits = [&](unsigned width) {
        const std::uint64_t word = (std::uint64_t{rng()} << 32) | rng();
        return width == 64 ? word
                           : word & ((std::uint64_t{1} << width) - 1);
    };

    // Predicate files of one, three (partial last byte) and eight
    // table bytes; tag widths up to a full byte.
    constexpr unsigned kPredWidths[] = {8, 20, 64};
    constexpr unsigned kTagWidths[] = {1, 2, 5, 8};
    for (unsigned trial = 0; trial < 3000; ++trial) {
        ArchParams params;
        params.numPreds = kPredWidths[trial % 3];
        params.tagWidth = kTagWidths[(trial / 3) % 4];
        const unsigned size =
            1 + pick(trial % 2 == 0 ? 16 : TriggerEncoder::kMaxInstructions);
        std::vector<Instruction> program;
        for (unsigned i = 0; i < size; ++i)
            program.push_back(randomInstruction(rng, params));
        const TriggerEncoder encoder(params, program);

        SyntheticStatus status;
        for (unsigned q = 0; q < kQueues; ++q) {
            status.occupancy[q] = pick(4);
            // Now and then a head above MaxTag, which no check names.
            status.headTag[q] = static_cast<Tag>(
                pick(4) != 0 ? pick(params.maxTag() + 1u) : pick(256));
            status.outputSpace[q] = pick(2) != 0;
        }
        const SyntheticView view(status);

        for (unsigned sample = 0; sample < 8; ++sample) {
            const std::uint64_t preds = random_bits(params.numPreds);
            // pendingPreds is nonzero only without prediction; bias
            // towards zero as in real runs, but cover the hazard path
            // with one to three pending writers and with whole words.
            std::uint64_t pending = 0;
            if (sample % 4 == 1) {
                pending = random_bits(params.numPreds);
            } else if (sample % 4 == 2) {
                for (unsigned w = 1 + pick(3); w-- > 0;)
                    pending |= std::uint64_t{1} << pick(params.numPreds);
            }

            const ScheduleResult ref =
                schedule(program, preds, pending, view);
            unsigned status_calls = 0;
            const ScheduleResult fast =
                encoder.resolve(preds, pending, [&] {
                    ++status_calls;
                    return queueFailOf(encoder, status);
                });
            ASSERT_EQ(static_cast<int>(fast.outcome),
                      static_cast<int>(ref.outcome))
                << "trial " << trial;
            ASSERT_EQ(fast.index, ref.index) << "trial " << trial;

            // Predicate-first: status is asked for at most once, and
            // never when no predicate-eligible trigger needs a queue,
            // nor when the first one in priority order needs none.
            ASSERT_LE(status_calls, 1u) << "trial " << trial;
            bool needs_queues = false;
            std::optional<bool> first_needs_queues;
            for (const Instruction &inst : program) {
                const std::uint64_t fail =
                    (inst.trigger.predOn & ~preds) |
                    (inst.trigger.predOff & preds);
                if (!inst.trigger.valid || (fail & ~pending) != 0)
                    continue;
                needs_queues = needs_queues || needsQueues(inst);
                if (!first_needs_queues.has_value())
                    first_needs_queues = needsQueues(inst);
            }
            if (!needs_queues || first_needs_queues == false) {
                ASSERT_EQ(status_calls, 0u) << "trial " << trial;
            }

            // Condition evaluation agrees instruction by instruction.
            const std::uint64_t queue_fail = queueFailOf(encoder, status);
            for (unsigned i = 0; i < size; ++i) {
                if (!program[i].trigger.valid)
                    continue;
                ASSERT_EQ(((queue_fail >> i) & 1u) != 0,
                          !queueConditionsHold(program[i], view))
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
    if (!sleep || injector != nullptr) {
        EXPECT_EQ(steps.peStepsSkipped, 0u);
    }
    return obs;
}

TEST(IdlePeSleep, WorkloadSuiteBitIdentical)
{
    const std::vector<Workload> workloads =
        allWorkloads(WorkloadSizes::small());
    std::vector<PeConfig> uarchs = allConfigs();
    uarchs.push_back({allShapes()[7], true, false, true}); // T|D|X1|X2 +P+N
    uarchs.push_back({allShapes()[7], true, true, true});  // T|D|X1|X2 +P+N+Q
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
        ASSERT_EQ(fabric.run(50, 10'000), RunStatus::StepLimit);
        expectBucketIntegrity(fabric, "step-limit");
    }
    {
        // Larger budget, same exit, after the worker made progress.
        CycleFabric fabric(config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run(200, 10'000), RunStatus::StepLimit);
        expectBucketIntegrity(fabric, "step-limit-200");
    }
    {
        // Quiescence/watchdog exit: the worker halts, the idle PEs
        // starve, and the quiescence window trips.
        CycleFabric fabric(config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run(kDefaultMaxCycles, 100),
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
// Trigger resolution: the trigger encoder must be invisible next to the
// QueueStatusView reference scheduler.
// ---------------------------------------------------------------------

// The two differentials below keep the suite and test names they had
// while a verdict memo sat in front of the mask scheduler.

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
    std::vector<PeConfig> uarchs = allConfigs();
    uarchs.push_back({allShapes()[7], true, false, true}); // T|D|X1|X2 +P+N
    uarchs.push_back({allShapes()[7], true, true, true});  // T|D|X1|X2 +P+N+Q
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

// ---------------------------------------------------------------------
// The fabric control memo: run() against a bare per-cycle step() loop.
// (The suite keeps the RunAhead name of the lone-PE memo these cases
// were written for; each now pins the same property of the fabric
// memo.)
// ---------------------------------------------------------------------

/** Everything observable about a fabric after a run, plus host steps. */
struct FabricObservation
{
    Cycle cycles = 0;
    std::vector<PerfCounters> counters;
    /** Per PE: retired, quashed, predicate, data, forbidden, no trigger. */
    std::vector<std::array<double, 6>> cpiStacks;
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
        const CpiStack cpi = cpiStack(fabric.pe(pe).counters());
        obs.cpiStacks.push_back({cpi.retired, cpi.quashed,
                                 cpi.predicateHazard, cpi.dataHazard,
                                 cpi.forbidden, cpi.noTrigger});
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

/** A trace sink that drops every event: attaching it turns the
 *  control memo off without changing anything else about a run. */
class NullSink : public TraceSink
{
  public:
    void record(const TraceEvent &) override {}
};

TEST(RunAhead, WorkloadSuiteMatchesPerCycleStepLoop)
{
    // Every Table 3 workload at both sizes on all 32 uarchs plus +P+N
    // and +P+N+Q, sleep on and off: run(), which replays most cycles
    // from the control memo, leaves exactly what a bare step() loop
    // leaves.
    std::vector<Workload> workloads = allWorkloads(WorkloadSizes::small());
    for (Workload &workload : allWorkloads(WorkloadSizes::full()))
        workloads.push_back(std::move(workload));
    std::vector<PeConfig> uarchs = allConfigs();
    ASSERT_EQ(uarchs.size(), 32u);
    uarchs.push_back({allShapes()[7], true, false, true}); // +P+N
    uarchs.push_back({allShapes()[7], true, true, true});  // +P+N+Q
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
    // The control memo replays their active stretches, so the budget
    // exit — step limit or, once the window elapses without progress,
    // livelock — and the quiescence exit must land on the same cycle
    // with the same diagnosis as a traced run (which never replays),
    // with the same state as a bare step() loop.
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
        for (const bool sleep : {true, false}) {
            const std::string what =
                uarch.name() + (sleep ? "" : " / no sleep");
            CycleFabric stepped(config, program, uarch);
            stepped.setIdleSleepEnabled(sleep);
            while (!allHalted(stepped) && stepped.now() < kDefaultMaxCycles)
                stepped.step();
            ASSERT_TRUE(allHalted(stepped)) << what;
            EXPECT_EQ(stepped.memory().read(kPasses), kPasses) << what;

            CycleFabric ran(config, program, uarch);
            ran.setIdleSleepEnabled(sleep);
            ASSERT_EQ(ran.run(), RunStatus::Halted) << what;
            EXPECT_EQ(observeFabric(ran), observeFabric(stepped)) << what;
            EXPECT_GT(ran.stepStats().peStepsReplayed, 0u) << what;
            replayed += ran.stepStats().peStepsReplayed;
        }
    }
    // Over all 32 uarchs, sleep on and off: the count the memo gave when
    // this test was written. A change to when the memo engages or what
    // it records must re-measure it.
    EXPECT_EQ(replayed, 112'516u);

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
            for (const bool sleep : {true, false}) {
                const std::string what = std::string(name) + " / " +
                                         uarch.name() +
                                         (sleep ? "" : " / no sleep");
                CycleFabric ran(config, program, uarch);
                ran.setIdleSleepEnabled(sleep);
                const TrapObservation via_run =
                    observeTrap(ran, [&] { ran.run(); });

                CycleFabric stepped(config, program, uarch);
                stepped.setIdleSleepEnabled(sleep);
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
}

TEST(RunAhead, ReplayedStepsCountOnlyWhenTheMemoRuns)
{
    // The control memo replays most of full-size gcd. A trace sink, a
    // fault injector or the reference scheduler turns it off, so
    // nothing is replayed; results never move.
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

    CycleFabric reference(gcd.config, gcd.program, uarch);
    reference.setUseReferenceScheduler(true);
    gcd.preload(reference.memory());
    ASSERT_EQ(reference.run(), RunStatus::Halted);
    EXPECT_EQ(reference.stepStats().peStepsReplayed, 0u);
    EXPECT_EQ(observeFabric(reference), observeFabric(plain));

    // A plan whose one fault never fires leaves results unchanged
    // (an injector also keeps every PE awake, so compare against a
    // run without sleep).
    FaultInjector injector(FaultPlan::parse("seed=1;mispredict:pe0@p0"));
    CycleFabric injected(gcd.config, gcd.program, uarch, &injector);
    gcd.preload(injected.memory());
    ASSERT_EQ(injected.run(), RunStatus::Halted);
    EXPECT_EQ(injected.stepStats().peStepsReplayed, 0u);
    CycleFabric awake(gcd.config, gcd.program, uarch);
    awake.setIdleSleepEnabled(false);
    gcd.preload(awake.memory());
    ASSERT_EQ(awake.run(), RunStatus::Halted);
    EXPECT_GT(awake.stepStats().peStepsReplayed, 0u);
    EXPECT_EQ(observeFabric(injected), observeFabric(awake));
}

TEST(RunAhead, MemoryPortTrapDuringReplayMatchesPerCycleStepLoop)
{
    // A loop that loads (or stores) through a memory port at an address
    // that walks past the end of memory after far more than
    // FabricMemo::kEngageAfter iterations. The access traps in the
    // port, after every PE has stepped the cycle, while run() is
    // replaying: it must leave the message, clock and counters a bare
    // step() loop leaves.
    const ArchParams params;
    const std::vector<std::pair<const char *, Program>> programs = {
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
            for (const bool sleep : {true, false}) {
                const std::string what = std::string(name) + " / " +
                                         uarch.name() +
                                         (sleep ? "" : " / no sleep");
                CycleFabric ran(config, program, uarch);
                ran.setIdleSleepEnabled(sleep);
                const TrapObservation via_run =
                    observeTrap(ran, [&] { ran.run(); });

                CycleFabric stepped(config, program, uarch);
                stepped.setIdleSleepEnabled(sleep);
                const TrapObservation via_step = observeTrap(stepped, [&] {
                    while (stepped.now() < kDefaultMaxCycles)
                        stepped.step();
                });
                EXPECT_NE(via_run.message.find("out of bounds"),
                          std::string::npos)
                    << what << ": " << via_run.message;
                EXPECT_EQ(via_run, via_step) << what;
                EXPECT_GT(ran.stepStats().peStepsReplayed,
                          ran.stepStats().peStepsExecuted / 2)
                    << what;
            }
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
