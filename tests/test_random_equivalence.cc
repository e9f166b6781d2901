/**
 * @file
 * Randomized architectural-equivalence property test.
 *
 * Generates random looping single-PE programs — random ALU/scratchpad
 * operations, random register dependences (exercising forwarding and
 * split-ALU bubbles), random datapath predicate writes and
 * data-dependent branch pairs (exercising predicate hazards,
 * speculation, flush/rollback and the forbidden-instruction rules) —
 * and checks that every one of the 32 microarchitectures produces
 * exactly the architectural state of the functional reference, with
 * the trigger encoder and with the reference scheduler alike.
 *
 * Each program also runs through run() — which, past
 * FabricMemo::kEngageAfter cycles, replays recorded whole-fabric
 * control transitions (the fabric control memo) — and through a bare
 * per-cycle step() loop, which does not.
 * The loop runs long enough that every run() engages the memo, and its
 * data-dependent branches, some on a bit of the loop counter, take
 * both edges of recorded nodes.
 *
 * Finally each program runs through runCycleMatrix, which derives a
 * cell from a sibling's run where a KnobWitness proves +P or +Q inert,
 * and every cell must equal a per-cell runCycle.
 *
 * A second generator builds 2- and 3-PE chains: a loader streams
 * tagged load requests through a memory read port, every PE transforms
 * the tokens it dequeues under tag-checked triggers (one check
 * negated) and retags them by a data-dependent branch, and the last PE
 * stores through a write port. Each chain must leave the functional
 * model's memory image and per-PE instruction counts on all 32 uarchs
 * plus +P+N and +P+N+Q, and run() must match the bare step() loop.
 */

#include <random>
#include <utility>

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "sim/functional.hh"
#include "uarch/cycle_fabric.hh"
#include "workloads/runner.hh"

namespace tia {
namespace {

constexpr unsigned kLoopIterations = 120;

/**
 * Build a random program structured as a 16-state loop:
 * states 0..13 hold random work, state 14 advances the iteration
 * counter in r0 and compares against the limit (a datapath write of
 * p7), state 15 either loops (p7 = 0) or halts.
 */
Program
randomProgram(std::mt19937 &rng)
{
    // Branch pairs emit two instructions per state, so give the PE a
    // 32-entry store (NIns is an architecture parameter; this also
    // exercises a non-default parameterization end to end).
    ArchParams params;
    params.numInstructions = 32;
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };

    // Candidate body operations: a mix of ALU classes plus scratchpad.
    static const Op body_ops[] = {
        Op::Add, Op::Sub,  Op::Mul,  Op::Mulhu, Op::And,  Op::Or,
        Op::Xor, Op::Sll,  Op::Srl,  Op::Sra,   Op::Clz,  Op::Ctz,
        Op::Popc, Op::Min, Op::Umax, Op::Bswap, Op::Lsw,  Op::Ssw,
    };
    static const Op cmp_ops[] = {Op::Eq,  Op::Ne,  Op::Ult,
                                 Op::Slt, Op::Uge, Op::Sle};

    auto state_pattern = [&](unsigned state) {
        std::string pattern = "XXXX";
        for (int bit = 3; bit >= 0; --bit)
            pattern += ((state >> bit) & 1u) ? '1' : '0';
        return pattern;
    };
    auto next_state_set = [&](unsigned next) {
        std::string set = "ZZZZ";
        for (int bit = 3; bit >= 0; --bit)
            set += ((next >> bit) & 1u) ? '1' : '0';
        return set;
    };
    // Registers r1..r6 are scratch; r0 is the loop counter. Scratchpad
    // addresses stay tiny.
    auto reg = [&] { return "%r" + std::to_string(1 + pick(6)); };
    auto src = [&]() -> std::string {
        switch (pick(3)) {
          case 0:
            return reg();
          case 1:
            return "#" + std::to_string(pick(64));
          default:
            return "#" + std::to_string(rng());
        }
    };

    std::string source;
    // Predicates p4..p6 hold random branch conditions.
    for (unsigned state = 0; state < 13; ++state) {
        const std::string when = state_pattern(state);
        const std::string advance = next_state_set(state + 1);
        switch (pick(4)) {
          case 0: { // plain operation
            const Op op = body_ops[pick(std::size(body_ops))];
            const OpInfo &info = opInfo(op);
            std::string operands;
            if (op == Op::Lsw) {
                // r7 is never written and stays zero, bounding the
                // scratchpad address to the immediate.
                operands = " " + reg() + ", #" + std::to_string(pick(16)) +
                           ", %r7";
            } else if (op == Op::Ssw) {
                operands =
                    " #" + std::to_string(pick(16)) + ", " + reg();
            } else if (info.numSrcs == 1) {
                operands = " " + reg() + ", " + src();
            } else {
                // Keep the first source a register so at most one
                // immediate appears (the encoding has a single field).
                operands = " " + reg() + ", " + reg() + ", " + src();
            }
            source += "when %p == " + when + ": " +
                      std::string(info.mnemonic) + operands + "; set %p = " +
                      advance + ";\n";
            break;
          }
          case 1: { // datapath predicate write
            if (pick(2) == 0) {
                // Bit 1 of the loop counter: each value follows itself
                // and its complement by turns, so the control memo
                // replays both edges of this branch's node.
                source += "when %p == " + when + ": srl %p" +
                          std::to_string(4 + pick(3)) +
                          ", %r0, #1; set %p = " + advance + ";\n";
                break;
            }
            const Op op = cmp_ops[pick(std::size(cmp_ops))];
            const unsigned pred = 4 + pick(3);
            source += "when %p == " + when + ": " +
                      std::string(opInfo(op).mnemonic) + " %p" +
                      std::to_string(pred) + ", " + reg() + ", " + src() +
                      "; set %p = " + advance + ";\n";
            break;
          }
          case 2: { // branch pair consuming a condition predicate
            const unsigned pred = 4 + pick(3);
            std::string taken = when;
            std::string fallthrough = when;
            taken[7 - pred] = '1';
            fallthrough[7 - pred] = '0';
            source += "when %p == " + taken + ": add " + reg() + ", " +
                      reg() + ", #1; set %p = " + advance + ";\n";
            source += "when %p == " + fallthrough + ": xor " + reg() +
                      ", " + reg() + ", #3; set %p = " + advance + ";\n";
            break;
          }
          default: { // back-to-back dependence chain on one register
            const std::string r = reg();
            source += "when %p == " + when + ": add " + r + ", " + r +
                      ", " + r + "; set %p = " + advance + ";\n";
            break;
          }
        }
    }
    // State 13: advance the iteration counter; state 14: compare it;
    // state 15: loop back or halt on p7.
    source += "when %p == " + state_pattern(13) + ": add %r0, %r0, #1; "
              "set %p = " + next_state_set(14) + ";\n";
    source += "when %p == " + state_pattern(14) + ": uge %p7, %r0, #" +
              std::to_string(kLoopIterations) +
              "; set %p = " + next_state_set(15) + ";\n";
    source += "when %p == 0XXX1111: nop; set %p = ZZZZ0000;\n";
    source += "when %p == 1XXX1111: halt;\n";

    return assemble(source, params);
}

struct ArchState
{
    std::vector<Word> regs;
    std::uint64_t preds;
    std::vector<Word> scratchpad;
    std::uint64_t retired;

    bool operator==(const ArchState &) const = default;
};

/** Everything run() and a bare step() loop must agree on. */
struct FabricState
{
    Cycle cycles = 0;
    PerfCounters counters;
    std::vector<Word> regs;
    std::uint64_t preds = 0;
    std::vector<Word> scratchpad;
    std::vector<Word> memory;
    std::uint64_t stepsExecuted = 0;

    bool operator==(const FabricState &) const = default;
};

FabricState
observe(const CycleFabric &fabric)
{
    const PipelinedPe &pe = fabric.pe(0);
    return {fabric.now(),        pe.counters(),
            pe.regs(),           pe.preds(),
            pe.scratchpad(),     fabric.memory().snapshot(),
            fabric.stepStats().peStepsExecuted};
}

class RandomEquivalence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomEquivalence, AllMicroarchitecturesMatchFunctional)
{
    std::mt19937 rng(GetParam() * 7919 + 13);
    const Program program = randomProgram(rng);
    FabricBuilder builder(program.params, 1);
    const FabricConfig config = builder.build();

    FunctionalFabric golden(config, program);
    ASSERT_EQ(golden.run(), RunStatus::Halted) << program.toString();
    const ArchState expected{golden.pe(0).regs(), golden.pe(0).preds(),
                             golden.pe(0).scratchpad(),
                             golden.pe(0).dynamicInstructions()};

    std::vector<PeConfig> configs = allConfigs();
    for (const auto &shape : allShapes()) {
        configs.push_back({shape, true, false, true});  // +P+N
        configs.push_back({shape, true, true, true});   // +P+N+Q
    }
    for (const PeConfig &uarch : configs) {
        CycleFabric fabric(config, program, uarch);
        ASSERT_EQ(fabric.run(2'000'000), RunStatus::Halted)
            << uarch.name() << "\n"
            << program.toString();
        const PipelinedPe &pe = fabric.pe(0);
        const ArchState actual{pe.regs(), pe.preds(), pe.scratchpad(),
                               pe.counters().retired};
        ASSERT_EQ(actual, expected)
            << uarch.name() << "\n"
            << program.toString();
        // Counter identity at halt.
        const PerfCounters &c = pe.counters();
        EXPECT_EQ(c.cycles, c.retired + c.quashed + c.predicateHazard +
                                c.dataHazard + c.forbidden + c.noTrigger)
            << uarch.name();

        // The trigger encoder and the QueueStatusView reference
        // scheduler agree cycle for cycle on a 32-instruction store.
        CycleFabric reference(config, program, uarch);
        reference.setUseReferenceScheduler(true);
        ASSERT_EQ(reference.run(2'000'000), RunStatus::Halted)
            << uarch.name();
        EXPECT_EQ(reference.now(), fabric.now()) << uarch.name();
        EXPECT_EQ(reference.pe(0).counters(), c) << uarch.name();
        EXPECT_EQ(reference.pe(0).preds(), pe.preds()) << uarch.name();

        // run() (the control memo) against a bare step() loop.
        CycleFabric ran(config, program, uarch);
        ASSERT_EQ(ran.run(2'000'000), RunStatus::Halted) << uarch.name();
        EXPECT_GT(ran.stepStats().peStepsReplayed, 0u) << uarch.name();

        CycleFabric stepped(config, program, uarch);
        while (!std::as_const(stepped).pe(0).halted() &&
               stepped.now() < 2'000'000)
            stepped.step();
        EXPECT_EQ(stepped.stepStats().peStepsReplayed, 0u);
        EXPECT_EQ(observe(ran), observe(stepped)) << uarch.name();
        EXPECT_EQ(observe(ran), observe(fabric)) << uarch.name();
    }

    Workload workload;
    workload.name = "random";
    workload.program = program;
    workload.config = config;
    workload.check = [](const Memory &) { return std::string(); };
    CycleRunOptions options;
    options.maxCycles = 2'000'000;
    const CycleMatrix matrix = runCycleMatrix({workload}, configs, options);
    EXPECT_GT(matrix.derived, 0u);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        EXPECT_TRUE(matrix.run(c, 0) ==
                    runCycle(workload, configs[c], options))
            << configs[c].name() << "\n"
            << program.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, RandomEquivalence,
                         ::testing::Range(0u, 25u));

// ---------------------------------------------------------------------
// Multi-PE chains.
// ---------------------------------------------------------------------

/** Words the loader reads, from kSourceBase on; stores land below it. */
constexpr Word kSourceBase = 512;

/** A random chain program, its wiring and its input words. */
struct Chain
{
    Program program;
    FabricConfig config;
    std::vector<Word> inputs;
};

Chain
randomChain(std::mt19937 &rng)
{
    ArchParams params;
    params.numPreds = 16;
    params.numInstructions = 32;
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };
    static const Op ops[] = {Op::Add, Op::Sub, Op::Xor, Op::Or,  Op::And,
                             Op::Mul, Op::Sll, Op::Srl, Op::Min, Op::Umax};
    auto op = [&] { return std::string(opInfo(ops[pick(std::size(ops))]).mnemonic); };
    auto imm = [&] { return "#" + std::to_string(pick(32)); };
    // Predicate patterns and updates over 16 bits, MSB left.
    using Bits = std::vector<std::pair<unsigned, char>>;
    auto bits = [&](char fill, const Bits &set) {
        std::string text(params.numPreds, fill);
        for (const auto &[bit, c] : set)
            text[params.numPreds - 1 - bit] = c;
        return text;
    };
    auto when = [&](const Bits &set) {
        return "when %p == " + bits('X', set) + "";
    };
    auto then = [&](const Bits &set) {
        return "; set %p = " + bits('Z', set) + ";\n";
    };

    const unsigned pes = 2 + pick(2);
    const unsigned tokens = 16 + pick(32);
    std::string source;
    for (unsigned pe = 0; pe < pes; ++pe) {
        const bool last = pe + 1 == pes;
        // PE 0 sends on %o1 (its %o0 carries load addresses); the middle
        // PE sends on %o0; the last PE stores through %o1/%o2.
        const std::string out = pe == 0 ? "%o1" : "%o0";
        source += ".pe " + std::to_string(pe) + "\n";
        // The stage: p0/p2 phase, p1 the branch, p3 the store step, p7
        // the end. The sentinel (tag 3) outranks the other receives, and
        // they never match it: its trigger also needs output space, so
        // a receive that took tag 3 would race it.
        source += when({{0, '0'}, {2, '0'}, {7, '0'}}) + " with %i0.3: " +
                  (last ? "mov %r7, %i0" : "mov " + out + ".3, #0") +
                  "; deq %i0" + then({{7, '1'}});
        source += when({{0, '0'}, {2, '0'}, {7, '0'}}) + " with %i0.0: " +
                  op() + " %r1, %i0, " + imm() + "; deq %i0" +
                  then({{0, '1'}});
        source += when({{0, '0'}, {2, '0'}, {7, '0'}}) +
                  (pick(2) ? " with %i0.!3: " : " with %i0.1: ") + op() +
                  " %r1, %i0, " + imm() + "; deq %i0" + then({{0, '1'}});
        source += when({{0, '1'}, {2, '0'}}) + ": srl %p1, %r1, #" +
                  std::to_string(pick(8)) + then({{2, '1'}});
        if (last) {
            source += when({{0, '1'}, {2, '1'}, {3, '0'}}) +
                      ": and %o1.0, %r1, #255" + then({{3, '1'}});
        }
        const Bits send = last ? Bits{{0, '1'}, {2, '1'}, {3, '1'}}
                               : Bits{{0, '1'}, {2, '1'}};
        const std::string dst = last ? "%o2" : out;
        for (const char branch : {'0', '1'}) {
            Bits guard = send;
            guard.push_back({1, branch});
            source += when(guard) + ": " + op() + " " + dst + "." +
                      std::to_string(last ? 0 : pick(2)) + ", %r1, " +
                      imm() + then({{0, '0'}, {2, '0'}, {3, '0'}});
        }
        source += when({{7, '1'}}) + ": halt;\n";
        if (pe != 0)
            continue;
        // The loader: p8/p9 phase, p10 done, p11 sentinel sent, p12 the
        // next request's tag.
        for (const char tag : {'0', '1'}) {
            source += when({{8, '0'}, {9, '0'}, {10, '0'}, {12, tag}}) +
                      ": add %o0." + std::string(1, tag) + ", %r0, #" +
                      std::to_string(kSourceBase) + then({{8, '1'}});
        }
        source += when({{8, '1'}, {9, '0'}, {10, '0'}}) +
                  ": add %r0, %r0, #1" + then({{8, '0'}, {9, '1'}});
        source += when({{8, '0'}, {9, '1'}, {10, '0'}}) + ": uge %p10, %r0, #" +
                  std::to_string(tokens) + then({{8, '1'}});
        source += when({{8, '1'}, {9, '1'}, {10, '0'}}) + ": srl %p12, %r0, #" +
                  std::to_string(pick(3)) + then({{8, '0'}, {9, '0'}});
        source += when({{10, '1'}, {11, '0'}}) + ": mov %o0.3, #0" +
                  then({{11, '1'}});
    }

    FabricBuilder builder(params, pes);
    builder.addReadPort(0, 0, 0);
    builder.connect(0, 1, 1, 0);
    if (pes == 3)
        builder.connect(1, 0, 2, 0);
    builder.addWritePort(pes - 1, 1, 2);
    Chain chain{assemble(source, params), builder.build(), {}};
    for (unsigned i = 0; i < tokens; ++i)
        chain.inputs.push_back(static_cast<Word>(rng()));
    return chain;
}

/** Everything run() and a bare step() loop must agree on, per PE. */
struct ChainState
{
    Cycle cycles = 0;
    std::vector<PerfCounters> counters;
    std::vector<std::vector<Word>> regs;
    std::vector<std::uint64_t> preds;
    std::vector<Word> memory;
    std::uint64_t stepsExecuted = 0;

    bool operator==(const ChainState &) const = default;
};

ChainState
observeChain(const CycleFabric &fabric)
{
    ChainState state;
    state.cycles = fabric.now();
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        state.counters.push_back(fabric.pe(pe).counters());
        state.regs.push_back(fabric.pe(pe).regs());
        state.preds.push_back(fabric.pe(pe).preds());
    }
    state.memory = fabric.memory().snapshot();
    state.stepsExecuted = fabric.stepStats().peStepsExecuted;
    return state;
}

class RandomChainEquivalence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomChainEquivalence, MatchesFunctionalAndStepLoop)
{
    std::mt19937 rng(GetParam() * 104729 + 7);
    const Chain chain = randomChain(rng);
    auto preload = [&](Memory &memory) {
        for (std::size_t i = 0; i < chain.inputs.size(); ++i)
            memory.write(kSourceBase + i, chain.inputs[i]);
    };
    FunctionalFabric golden(chain.config, chain.program);
    preload(golden.memory());
    ASSERT_EQ(golden.run(), RunStatus::Halted) << chain.program.toString();
    const std::vector<Word> expected = golden.memory().snapshot();

    std::vector<PeConfig> uarchs = allConfigs();
    uarchs.push_back({allShapes()[7], true, false, true}); // +P+N
    uarchs.push_back({allShapes()[7], true, true, true});  // +P+N+Q
    std::uint64_t replayed = 0;
    for (const PeConfig &uarch : uarchs) {
        const std::string what =
            uarch.name() + "\n" + chain.program.toString();
        CycleFabric ran(chain.config, chain.program, uarch);
        preload(ran.memory());
        ASSERT_EQ(ran.run(), RunStatus::Halted)
            << ran.hangReport().summary << "\n"
            << what;
        EXPECT_EQ(ran.memory().snapshot(), expected) << what;
        for (unsigned pe = 0; pe < ran.numPes(); ++pe) {
            EXPECT_EQ(ran.pe(pe).counters().retired,
                      golden.pe(pe).dynamicInstructions())
                << "PE " << pe << " / " << what;
        }
        replayed += ran.stepStats().peStepsReplayed;

        CycleFabric stepped(chain.config, chain.program, uarch);
        preload(stepped.memory());
        while (stepped.now() < ran.now())
            stepped.step();
        EXPECT_EQ(observeChain(ran), observeChain(stepped)) << what;
    }
    EXPECT_GT(replayed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Chains, RandomChainEquivalence,
                         ::testing::Range(0u, 8u));

} // namespace
} // namespace tia
