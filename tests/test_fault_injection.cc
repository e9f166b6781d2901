/**
 * @file
 * Fault-injection tests: FaultPlan parsing, deterministic replay (same
 * seed, same faults, same report), and the architectural response to
 * each fault class — drops starve, duplicates skew, corruptions break
 * the golden check, stuck status stalls, forced mispredictions are
 * repaired by the +P recovery machinery, memory latency spikes slow a
 * run without corrupting it, and a corrupted store address escalates
 * to a trap that is classified, not thrown.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/assembler.hh"
#include "core/logging.hh"
#include "obs/metrics.hh"
#include "sim/fault.hh"
#include "uarch/cycle_fabric.hh"
#include "uarch/fabric_metrics.hh"
#include "workloads/runner.hh"

namespace tia {
namespace {

const PeConfig kUarch{PipelineShape{true, false, false}, true, true};
const PeConfig kDeepP{PipelineShape{true, true, true}, true, true};

TEST(FaultPlan, ParsesAndRoundTrips)
{
    const FaultPlan plan = FaultPlan::parse(
        "seed=42;drop:ch0@p0.01;stuckfull:ch1@c100+50;mispredict:pe0@p1;"
        "corrupt:ch2@p0.005,mask=0xff;memspike:rp0@p0.1,extra=16");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.events.size(), 5u);

    EXPECT_EQ(plan.events[0].cls, FaultClass::Drop);
    EXPECT_EQ(plan.events[0].site, FaultSite::Channel);
    EXPECT_EQ(plan.events[0].index, 0u);
    EXPECT_DOUBLE_EQ(plan.events[0].probability, 0.01);

    EXPECT_EQ(plan.events[1].cls, FaultClass::StuckFull);
    EXPECT_LT(plan.events[1].probability, 0.0);
    EXPECT_EQ(plan.events[1].start, 100u);
    EXPECT_EQ(plan.events[1].length, 50u);

    EXPECT_EQ(plan.events[2].cls, FaultClass::Mispredict);
    EXPECT_EQ(plan.events[2].site, FaultSite::Pe);

    EXPECT_EQ(plan.events[3].mask, 0xffu);
    EXPECT_EQ(plan.events[4].cls, FaultClass::MemLatency);
    EXPECT_EQ(plan.events[4].site, FaultSite::ReadPort);
    EXPECT_EQ(plan.events[4].extra, 16u);

    // The canonical form reparses to the same plan.
    const FaultPlan again = FaultPlan::parse(plan.toString());
    EXPECT_EQ(again.toString(), plan.toString());
    EXPECT_EQ(again.seed, plan.seed);
    EXPECT_EQ(again.events.size(), plan.events.size());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("gibberish"), FatalError);
    EXPECT_THROW(FaultPlan::parse("explode:ch0@p0.5"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop:pe0@p0.5"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop:ch0@x5"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop:ch0@p2"), FatalError);
    EXPECT_THROW(FaultPlan::parse("drop:ch0"), FatalError);
    EXPECT_THROW(FaultPlan::parse("mispredict:pe0@p1,bogus=3"),
                 FatalError);
}

/**
 * Producer/consumer pair over channel 0: PE 0 sends 1..5 then halts,
 * PE 1 sums five tokens into %r0 then halts. Clean sum = 15.
 */
FabricConfig
pairConfig()
{
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);
    return builder.build();
}

Program
pairProgram()
{
    return assemble(
        ".pe 0\n"
        "when %p == XXXXXX00: add %r0, %r0, #1; set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: mov %o0.0, %r0; set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: uge %p4, %r0, #5; set %p = ZZZZZZ11;\n"
        "when %p == XXX0XX11: mov %r1, #0; set %p = ZZZ0ZZ00;\n"
        "when %p == XXX1XX11: halt;\n"
        ".pe 1\n"
        "when %p == XXXXXX00 with %i0.0: add %r0, %r0, %i0; deq %i0; "
        "set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: add %r1, %r1, #1; set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: uge %p4, %r1, #5; set %p = ZZZZZZ11;\n"
        "when %p == XXX0XX11: mov %r2, #0; set %p = ZZZ0ZZ00;\n"
        "when %p == XXX1XX11: halt;\n");
}

TEST(FaultInjection, CleanPairRunHalts)
{
    CycleFabric fabric(pairConfig(), pairProgram(), kUarch);
    EXPECT_EQ(fabric.run({1'000'000, 500}), RunStatus::Halted);
    EXPECT_EQ(fabric.pe(1).regs()[0], 15u);
}

TEST(FaultInjection, DropStarvesTheConsumer)
{
    FaultInjector injector(FaultPlan::parse("seed=7;drop:ch0@p1"));
    CycleFabric fabric(pairConfig(), pairProgram(), kUarch, &injector);

    // Every push is dropped: the producer happily halts, the consumer
    // starves (no wait cycle: the producer is done, not blocked).
    EXPECT_EQ(fabric.run({1'000'000, 500}), RunStatus::Quiescent);
    EXPECT_EQ(fabric.pe(1).regs()[0], 0u);

    const FaultStats &stats = injector.stats();
    ASSERT_EQ(stats.lines.size(), 1u);
    EXPECT_EQ(stats.lines[0].name, "drop:ch0@p1");
    EXPECT_EQ(stats.lines[0].fired, 5u);
    EXPECT_EQ(stats.totalFired(), 5u);
}

TEST(FaultInjection, DuplicateSkewsTheStream)
{
    FaultInjector injector(FaultPlan::parse("seed=7;dup:ch0@p1"));
    CycleFabric fabric(pairConfig(), pairProgram(), kUarch, &injector);

    // Each push is delivered twice; the consumer still stops after
    // five tokens, so it sums 1,1,2,2,3 = 9 instead of 15.
    EXPECT_EQ(fabric.run({1'000'000, 500}), RunStatus::Halted);
    EXPECT_EQ(fabric.pe(1).regs()[0], 9u);
    EXPECT_EQ(injector.stats().totalFired(), 5u);
}

TEST(FaultInjection, CorruptionBreaksTheSum)
{
    FaultInjector injector(
        FaultPlan::parse("seed=7;corrupt:ch0@p1,mask=0x10"));
    CycleFabric fabric(pairConfig(), pairProgram(), kUarch, &injector);

    // Every token arrives XORed with 0x10: 17+18+19+20+21 = 95.
    EXPECT_EQ(fabric.run({1'000'000, 500}), RunStatus::Halted);
    EXPECT_EQ(fabric.pe(1).regs()[0], 95u);
    EXPECT_EQ(injector.stats().totalFired(), 5u);
}

TEST(FaultInjection, StuckEmptyStallsTheConsumer)
{
    // Channel 0 reads as empty for the first 300 cycles; the run must
    // stall through the window and still finish correctly.
    FaultInjector injector(
        FaultPlan::parse("seed=7;stuckempty:ch0@c0+300"));
    CycleFabric fabric(pairConfig(), pairProgram(), kUarch, &injector);

    EXPECT_EQ(fabric.run({1'000'000}), RunStatus::Halted);
    EXPECT_EQ(fabric.pe(1).regs()[0], 15u);
    EXPECT_GE(fabric.now(), 300u);
}

TEST(FaultInjection, StuckFullStallsTheProducer)
{
    FaultInjector injector(
        FaultPlan::parse("seed=7;stuckfull:ch0@c0+300"));
    CycleFabric fabric(pairConfig(), pairProgram(), kUarch, &injector);

    EXPECT_EQ(fabric.run({1'000'000}), RunStatus::Halted);
    EXPECT_EQ(fabric.pe(1).regs()[0], 15u);
    EXPECT_GE(fabric.now(), 300u);
}

TEST(FaultInjection, SameSeedReplaysIdentically)
{
    // The acceptance bar: two invocations of the same seeded plan are
    // bit-identical — same stats, same counters, same hang report.
    const FaultPlan plan = FaultPlan::parse(
        "seed=99;drop:ch0@p0.3;corrupt:ch0@p0.2,mask=0x4;"
        "mispredict:pe1@p0.1");
    const Workload workload = makeGcd(WorkloadSizes::small());

    CycleRunOptions options;
    options.faults = &plan;

    const WorkloadRun first = runCycle(workload, kDeepP, options);
    const WorkloadRun second = runCycle(workload, kDeepP, options);

    EXPECT_EQ(first.faultStats, second.faultStats);
    EXPECT_EQ(first.hang, second.hang);
    EXPECT_EQ(first.status, second.status);
    EXPECT_EQ(first.totalCycles, second.totalCycles);
    EXPECT_EQ(first.checkError, second.checkError);
    EXPECT_EQ(first.faultOutcome, second.faultOutcome);
    EXPECT_EQ(first.worker.retired, second.worker.retired);
    EXPECT_EQ(first.worker.faultsInjected, second.worker.faultsInjected);
    EXPECT_EQ(first.worker.faultRecoveries,
              second.worker.faultRecoveries);
}

TEST(FaultInjection, ForcedMispredictsAreRecovered)
{
    // Inverting predictions on a deep +P pipe provokes the flush and
    // recovery machinery; the architectural result must survive and
    // the per-PE counters must show injected faults being repaired.
    const FaultPlan plan = FaultPlan::parse("seed=3;mispredict:pe0@p0.5");
    const Workload workload = makeGcd(WorkloadSizes::small());

    CycleRunOptions options;
    options.faults = &plan;

    const WorkloadRun run = runCycle(workload, kDeepP, options);
    EXPECT_TRUE(run.ok()) << run.checkError;
    EXPECT_GT(run.worker.faultsInjected, 0u);
    EXPECT_GT(run.worker.faultRecoveries, 0u);
    EXPECT_EQ(run.faultOutcome, FaultOutcome::Recovered);

    // The same workload, clean, is strictly faster.
    const WorkloadRun clean = runCycle(workload, kDeepP);
    EXPECT_TRUE(clean.ok());
    EXPECT_GT(run.totalCycles, clean.totalCycles);
}

TEST(FaultInjection, MemorySpikesSlowButDoNotCorrupt)
{
    // Read-latency spikes delay tokens without changing them: the run
    // is slower but the memory image still validates (Masked).
    const FaultPlan plan =
        FaultPlan::parse("seed=9;memspike:rp0@p1,extra=32");
    const Workload workload = makeGcd(WorkloadSizes::small());

    CycleRunOptions options;
    options.faults = &plan;

    const WorkloadRun injected = runCycle(workload, kUarch, options);
    const WorkloadRun clean = runCycle(workload, kUarch);

    EXPECT_TRUE(clean.ok());
    EXPECT_TRUE(injected.ok()) << injected.checkError;
    EXPECT_EQ(injected.faultOutcome, FaultOutcome::Masked);
    EXPECT_GT(injected.faultStats.totalFired(), 0u);
    EXPECT_GT(injected.totalCycles, clean.totalCycles);
}

TEST(FaultInjection, DroppedWorkloadTokensAreReportedHung)
{
    // Dropping a workload's internal traffic leaves it unable to
    // finish; that classifies as Hung, and the hang report explains
    // how the run ended.
    const FaultPlan plan = FaultPlan::parse("seed=5;drop:ch0@p1");
    const Workload workload = makeStream(WorkloadSizes::small());

    CycleRunOptions options;
    options.maxCycles = 200'000;
    options.quiescenceWindow = 1'000;
    options.faults = &plan;

    const WorkloadRun run = runCycle(workload, kUarch, options);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.faultOutcome, FaultOutcome::Hung);
    EXPECT_NE(run.status, RunStatus::Halted);
    EXPECT_FALSE(run.hang.summary.empty());
}

TEST(FaultInjection, EveryInjectedRunIsClassified)
{
    // Setting only CycleRunOptions::faults is enough: a run whose
    // faults fired is never reported as FaultOutcome::None, and a plan
    // that never fires is.
    const Workload workload = makeGcd(WorkloadSizes::small());
    for (const char *spec :
         {"seed=3;mispredict:pe0@p0.5", "seed=9;memspike:rp0@p1,extra=32",
          "seed=1;corrupt:ch0@p1,mask=0x4", "seed=5;drop:ch0@p1"}) {
        const FaultPlan plan = FaultPlan::parse(spec);
        CycleRunOptions options;
        options.maxCycles = 200'000;
        options.quiescenceWindow = 1'000;
        options.faults = &plan;
        const WorkloadRun run = runCycle(workload, kDeepP, options);
        ASSERT_GT(run.faultStats.totalFired(), 0u) << spec;
        EXPECT_NE(run.faultOutcome, FaultOutcome::None) << spec;
    }

    const FaultPlan idle = FaultPlan::parse("seed=2;stuckfull:ch0@c900000000");
    CycleRunOptions options;
    options.faults = &idle;
    const WorkloadRun run = runCycle(workload, kDeepP, options);
    EXPECT_TRUE(run.ok()) << run.checkError;
    EXPECT_EQ(run.faultStats.totalFired(), 0u);
    EXPECT_EQ(run.faultOutcome, FaultOutcome::None);
}

/**
 * Single PE storing 7 to memory word 0 through the conventional write
 * port (%o1 = address on channel 2, %o2 = data on channel 3).
 */
Workload
storeWorkload()
{
    Workload workload;
    workload.name = "store";
    workload.program = assemble(
        "when %p == XXXXXX00: mov %o1.0, #0; set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: mov %o2.0, #7; set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: nop; set %p = ZZZZZZ11;\n"
        "when %p == XXXXXX11: halt;\n");
    FabricBuilder builder(workload.program.params, 1);
    builder.addReadPort(0, 0, 0);
    builder.addWritePort(0, 1, 2);
    workload.config = builder.build();
    workload.check = [](const Memory &memory) {
        return memory.read(0) == 7 ? std::string()
                                   : std::string("mem[0] != 7");
    };
    return workload;
}

/** Every store address is pushed out of bounds. */
const char *const kWildStore = "seed=1;corrupt:ch2@p1,mask=0x7fffffff";

TEST(FaultInjection, CorruptedStoreAddressTrapsOnEveryUarch)
{
    // The out-of-bounds store raises a FatalError inside the fabric;
    // executeCycle catches it into the trap message and still hands
    // back the fabric, whose metrics entry must be a valid document.
    const Workload workload = storeWorkload();
    ASSERT_TRUE(runCycle(workload, kUarch).ok());
    const FaultPlan plan = FaultPlan::parse(kWildStore);
    CycleRunOptions options;
    options.faults = &plan;

    for (const PeConfig &uarch : allConfigs()) {
        SCOPED_TRACE(uarch.name());
        CycleExecution execution = executeCycle(workload, uarch, options);
        ASSERT_TRUE(execution.trap.has_value());
        EXPECT_NE(execution.trap->find("out of bounds"), std::string::npos)
            << *execution.trap;
        ASSERT_NE(execution.injector, nullptr);
        EXPECT_GT(execution.injector->stats().totalFired(), 0u);

        MetricsRegistry registry("test");
        registry.addRun(
            fabricRunMetrics(*execution.fabric, uarch, execution.status));
        std::string error;
        const auto doc = JsonValue::parse(registry.dump(), &error);
        ASSERT_TRUE(doc.has_value()) << error;
        const auto problems = validateMetricsDocument(*doc);
        EXPECT_TRUE(problems.empty())
            << "first problem: " << problems.front();
    }
}

TEST(FaultInjection, CorruptedStoreAddressIsClassifiedTrapped)
{
    const FaultPlan plan = FaultPlan::parse(kWildStore);
    CycleRunOptions options;
    options.faults = &plan;

    const WorkloadRun run = runCycle(storeWorkload(), kDeepP, options);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.faultOutcome, FaultOutcome::Trapped);
    EXPECT_EQ(run.checkError.rfind("trapped: ", 0), 0u) << run.checkError;
    EXPECT_GT(run.faultStats.totalFired(), 0u);
}

} // namespace
} // namespace tia
