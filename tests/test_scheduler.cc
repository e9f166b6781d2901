/**
 * @file
 * Trigger-resolution unit tests with a scripted queue-status view:
 * priority, predicate matching, tag checks (including negation),
 * implicit operand/dequeue/destination conditions, and the
 * priority-correct stall on unresolved predicates.
 */

#include <array>
#include <optional>

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "sim/scheduler.hh"

namespace tia {
namespace {

/** A fully scripted queue view (sim/scheduler.hh). */
class StubView
{
  public:
    std::array<std::optional<Token>, 4> head; ///< Empty where unset.
    std::array<bool, 4> outputSpace = {true, true, true, true};

    const Token *
    inputHead(unsigned q) const
    {
        return head.at(q) ? &*head.at(q) : nullptr;
    }

    bool outputHasSpace(unsigned q) const { return outputSpace.at(q); }
};

std::vector<Instruction>
prog(const std::string &source)
{
    return assemble(source).pes.at(0);
}

TEST(Scheduler, PredicatePatternMatching)
{
    const auto insts = prog("when %p == XXXX1010: nop;\n");
    StubView view;
    EXPECT_EQ(schedule(insts, 0b1010, 0, view).outcome,
              ScheduleOutcome::Fire);
    EXPECT_EQ(schedule(insts, 0b11111010, 0, view).outcome,
              ScheduleOutcome::Fire); // upper bits are don't-care
    EXPECT_EQ(schedule(insts, 0b1000, 0, view).outcome,
              ScheduleOutcome::None);
    EXPECT_EQ(schedule(insts, 0b1011, 0, view).outcome,
              ScheduleOutcome::None);
}

TEST(Scheduler, PriorityPicksTheFirstEligible)
{
    const auto insts = prog(
        "when %p == XXXXXXX1: nop;\n"
        "when %p == XXXXXXXX: mov %r0, #1;\n"
        "when %p == XXXXXXXX: mov %r1, #1;\n");
    StubView view;
    EXPECT_EQ(schedule(insts, 0, 0, view).index, 1u);
    EXPECT_EQ(schedule(insts, 1, 0, view).index, 0u);
}

TEST(Scheduler, TagCheckRequiresMatchAndOccupancy)
{
    const auto insts =
        prog("when %p == XXXXXXXX with %i1.2: mov %r0, %i1; deq %i1;\n");
    StubView view;
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome,
              ScheduleOutcome::None); // empty
    view.head[1] = Token{0, 1};
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome,
              ScheduleOutcome::None); // wrong tag
    view.head[1] = Token{0, 2};
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::Fire);
}

TEST(Scheduler, NegatedTagFiresOnAnyOtherTag)
{
    const auto insts =
        prog("when %p == XXXXXXXX with %i0.!3: mov %r0, %i0; deq %i0;\n");
    StubView view;
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome,
              ScheduleOutcome::None); // empty: absence needs a token
    view.head[0] = Token{0, 3};
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::None);
    view.head[0] = Token{0, 0};
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::Fire);
}

TEST(Scheduler, ImplicitSourceAvailability)
{
    // Reading %i2 as a source requires a token even without a tag
    // check.
    const auto insts =
        prog("when %p == XXXXXXXX: add %r0, %r0, %i2;\n");
    StubView view;
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::None);
    view.head[2] = Token{};
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::Fire);
}

TEST(Scheduler, ImplicitDequeueAvailability)
{
    const auto insts = prog("when %p == XXXXXXXX: nop; deq %i3;\n");
    StubView view;
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::None);
    view.head[3] = Token{};
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::Fire);
}

TEST(Scheduler, OutputSpaceGatesEnqueues)
{
    const auto insts = prog("when %p == XXXXXXXX: mov %o2.1, %r0;\n");
    StubView view;
    view.outputSpace[2] = false;
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::None);
    view.outputSpace[2] = true;
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::Fire);
}

TEST(Scheduler, PendingPredicateBlocksDependentTrigger)
{
    const auto insts = prog("when %p == XXXXXXX1: nop;\n");
    StubView view;
    // p0 pending and required: outcome unknown -> stall.
    EXPECT_EQ(schedule(insts, 0, 0b1, view).outcome,
              ScheduleOutcome::BlockedOnPredicate);
    // p0 pending but the trigger would fail on a *resolved* bit?
    // There is none here; with p0=1 currently and pending, still
    // blocked (the in-flight write may clear it).
    EXPECT_EQ(schedule(insts, 1, 0b1, view).outcome,
              ScheduleOutcome::BlockedOnPredicate);
    // Unrelated pending bit does not stall.
    EXPECT_EQ(schedule(insts, 1, 0b10, view).outcome,
              ScheduleOutcome::Fire);
}

TEST(Scheduler, PriorityForbidsBypassingAnUnresolvedTrigger)
{
    // i0 depends on pending p0; i1 is unconditionally ready. Priority
    // correctness demands a stall, not issuing i1 (Section 5.1 /
    // DESIGN.md).
    const auto insts = prog(
        "when %p == XXXXXXX1: mov %r0, #1;\n"
        "when %p == XXXXXXXX: mov %r1, #1;\n");
    StubView view;
    const auto result = schedule(insts, 0, 0b1, view);
    EXPECT_EQ(result.outcome, ScheduleOutcome::BlockedOnPredicate);
    EXPECT_EQ(result.index, 0u);
}

TEST(Scheduler, DefinitelyFailingTriggerIsSkippedEvenWhenPending)
{
    // i0 requires p1=1 (resolved 0) and p0 (pending): it *cannot* fire
    // regardless of p0, so i1 may issue.
    const auto insts = prog(
        "when %p == XXXXXX11: mov %r0, #1;\n"
        "when %p == XXXXXXXX: mov %r1, #1;\n");
    StubView view;
    const auto result = schedule(insts, 0b00, 0b01, view);
    EXPECT_EQ(result.outcome, ScheduleOutcome::Fire);
    EXPECT_EQ(result.index, 1u);
}

TEST(Scheduler, QueueFailureSkipsRegardlessOfPendingPredicates)
{
    // i0's queue condition fails outright; its pending predicate must
    // not stall i1.
    const auto insts = prog(
        "when %p == XXXXXXX1 with %i0.0: mov %r0, %i0; deq %i0;\n"
        "when %p == XXXXXXXX: mov %r1, #1;\n");
    StubView view; // queue 0 empty
    const auto result = schedule(insts, 0, 0b1, view);
    EXPECT_EQ(result.outcome, ScheduleOutcome::Fire);
    EXPECT_EQ(result.index, 1u);
}

TEST(Scheduler, InvalidSlotsNeverFire)
{
    std::vector<Instruction> insts(3);
    for (auto &inst : insts)
        inst.trigger.valid = false;
    StubView view;
    EXPECT_EQ(schedule(insts, 0, 0, view).outcome, ScheduleOutcome::None);
}

} // namespace
} // namespace tia
