/**
 * @file
 * Functional (instruction-at-a-time) simulator.
 *
 * Plays the role of the Python functional ISA simulator in the paper's
 * toolchain (Figure 1): it executes triggered instructions atomically
 * with no pipeline, no hazards and no memory latency, and is the golden
 * reference against which every pipelined microarchitecture is checked.
 */

#ifndef TIA_SIM_FUNCTIONAL_HH
#define TIA_SIM_FUNCTIONAL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/program.hh"
#include "sim/fabric_config.hh"
#include "sim/memory.hh"
#include "sim/queue.hh"
#include "sim/scheduler.hh"

namespace tia {

/** Architectural state and atomic executor for a single triggered PE. */
class FunctionalPe
{
  public:
    /**
     * @param params  architecture parameters.
     * @param program this PE's priority-ordered instruction list.
     */
    FunctionalPe(const ArchParams &params,
                 std::vector<Instruction> program);

    /** Bind input port @p port to @p queue (consumer side). */
    void bindInput(unsigned port, TaggedQueue *queue);
    /** Bind output port @p port to @p queue (producer side). */
    void bindOutput(unsigned port, TaggedQueue *queue);

    /** Preload registers (ascending from %r0). */
    void setRegs(const std::vector<Word> &values);
    /** Preload predicate state. */
    void setPreds(std::uint64_t preds) { preds_ = preds; }

    /**
     * Attempt to trigger and execute one instruction atomically.
     * @return true if an instruction fired.
     */
    bool step();

    bool halted() const { return halted_; }
    std::uint64_t dynamicInstructions() const { return retired_; }
    /** Dynamic count of datapath predicate writes ("branches"). */
    std::uint64_t predicateWrites() const { return predWrites_; }

    std::uint64_t preds() const { return preds_; }
    const std::vector<Word> &regs() const { return regs_; }
    const std::vector<Word> &scratchpad() const { return scratchpad_; }

  private:
    Word readSource(const Source &src, Word imm) const;
    void executeDatapath(const Instruction &inst);

    const ArchParams params_;
    std::vector<Instruction> program_;
    std::vector<Word> regs_;
    std::vector<Word> scratchpad_;
    std::uint64_t preds_ = 0;
    bool halted_ = false;
    std::uint64_t retired_ = 0;
    std::uint64_t predWrites_ = 0;

    std::vector<TaggedQueue *> inputs_;
    std::vector<TaggedQueue *> outputs_;
};

/** Completion status of a fabric run. */
enum class RunStatus
{
    Halted,      ///< Every PE executed a halt.
    Quiescent,   ///< Nothing can progress; no wait cycle found (done or starved).
    StepLimit,   ///< The step budget was exhausted.
    Deadlock,    ///< Quiescent with a cycle in the wait-for graph.
    Livelock,    ///< Active to the step limit without observable progress.
    Cancelled,   ///< Stopped early by a cooperative stop token (exec/stop_token.hh).
};

/** Human-readable name for a RunStatus. */
inline const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Halted:
        return "halted";
      case RunStatus::Quiescent:
        return "quiescent";
      case RunStatus::StepLimit:
        return "step limit";
      case RunStatus::Deadlock:
        return "deadlock";
      case RunStatus::Livelock:
        return "livelock";
      case RunStatus::Cancelled:
        return "cancelled";
    }
    return "?";
}

/** A full functional fabric: PEs + channels + memory ports. */
class FunctionalFabric
{
  public:
    FunctionalFabric(const FabricConfig &config, const Program &program);

    /**
     * Run until halt, quiescence, or @p max_steps scheduler passes.
     */
    RunStatus run(std::uint64_t max_steps = 10'000'000);

    Memory &memory() { return memory_; }
    const Memory &memory() const { return memory_; }

    FunctionalPe &pe(unsigned index) { return *pes_.at(index); }
    const FunctionalPe &pe(unsigned index) const { return *pes_.at(index); }
    unsigned numPes() const { return static_cast<unsigned>(pes_.size()); }

  private:
    FabricConfig config_;
    Memory memory_;
    std::vector<std::unique_ptr<TaggedQueue>> channels_;
    std::vector<std::unique_ptr<FunctionalPe>> pes_;
    std::vector<std::unique_ptr<MemoryReadPort>> readPorts_;
    std::vector<std::unique_ptr<MemoryWritePort>> writePorts_;
};

} // namespace tia

#endif // TIA_SIM_FUNCTIONAL_HH
