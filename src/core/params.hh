/**
 * @file
 * Architectural parameter set (paper Table 1) and the derived binary
 * instruction-field widths (paper Table 2).
 *
 * Every component of the library — assembler, encoders, functional and
 * cycle-accurate simulators — is configured from a single ArchParams
 * instance, mirroring the single params.yaml at the root of the paper's
 * toolchain (Figure 1).
 */

#ifndef TIA_CORE_PARAMS_HH
#define TIA_CORE_PARAMS_HH

#include <cstddef>
#include <string>

#include "core/types.hh"

namespace tia {

/** Ceiling log2 for field sizing; clog2(0) and clog2(1) are 0. */
constexpr unsigned
clog2(std::size_t value)
{
    unsigned bits = 0;
    std::size_t capacity = 1;
    while (capacity < value) {
        capacity <<= 1;
        ++bits;
    }
    return bits;
}

/**
 * Architectural and microarchitectural parameters (paper Table 1).
 *
 * Defaults reproduce the paper's fixed assignment. Note that while
 * Table 1 lists MaxCheck = 4, the text (Section 2.2) and the Table 2
 * width computations fix "a maximum of two input channel tag conditions
 * per trigger", so the effective default here is 2, which makes the
 * encoded instruction exactly the 106 bits the paper reports.
 */
struct ArchParams
{
    /** Number of general-purpose data registers (NRegs). */
    unsigned numRegs = 8;
    /** Number of input queues / channels (NIQueues). */
    unsigned numInputQueues = 4;
    /** Number of output queues / channels (NOQueues). */
    unsigned numOutputQueues = 4;
    /** Maximum input queues checked per trigger (MaxCheck). */
    unsigned maxCheck = 2;
    /** Maximum dequeues allowed per instruction (MaxDeq). */
    unsigned maxDeq = 2;
    /** Number of single-bit predicate registers (NPreds). */
    unsigned numPreds = 8;
    /** Data word width in bits (Word). */
    unsigned wordWidth = 32;
    /** Queue tag width in bits (TagWidth). */
    unsigned tagWidth = 2;
    /** Instructions per PE (NIns, at most 64: one bit per instruction). */
    unsigned numInstructions = 16;
    /** Number of datapath operations (NOps). */
    unsigned numOps = 42;
    /** Source operands per instruction (NSrcs). */
    unsigned numSrcs = 2;
    /** Destinations per instruction (NDsts). */
    unsigned numDsts = 1;

    /**
     * Capacity of each communication queue in entries. Not part of the
     * paper's Table 1; exposed because the hazard-mitigation study
     * (Section 5.3) depends on queue occupancy dynamics.
     */
    unsigned queueCapacity = 4;
    /** PE-local scratchpad size in words (0 disables the scratchpad). */
    unsigned scratchpadWords = 1024;

    /** @return the largest representable tag value. */
    Tag maxTag() const { return static_cast<Tag>((1u << tagWidth) - 1); }

    /**
     * Validate internal consistency.
     * @throws FatalError on an unusable parameter combination.
     */
    void validate() const;

    /** Render as a parameter file (the format parseParams accepts). */
    std::string toString() const;

    bool operator==(const ArchParams &other) const = default;
};

/**
 * Binary instruction-field widths derived from an ArchParams
 * (paper Table 2). Field order below is the machine-code layout order,
 * most-significant field first.
 */
struct FieldWidths
{
    unsigned val;          ///< Valid bit.
    unsigned predMask;     ///< Required on-set and off-set of predicates.
    unsigned queueIndices; ///< Input queues to check.
    unsigned notTags;      ///< Queues checked for tag *absence*.
    unsigned tagVals;      ///< Tags sought on the checked input queues.
    unsigned op;           ///< Opcode.
    unsigned srcTypes;     ///< Source operand types.
    unsigned srcIds;       ///< Source operand indices.
    unsigned dstTypes;     ///< Destination types.
    unsigned dstIds;       ///< Destination indices.
    unsigned outTag;       ///< Tag attached to an enqueued result.
    unsigned iQueueDeq;    ///< Input queues to dequeue.
    unsigned predUpdate;   ///< Force-high / force-low predicate masks.
    unsigned imm;          ///< Full-word immediate.

    /** Total encoded instruction width in bits (106 at defaults). */
    unsigned total() const;

    /** Width padded to the next multiple of 32 bits for host I/O (128). */
    unsigned padded() const;
};

/** Compute Table 2 field widths for a parameter assignment. */
FieldWidths fieldWidths(const ArchParams &params);

/**
 * Parse a parameter file: `Key: value` lines using the Table 1 names
 * (e.g. `NRegs: 8`), '#' comments, blank lines ignored.
 *
 * Unknown keys are rejected so that configuration typos cannot be
 * silently ignored.
 */
ArchParams parseParams(const std::string &text);

} // namespace tia

#endif // TIA_CORE_PARAMS_HH
