/**
 * @file
 * Microarchitecture configuration: the eight pipeline shapes of
 * Section 5.4 and the two optional hazard mitigations (+P, +Q).
 *
 * The paper divides PE work into three conceptual stages — trigger (T),
 * decode (D) and execute (X, optionally split X1|X2) — and considers
 * every pipeline obtained by placing registers between them: TDX
 * (single cycle), TD|X, T|DX, TDX1|X2, TD|X1|X2, T|DX1|X2, T|D|X and
 * T|D|X1|X2. With predicate prediction and effective queue status
 * independently togglable this yields the paper's 32 distinct
 * microarchitectures.
 */

#ifndef TIA_UARCH_CONFIG_HH
#define TIA_UARCH_CONFIG_HH

#include <array>
#include <optional>
#include <string>
#include <vector>

namespace tia {

/** Where the pipeline registers sit. */
struct PipelineShape
{
    bool splitTD = false; ///< Register between T and D.
    bool splitDX = false; ///< Register between D and X.
    bool splitX = false;  ///< Split the ALU across X1|X2.

    /** Segment index executing the trigger phase (always 0). */
    unsigned segT() const { return 0; }
    /** Segment index executing the decode phase. */
    unsigned segD() const { return splitTD ? 1 : 0; }
    /** Segment executing the first (or only) execute phase. */
    unsigned segX1() const { return segD() + (splitDX ? 1 : 0); }
    /** Segment executing the last execute phase (= segX1 unless split). */
    unsigned segX2() const { return segX1() + (splitX ? 1 : 0); }
    /** Pipeline depth in stages (1 - 4). */
    unsigned depth() const { return segX2() + 1; }

    /** Canonical name, e.g. "T|DX1|X2". */
    std::string name() const;

    /**
     * Per-segment labels in pipeline order — name() split at the
     * registers, e.g. {"T", "DX1", "X2"}. size() == depth(). Used to
     * label stage-occupancy trace tracks (obs/chrome_trace.hh).
     */
    std::vector<std::string> segmentNames() const;

    bool operator==(const PipelineShape &) const = default;
};

/** The eight stage partitions studied in the paper, shallow to deep. */
const std::array<PipelineShape, 8> &allShapes();

/** A complete PE microarchitecture configuration. */
struct PeConfig
{
    PipelineShape shape;
    /** Predicate prediction (+P, Section 5.2). */
    bool predictPredicates = false;
    /** Effective queue status accounting (+Q, Section 5.3). */
    bool effectiveQueueStatus = false;
    /**
     * Nested speculation (+N): the Section 6 extension the paper
     * proposes to reduce forbidden-instruction stalls in deep pipes —
     * a second (and third) prediction may be issued while an earlier
     * one is still unconfirmed. Requires predictPredicates.
     */
    bool nestedSpeculation = false;

    /** Canonical name, e.g. "T|DX1|X2 +P+Q" or "T|D|X1|X2 +P+N+Q". */
    std::string name() const;

    bool operator==(const PeConfig &) const = default;
};

/**
 * All 32 microarchitectures: 8 shapes x {base, +P, +Q, +P+Q}.
 * Ordered by shape (shallow to deep), then base, +P, +Q, +P+Q.
 */
std::vector<PeConfig> allConfigs();

/** The 8 x {base, +P, +P+Q} subset plotted in the paper's Figure 5. */
std::vector<PeConfig> figure5Configs();

/**
 * Parse a canonical configuration name (e.g. "T|DX1|X2 +P+Q",
 * "T|D|X1|X2 +P+N+Q", or "TDX"). Returns nullopt for unknown names.
 */
std::optional<PeConfig> parseConfigName(const std::string &name);

/**
 * Parse a comma-separated list of configuration names, blanks around
 * each entry trimmed. An entry may also be "all" (allConfigs()) or
 * "fig5" (figure5Configs()). An empty or unknown entry is a
 * FatalError.
 */
std::vector<PeConfig> parseConfigList(const std::string &text);

} // namespace tia

#endif // TIA_UARCH_CONFIG_HH
