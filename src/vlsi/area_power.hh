/**
 * @file
 * Area and power model calibrated to the paper's absolute numbers.
 *
 * Anchors (all at 1.0 V, standard VT, 500 MHz unless noted):
 *  - Single-cycle PE: 64,435 um^2, 1.95 mW, with the Figure 3
 *    component breakdown (instruction store 25% area / 41% power,
 *    queues 18% / 22%, scheduler 6% / 5%, front end 32% / 48%, back
 *    end 46% / 23%).
 *  - T|D|X1|X2 baseline: 63,991.4 um^2, 2.852 mW.
 *  - +P: 64,278.4 um^2, 3.048 mW (+7% power). +Q: 64,131.8 um^2, no
 *    measurable power change. Both: 64,895.4 um^2, 3.077 mW.
 *  - Output-queue padding alternative: 72,439.4 um^2, 3.194 mW.
 *  - Each pipeline register adds 0.301 mW at 500 MHz.
 *
 * Dynamic energy scales as VDD^2 times a synthesis "timing pressure"
 * factor gamma(f_target/f_max) that models cell upsizing near timing
 * closure ("the push for timing will inflate the resulting design",
 * Section 5.4) and downsizing under relaxed targets. Leakage uses
 * TechModel::leakageFactor.
 */

#ifndef TIA_VLSI_AREA_POWER_HH
#define TIA_VLSI_AREA_POWER_HH

#include <string>
#include <vector>

#include "uarch/config.hh"
#include "vlsi/tech.hh"
#include "vlsi/timing.hh"

namespace tia {

/** One component row of the Figure 3 breakdown. */
struct ComponentShare
{
    std::string name;
    double areaFraction;  ///< Of single-cycle PE area.
    double powerFraction; ///< Of single-cycle PE power.
};

/** The Figure 3 breakdown (fractions sum to 1). */
const std::vector<ComponentShare> &singleCycleBreakdown();

/**
 * Instruction-storage medium for the trigger-parallel instruction
 * memory (Section 4). Triggered control requires all trigger fields
 * combinationally exposed to the scheduler, so the store defaults to
 * clock-gated registers. Latches shrink it but lengthen the trigger
 * critical path (the paper abandoned them); a mixed register /
 * latch-SRAM organization keeps trigger fields in registers and moves
 * datapath-only fields (e.g. the immediate) into SRAM, which is legal
 * only when the trigger stage is pipelined apart from decode.
 */
enum class InstructionStorage
{
    ClockGatedRegister, ///< The paper's chosen design point.
    Latch,              ///< -30% area / -75% power on the store; slower.
    MixedRegisterSram,  ///< -16% area / -24% power on the store (CACTI).
};

/** Options beyond the PeConfig knobs that affect area/power. */
struct ImplementationOptions
{
    /**
     * Use the WaveScalar-style padded output queues ("reject buffer")
     * instead of effective queue status — for the Section 5.4 cost
     * comparison only.
     */
    bool paddedOutputQueues = false;

    /** Instruction-store medium (Section 4 alternatives study). */
    InstructionStorage instructionStorage =
        InstructionStorage::ClockGatedRegister;
};

class AreaPowerModel
{
  public:
    /** PE area in um^2 for @p config. */
    double areaUm2(const PeConfig &config,
                   const ImplementationOptions &opts = {}) const;

    /**
     * Dynamic energy per cycle in pJ under the bst activity profile
     * (the paper's gate-level activity input), at supply @p vdd,
     * synthesized for @p freq_mhz given the config's maximum
     * frequency at that operating point.
     */
    double dynamicEnergyPerCyclePj(const PeConfig &config, double vdd,
                                   double freq_mhz, double max_freq_mhz,
                                   const ImplementationOptions &opts =
                                       {}) const;

    /** Leakage power in mW at (@p vdd, @p vt). */
    double leakagePowerMw(const PeConfig &config, double vdd, VtClass vt,
                          const ImplementationOptions &opts = {}) const;

    /**
     * Power at the paper's calibration operating point: 1.0 V,
     * standard VT, a relaxed 500 MHz synthesis target (unit sizing
     * pressure). This reproduces the Figure 3 and Section 5.4
     * absolute milliwatt numbers.
     */
    double calibrationPowerMw(const PeConfig &config,
                              const ImplementationOptions &opts =
                                  {}) const;

    // --- Calibration constants (paper anchors) -------------------------

    /** Single-cycle PE area (Figure 3). */
    static constexpr double kSingleCycleAreaUm2 = 64'435.0;
    /** Pipelined PE base area (Section 5.4, T|D|X1|X2 baseline). */
    static constexpr double kPipelinedAreaUm2 = 63'991.4;
    /** Area deltas for the optional units (Section 5.4). */
    static constexpr double kSpecAreaUm2 = 287.0;       // 64,278.4 - base
    static constexpr double kQueueStatusAreaUm2 = 140.4; // 64,131.8 - base
    static constexpr double kBothAreaUm2 = 904.0;        // 64,895.4 - base
    static constexpr double kPaddingAreaUm2 = 8'448.0;   // 72,439.4 - base

    /** Dynamic energy per cycle at 1.0 V, gamma = 1 (bst activity). */
    static constexpr double kLogicEnergyPj = 3.698;   // core logic+queues
    static constexpr double kRegisterEnergyPj = 0.602; // per pipe boundary
    static constexpr double kSpecEnergyPj = 0.399;    // +P (+7% power)
    static constexpr double kPaddingEnergyPj = 0.684; // padded queues (+12%)

    /** Leakage of the std-VT pipelined baseline at 1.0 V, in mW. */
    static constexpr double kBaseLeakageMw = 0.100;

    /** Instruction store share of PE area / power (Fig. 3 anchors). */
    static constexpr double kInsMemAreaFraction = 0.25;
    static constexpr double kInsMemPowerFraction = 0.41;

  private:
    double gamma(double freq_mhz, double max_freq_mhz) const;
    /** Area multiplier on the instruction store for a medium. */
    static double storageAreaScale(InstructionStorage storage);
    /** Power multiplier on the instruction store for a medium. */
    static double storagePowerScale(InstructionStorage storage);
    /** Validate storage/shape compatibility (Section 4 constraint). */
    static void checkStorage(const PeConfig &config,
                             const ImplementationOptions &opts);

    TechModel tech_;
};

} // namespace tia

#endif // TIA_VLSI_AREA_POWER_HH
