#include "vlsi/dse.hh"

#include <algorithm>
#include <limits>

#include "core/logging.hh"
#include "exec/pipeline.hh"
#include "vlsi/pareto.hh"
#include "vlsi/timing.hh"

namespace tia {

double
DesignSpace::cpiFor(const PeConfig &config) const
{
    const auto it = cpi_.find(config.name());
    fatalIf(it == cpi_.end(), "no CPI measurement for ", config.name());
    return it->second;
}

DesignPoint
DesignSpace::evaluate(const PeConfig &config, VtClass vt, double vdd,
                      double freq_mhz) const
{
    DesignPoint point;
    point.config = config;
    point.vt = vt;
    point.vdd = vdd;
    point.freqMhz = freq_mhz;
    point.maxFreqMhz = maxFrequencyMhz(config, vdd, vt, tech_);
    fatalIf(freq_mhz > point.maxFreqMhz,
            "target frequency above timing closure for ", config.name());

    point.cpi = cpiFor(config);
    point.areaUm2 = model_.areaUm2(config);

    const double dyn_pj = model_.dynamicEnergyPerCyclePj(
        config, vdd, freq_mhz, point.maxFreqMhz);
    const double leak_mw = model_.leakagePowerMw(config, vdd, vt);
    const double leak_pj_per_cycle = leak_mw * 1.0e3 / freq_mhz;

    point.nsPerInstruction = point.cpi * 1.0e3 / freq_mhz;
    point.pjPerInstruction = point.cpi * (dyn_pj + leak_pj_per_cycle);
    point.powerMw = dyn_pj * freq_mhz * 1.0e-3 + leak_mw;
    return point;
}

std::vector<double>
DesignSpace::supplyGrid(VtClass vt)
{
    if (vt == VtClass::Standard)
        return {0.6, 0.7, 0.8, 0.9, 1.0};
    return {0.4, 0.6, 0.8, 1.0};
}

namespace {

/** The methodology frequency grid, refined around @p tech's thresholds. */
std::vector<double>
gridFor(VtClass vt, double vdd, const TechModel &tech)
{
    std::vector<double> grid;
    // Base grid: 100 MHz to 1.5 GHz at 100 MHz granularity.
    for (double f = 100.0; f <= 1500.0; f += 100.0)
        grid.push_back(f);
    // Near-threshold refinement: the midpoints 150/250/350/450 MHz,
    // which together with the base grid's 100..500 MHz points give
    // 50 MHz granularity below 500 MHz.
    const bool near_threshold = vdd <= tech.thresholdV(vt) + 0.35;
    if (near_threshold) {
        for (double f = 150.0; f <= 450.0; f += 100.0)
            grid.push_back(f);
    }
    // Subthreshold high-VT refinement: 10 MHz increments through
    // 100 MHz.
    if (vt == VtClass::High && vdd <= tech.thresholdV(vt)) {
        for (double f = 10.0; f <= 90.0; f += 10.0)
            grid.push_back(f);
    }
    std::sort(grid.begin(), grid.end());
    return grid;
}

} // namespace

std::vector<double>
DesignSpace::frequencyGridMhz(VtClass vt, double vdd) const
{
    return gridFor(vt, vdd, tech_);
}

std::size_t
DesignSpace::gridSize(const std::vector<PeConfig> &configs) const
{
    std::size_t count = 0;
    for (VtClass vt : {VtClass::Low, VtClass::Standard, VtClass::High}) {
        for (double vdd : supplyGrid(vt))
            count += frequencyGridMhz(vt, vdd).size();
    }
    return count * configs.size();
}

std::vector<DesignPoint>
DesignSpace::enumerate(const std::vector<PeConfig> &configs) const
{
    return enumerateStreamed(1, configs).points;
}

namespace {

/**
 * One DSE shard per (config, vt, vdd): big enough to amortize task
 * dispatch, and the concatenation order equals the serial loop nest's
 * point order.
 */
struct DseShard
{
    const PeConfig *config;
    VtClass vt;
    double vdd;
};

std::vector<DseShard>
dseShards(const std::vector<PeConfig> &configs)
{
    std::vector<DseShard> shards;
    for (const PeConfig &config : configs) {
        for (VtClass vt :
             {VtClass::Low, VtClass::Standard, VtClass::High}) {
            for (double vdd : DesignSpace::supplyGrid(vt))
                shards.push_back({&config, vt, vdd});
        }
    }
    return shards;
}

} // namespace

DseStreamResult
DesignSpace::enumerateStreamed(unsigned jobs,
                               const std::vector<PeConfig> &configs,
                               const DseStreamOptions &options) const
{
    const std::vector<DseShard> shards = dseShards(configs);

    DseStreamResult result;
    result.shardsTotal = shards.size();

    IncrementalPareto pareto;
    std::size_t sinceChange = 0; // points sunk since last frontier change
    StopSource earlyStop;

    const SweepPipeline pipeline(jobs);
    const PipelineResult run = pipeline.run(
        shards.size(),
        [&](std::size_t i) {
            const DseShard &shard = shards[i];
            std::vector<DesignPoint> points;
            const double fmax = maxFrequencyMhz(*shard.config, shard.vdd,
                                                shard.vt, tech_);
            for (double f : frequencyGridMhz(shard.vt, shard.vdd)) {
                if (f > fmax)
                    break;
                points.push_back(
                    evaluate(*shard.config, shard.vt, shard.vdd, f));
            }
            return points;
        },
        [&](std::size_t, std::vector<DesignPoint> &&shardPoints) {
            // Shards already in flight when the window closed are
            // dropped, so the result is the serial prefix at any jobs.
            if (earlyStop.stopRequested())
                return;
            bool changed = false;
            for (DesignPoint &point : shardPoints) {
                if (pareto.add(point)) {
                    changed = true;
                    sinceChange = 0;
                } else {
                    ++sinceChange;
                }
                result.points.push_back(std::move(point));
            }
            ++result.shardsCompleted;
            if (changed && options.onFrontierUpdate)
                options.onFrontierUpdate(pareto.pointsSeen(),
                                         pareto.frontier());
            if (options.stableWindow != 0 &&
                sinceChange >= options.stableWindow)
                earlyStop.requestStop();
        },
        earlyStop.token());

    result.frontier = pareto.frontier();
    result.frontierUpdates = pareto.updates();
    result.earlyExit = result.shardsCompleted < result.shardsTotal;
    result.jobs = run.jobs;
    result.wallMs = run.wallMs;
    return result;
}

std::vector<DesignPoint>
DesignSpace::paretoFrontier(std::vector<DesignPoint> points)
{
    std::sort(points.begin(), points.end(),
              [](const DesignPoint &a, const DesignPoint &b) {
                  if (a.nsPerInstruction != b.nsPerInstruction)
                      return a.nsPerInstruction < b.nsPerInstruction;
                  return a.pjPerInstruction < b.pjPerInstruction;
              });
    std::vector<DesignPoint> frontier;
    double best_energy = std::numeric_limits<double>::infinity();
    for (const DesignPoint &point : points) {
        if (point.pjPerInstruction < best_energy) {
            frontier.push_back(point);
            best_energy = point.pjPerInstruction;
        }
    }
    return frontier;
}

} // namespace tia
