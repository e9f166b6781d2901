#include "vlsi/dse.hh"

#include <algorithm>
#include <limits>

#include "core/logging.hh"
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
    std::vector<DesignPoint> points;
    for (const PeConfig &config : configs) {
        for (VtClass vt :
             {VtClass::Low, VtClass::Standard, VtClass::High}) {
            for (double vdd : supplyGrid(vt)) {
                const double fmax = maxFrequencyMhz(config, vdd, vt, tech_);
                for (double f : frequencyGridMhz(vt, vdd)) {
                    if (f > fmax)
                        break;
                    points.push_back(evaluate(config, vt, vdd, f));
                }
            }
        }
    }
    return points;
}

DseStreamResult
DesignSpace::enumerateStreamed(unsigned, const std::vector<PeConfig> &configs,
                               const DseStreamOptions &) const
{
    DseStreamResult result;
    result.points = enumerate(configs);
    result.frontier = paretoFrontier(result.points);
    return result;
}

std::vector<DesignPoint>
DesignSpace::paretoFrontier(std::vector<DesignPoint> points)
{
    // Stable, so an exact (ns, pJ) tie keeps enumeration order and the
    // sweep below keeps the earliest of the tied points.
    std::stable_sort(points.begin(), points.end(),
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
