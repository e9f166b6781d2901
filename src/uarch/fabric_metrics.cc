#include "uarch/fabric_metrics.hh"

#include "obs/metrics.hh"

namespace tia {

JsonValue
fabricRunMetrics(const CycleFabric &fabric, const PeConfig &uarch,
                 RunStatus status)
{
    JsonValue run = JsonValue::object();
    run["uarch"] = uarch.name();
    run["status"] = runStatusName(status);
    run["cycles"] = fabric.now();
    run["num_pes"] = fabric.numPes();

    const HangReport &report = fabric.hangReport();
    JsonValue verdict = JsonValue::object();
    verdict["classification"] = runStatusName(report.classification);
    verdict["summary"] = report.summary;
    run["verdict"] = std::move(verdict);

    run["pe_steps_executed"] = fabric.stepStats().peStepsExecuted;

    JsonValue pes = JsonValue::array();
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        const PipelinedPe &state = fabric.pe(pe);
        JsonValue entry =
            peMetricsJson(pe, state.counters(), state.inFlight());
        entry["halted"] = state.halted();
        pes.push(std::move(entry));
    }
    run["pes"] = std::move(pes);

    JsonValue channels = JsonValue::object();
    JsonValue highWater = JsonValue::array();
    unsigned capacity = 0;
    for (unsigned ch = 0; ch < fabric.numChannels(); ++ch) {
        highWater.push(fabric.channel(ch).highWater());
        capacity = fabric.channel(ch).capacity();
    }
    channels["capacity"] = capacity;
    channels["high_water"] = std::move(highWater);
    run["channels"] = std::move(channels);
    return run;
}

} // namespace tia
