#include "cache/run_cache.hh"

#include "cache/serialize.hh"

namespace tia {

namespace {

/**
 * Domain separator: a key names its payload kind, so a future payload
 * kind sharing a SimCache file can never collide with a WorkloadRun
 * whose serialized inputs happen to match. Part of the key bytes:
 * changing it invalidates every persisted tier.
 */
constexpr std::string_view kDomain = "tia.workload-run";

void
writeCounters(ByteWriter &out, const PerfCounters &counters)
{
    out.u64(counters.cycles);
    out.u64(counters.retired);
    out.u64(counters.quashed);
    out.u64(counters.predicateHazard);
    out.u64(counters.dataHazard);
    out.u64(counters.forbidden);
    out.u64(counters.noTrigger);
    out.u64(counters.predicateWrites);
    out.u64(counters.predictions);
    out.u64(counters.mispredictions);
    out.u64(counters.dequeues);
    out.u64(counters.enqueues);
    out.u64(counters.faultsInjected);
    out.u64(counters.faultRecoveries);
}

void
readCounters(ByteReader &in, PerfCounters &counters)
{
    counters.cycles = in.u64();
    counters.retired = in.u64();
    counters.quashed = in.u64();
    counters.predicateHazard = in.u64();
    counters.dataHazard = in.u64();
    counters.forbidden = in.u64();
    counters.noTrigger = in.u64();
    counters.predicateWrites = in.u64();
    counters.predictions = in.u64();
    counters.mispredictions = in.u64();
    counters.dequeues = in.u64();
    counters.enqueues = in.u64();
    counters.faultsInjected = in.u64();
    counters.faultRecoveries = in.u64();
}

void
writeStringList(ByteWriter &out, const std::vector<std::string> &list)
{
    out.u64(list.size());
    for (const std::string &s : list)
        out.str(s);
}

bool
readStringList(ByteReader &in, std::vector<std::string> &list)
{
    const std::uint64_t count = in.u64();
    if (count > in.remaining() / 8) // each entry has an 8-byte prefix
        return false;
    list.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        list.push_back(in.str());
    return in.ok();
}

/**
 * Read one enum byte into @p out; false when it lies past @p last, the
 * enum's final enumerator (a payload from a build with more values).
 */
template <typename Enum>
bool
readEnum(ByteReader &in, Enum &out, Enum last)
{
    const std::uint8_t byte = in.u8();
    if (byte > static_cast<std::uint8_t>(last))
        return false;
    out = static_cast<Enum>(byte);
    return true;
}

} // namespace

Digest128
workloadRunKey(const Workload &workload, const PeConfig &uarch,
               const CycleRunOptions &options)
{
    ByteWriter key;
    key.u32(kCacheSchemaVersion);
    key.str(kDomain);
    key.str(workload.name);
    serializeProgram(key, workload.program);
    serializeFabricConfig(key, workload.config);
    key.u32(workload.workerPe);

    key.u64(workload.inputs.size());
    for (const MemorySegment &segment : workload.inputs) {
        key.u32(segment.base);
        key.u32s(segment.words);
    }

    serializePeConfig(key, uarch);

    key.u64(options.maxCycles);
    key.u64(options.quiescenceWindow);
    serializeFaultPlan(key, options.faults);
    // referenceScheduler is proven bit-identical to the fast path, but
    // it is still a distinct requested computation; keep it in the key
    // so a cross-check run never silently reuses a fast-path result.
    key.u8(options.referenceScheduler ? 1 : 0);

    return digest128(key.data());
}

std::string
encodeWorkloadRun(const WorkloadRun &run)
{
    ByteWriter out;
    out.u8(static_cast<std::uint8_t>(run.status));
    out.str(run.checkError);
    writeCounters(out, run.worker);
    out.u64(run.workerInFlight);
    out.u32(run.workerPe);
    out.u64(run.dynamicInstructions.size());
    for (std::uint64_t n : run.dynamicInstructions)
        out.u64(n);
    out.u64(run.totalCycles);

    out.u8(static_cast<std::uint8_t>(run.hang.classification));
    out.str(run.hang.summary);
    writeStringList(out, run.hang.waitChain);
    writeStringList(out, run.hang.blockedAgents);

    out.u8(static_cast<std::uint8_t>(run.faultOutcome));
    out.u64(run.faultStats.lines.size());
    for (const FaultStats::Line &line : run.faultStats.lines) {
        out.str(line.name);
        out.u64(line.fired);
        out.u64(line.declined);
    }

    out.u64(run.peStepsExecuted);
    return out.take();
}

std::optional<WorkloadRun>
decodeWorkloadRun(const std::string &payload)
{
    ByteReader in(payload);
    WorkloadRun run;
    if (!readEnum(in, run.status, RunStatus::Cancelled))
        return std::nullopt;
    run.checkError = in.str();
    readCounters(in, run.worker);
    run.workerInFlight = in.u64();
    run.workerPe = in.u32();
    const std::uint64_t numPes = in.u64();
    if (numPes > in.remaining() / 8)
        return std::nullopt;
    run.dynamicInstructions.reserve(numPes);
    for (std::uint64_t i = 0; i < numPes; ++i)
        run.dynamicInstructions.push_back(in.u64());
    run.totalCycles = in.u64();

    if (!readEnum(in, run.hang.classification, RunStatus::Cancelled))
        return std::nullopt;
    run.hang.summary = in.str();
    if (!readStringList(in, run.hang.waitChain) ||
        !readStringList(in, run.hang.blockedAgents))
        return std::nullopt;

    if (!readEnum(in, run.faultOutcome, FaultOutcome::Hung))
        return std::nullopt;
    const std::uint64_t numLines = in.u64();
    if (numLines > in.remaining() / 24)
        return std::nullopt;
    run.faultStats.lines.reserve(numLines);
    for (std::uint64_t i = 0; i < numLines; ++i) {
        FaultStats::Line line;
        line.name = in.str();
        line.fired = in.u64();
        line.declined = in.u64();
        run.faultStats.lines.push_back(std::move(line));
    }

    run.peStepsExecuted = in.u64();
    if (!in.done())
        return std::nullopt;
    return run;
}

} // namespace tia
