#include "obs/metrics.hh"

#include <cmath>

namespace tia {

bool
MetricsRegistry::writeTo(const std::string &path) const
{
    return writeFile(path, dump());
}

JsonValue
countersJson(const PerfCounters &c)
{
    JsonValue out = JsonValue::object();
    out["cycles"] = c.cycles;
    out["retired"] = c.retired;
    out["quashed"] = c.quashed;
    out["predicate_hazard"] = c.predicateHazard;
    out["data_hazard"] = c.dataHazard;
    out["forbidden"] = c.forbidden;
    out["no_trigger"] = c.noTrigger;
    out["predicate_writes"] = c.predicateWrites;
    out["predictions"] = c.predictions;
    out["mispredictions"] = c.mispredictions;
    out["dequeues"] = c.dequeues;
    out["enqueues"] = c.enqueues;
    out["faults_injected"] = c.faultsInjected;
    out["fault_recoveries"] = c.faultRecoveries;
    return out;
}

JsonValue
cpiStackJson(const CpiStack &stack)
{
    JsonValue out = JsonValue::object();
    out["retired"] = stack.retired;
    out["quashed"] = stack.quashed;
    out["predicate_hazard"] = stack.predicateHazard;
    out["data_hazard"] = stack.dataHazard;
    out["forbidden"] = stack.forbidden;
    out["no_trigger"] = stack.noTrigger;
    out["total"] = stack.total();
    return out;
}

JsonValue
peMetricsJson(unsigned pe, const PerfCounters &counters, unsigned inFlight)
{
    JsonValue out = JsonValue::object();
    out["pe"] = pe;
    out["in_flight"] = inFlight;
    // A NaN CPI (nothing retired) serializes as null by design.
    out["cpi"] = counters.cpi();
    out["counters"] = countersJson(counters);
    out["cpi_stack"] = cpiStackJson(cpiStack(counters));
    return out;
}

JsonValue
sleepMetricsJson(std::uint64_t executed, std::uint64_t skipped)
{
    JsonValue out = JsonValue::object();
    out["pe_steps_executed"] = executed;
    out["pe_steps_skipped"] = skipped;
    const std::uint64_t total = executed + skipped;
    out["skip_ratio"] =
        total > 0 ? static_cast<double>(skipped) /
                        static_cast<double>(total)
                  : 0.0;
    return out;
}

namespace {

/** Collects validation problems with a location prefix. */
class Checker
{
  public:
    std::vector<std::string> problems;

    void
    fail(const std::string &where, const std::string &what)
    {
        problems.push_back(where + ": " + what);
    }

    /** Fetch a member, recording a problem when absent. */
    const JsonValue *
    require(const JsonValue &obj, const std::string &where,
            const std::string &key)
    {
        const JsonValue *value = obj.find(key);
        if (value == nullptr)
            fail(where, "missing \"" + key + "\"");
        return value;
    }

    /** Fetch a member that must be a non-negative number. */
    bool
    number(const JsonValue &obj, const std::string &where,
           const std::string &key, double &out)
    {
        const JsonValue *value = require(obj, where, key);
        if (value == nullptr)
            return false;
        if (!value->isNumber() || value->number() < 0.0) {
            fail(where, "\"" + key + "\" must be a non-negative number");
            return false;
        }
        out = value->number();
        return true;
    }
};

void
checkPe(Checker &check, const JsonValue &pe, const std::string &where)
{
    if (!pe.isObject()) {
        check.fail(where, "must be an object");
        return;
    }
    const JsonValue *counters = check.require(pe, where, "counters");
    if (counters == nullptr || !counters->isObject()) {
        if (counters != nullptr)
            check.fail(where, "\"counters\" must be an object");
        return;
    }
    double cycles = 0, retired = 0, quashed = 0, predHazard = 0;
    double dataHazard = 0, forbidden = 0, noTrigger = 0;
    const std::string cwhere = where + ".counters";
    bool ok = check.number(*counters, cwhere, "cycles", cycles);
    ok &= check.number(*counters, cwhere, "retired", retired);
    ok &= check.number(*counters, cwhere, "quashed", quashed);
    ok &= check.number(*counters, cwhere, "predicate_hazard", predHazard);
    ok &= check.number(*counters, cwhere, "data_hazard", dataHazard);
    ok &= check.number(*counters, cwhere, "forbidden", forbidden);
    ok &= check.number(*counters, cwhere, "no_trigger", noTrigger);
    double inFlight = 0;
    ok &= check.number(pe, where, "in_flight", inFlight);
    if (ok) {
        // The attribution contract: every cycle belongs to exactly one
        // bucket, except the cycles claimed by still-in-flight issues.
        const double sum = retired + quashed + predHazard + dataHazard +
                           forbidden + noTrigger + inFlight;
        if (sum != cycles) {
            check.fail(where, "attribution buckets + in_flight (" +
                                  std::to_string(sum) +
                                  ") != cycles (" +
                                  std::to_string(cycles) + ")");
        }
    }
    const JsonValue *cpi = check.require(pe, where, "cpi");
    if (cpi != nullptr) {
        if (cpi->isNull()) {
            if (retired != 0) {
                check.fail(where,
                           "\"cpi\" is null but instructions retired");
            }
        } else if (!cpi->isNumber()) {
            check.fail(where, "\"cpi\" must be a number or null");
        } else if (retired == 0) {
            check.fail(where, "\"cpi\" must be null when nothing "
                              "retired");
        } else if (std::abs(cpi->number() - cycles / retired) > 1e-6) {
            check.fail(where, "\"cpi\" does not equal cycles/retired");
        }
    }
}

void
checkRun(Checker &check, const JsonValue &run, const std::string &where)
{
    if (!run.isObject()) {
        check.fail(where, "must be an object");
        return;
    }
    const JsonValue *uarch = check.require(run, where, "uarch");
    if (uarch != nullptr && !uarch->isString())
        check.fail(where, "\"uarch\" must be a string");
    const JsonValue *status = check.require(run, where, "status");
    if (status != nullptr && !status->isString())
        check.fail(where, "\"status\" must be a string");
    double cycles = 0;
    check.number(run, where, "cycles", cycles);

    const JsonValue *pes = check.require(run, where, "pes");
    double peCycleSum = 0.0;
    std::size_t peCount = 0;
    if (pes != nullptr) {
        if (!pes->isArray()) {
            check.fail(where, "\"pes\" must be an array");
        } else {
            peCount = pes->items().size();
            for (std::size_t i = 0; i < peCount; ++i) {
                const std::string pwhere =
                    where + ".pes[" + std::to_string(i) + "]";
                checkPe(check, pes->items()[i], pwhere);
                if (const JsonValue *counters =
                        pes->items()[i].find("counters")) {
                    if (const JsonValue *c = counters->find("cycles")) {
                        if (c->isNumber())
                            peCycleSum += c->number();
                    }
                }
            }
        }
    }

    const JsonValue *sleep = run.find("sleep");
    if (sleep != nullptr && sleep->isObject()) {
        const std::string swhere = where + ".sleep";
        double executed = 0, skipped = 0, ratio = 0;
        bool ok =
            check.number(*sleep, swhere, "pe_steps_executed", executed);
        ok &= check.number(*sleep, swhere, "pe_steps_skipped", skipped);
        ok &= check.number(*sleep, swhere, "skip_ratio", ratio);
        if (ok && ratio > 1.0)
            check.fail(swhere, "skip_ratio above 1");
        // Executed + skipped steps account for every PE cycle — but
        // only checkable when the document reports every PE.
        const JsonValue *numPes = run.find("num_pes");
        if (ok && numPes != nullptr && numPes->isNumber() &&
            static_cast<std::size_t>(numPes->number()) == peCount &&
            executed + skipped != peCycleSum) {
            check.fail(swhere,
                       "pe_steps_executed + pe_steps_skipped (" +
                           std::to_string(executed + skipped) +
                           ") != sum of per-PE cycles (" +
                           std::to_string(peCycleSum) + ")");
        }
    }
}

// The optional root "cache" block (SimCache::statsJson). Lookups are
// exhaustively partitioned: every lookup is exactly one of a hit, a
// miss (the leader computing), or a coalesced wait on a leader; and a
// verified hit is still a hit.
void
checkCacheStats(Checker &check, const JsonValue &cache)
{
    const std::string where = "cache";
    if (!cache.isObject()) {
        check.fail(where, "must be an object");
        return;
    }
    double lookups = 0, hits = 0, misses = 0, coalesced = 0;
    double verified = 0;
    bool ok = check.number(cache, where, "lookups", lookups);
    ok &= check.number(cache, where, "hits", hits);
    ok &= check.number(cache, where, "misses", misses);
    ok &= check.number(cache, where, "coalesced", coalesced);
    ok &= check.number(cache, where, "verified_hits", verified);
    if (!ok)
        return;
    if (hits + misses + coalesced != lookups) {
        check.fail(where, "hits + misses + coalesced (" +
                              std::to_string(hits + misses + coalesced) +
                              ") != lookups (" + std::to_string(lookups) +
                              ")");
    }
    if (verified > hits)
        check.fail(where, "verified_hits exceeds hits");
}

// The optional root "matrix" block (tia-sweep): every cell of the
// CPI matrix was simulated, derived from a sibling's run, or served by
// the cache — a hit, or a wait on another caller's computation.
void
checkMatrixStats(Checker &check, const JsonValue &matrix,
                 const JsonValue *cache)
{
    const std::string where = "matrix";
    if (!matrix.isObject()) {
        check.fail(where, "must be an object");
        return;
    }
    double cells = 0, simulated = 0, derived = 0;
    bool ok = check.number(matrix, where, "cells", cells);
    ok &= check.number(matrix, where, "simulated", simulated);
    ok &= check.number(matrix, where, "derived", derived);
    double hits = 0, coalesced = 0;
    if (cache != nullptr && cache->isObject()) {
        ok &= check.number(*cache, "cache", "hits", hits);
        ok &= check.number(*cache, "cache", "coalesced", coalesced);
    }
    if (ok && simulated + derived + hits + coalesced != cells) {
        check.fail(where, "simulated + derived + cache hits + coalesced (" +
                              std::to_string(simulated + derived + hits +
                                             coalesced) +
                              ") != cells (" + std::to_string(cells) + ")");
    }
}

// The optional root "server" block (Server::serverStatsJson). The
// accounting identities are the service's no-silent-drop contract in
// arithmetic form: every received request is admitted, shed or
// rejected; every admitted request is in exactly one terminal (or
// still-live) bucket.
void
checkServerStats(Checker &check, const JsonValue &server)
{
    const std::string where = "server";
    if (!server.isObject()) {
        check.fail(where, "must be an object");
        return;
    }
    double received = 0, admitted = 0, rejected = 0, shed = 0;
    double shedQueueFull = 0, shedQuota = 0, shedDraining = 0;
    double completed = 0, cancelled = 0, cancelledDeadline = 0;
    double cancelledDisconnect = 0, failed = 0, hangs = 0;
    double active = 0, queueDepth = 0, queueCapacity = 0;
    double queueHighWater = 0, connections = 0, connectionsTotal = 0;
    bool ok = check.number(server, where, "received", received);
    ok &= check.number(server, where, "admitted", admitted);
    ok &= check.number(server, where, "rejected", rejected);
    ok &= check.number(server, where, "shed", shed);
    ok &= check.number(server, where, "shed_queue_full", shedQueueFull);
    ok &= check.number(server, where, "shed_quota", shedQuota);
    ok &= check.number(server, where, "shed_draining", shedDraining);
    ok &= check.number(server, where, "completed", completed);
    ok &= check.number(server, where, "cancelled", cancelled);
    ok &= check.number(server, where, "cancelled_deadline",
                       cancelledDeadline);
    ok &= check.number(server, where, "cancelled_disconnect",
                       cancelledDisconnect);
    ok &= check.number(server, where, "failed", failed);
    ok &= check.number(server, where, "hangs", hangs);
    ok &= check.number(server, where, "active", active);
    ok &= check.number(server, where, "queue_depth", queueDepth);
    ok &= check.number(server, where, "queue_capacity", queueCapacity);
    ok &= check.number(server, where, "queue_high_water", queueHighWater);
    ok &= check.number(server, where, "connections", connections);
    ok &= check.number(server, where, "connections_total",
                       connectionsTotal);
    if (ok) {
        if (admitted + shed + rejected != received) {
            check.fail(where,
                       "admitted + shed + rejected (" +
                           std::to_string(admitted + shed + rejected) +
                           ") != received (" + std::to_string(received) +
                           ")");
        }
        if (shedQueueFull + shedQuota + shedDraining != shed)
            check.fail(where, "shed buckets do not sum to shed");
        if (completed + cancelled + failed + active + queueDepth !=
            admitted) {
            check.fail(where,
                       "completed + cancelled + failed + active + "
                       "queue_depth (" +
                           std::to_string(completed + cancelled + failed +
                                          active + queueDepth) +
                           ") != admitted (" + std::to_string(admitted) +
                           ")");
        }
        if (cancelledDeadline + cancelledDisconnect != cancelled)
            check.fail(where, "cancelled buckets do not sum to cancelled");
        if (hangs > completed)
            check.fail(where, "hangs exceeds completed");
        if (queueDepth > queueCapacity)
            check.fail(where, "queue_depth exceeds queue_capacity");
        if (queueHighWater > queueCapacity)
            check.fail(where, "queue_high_water exceeds queue_capacity");
        if (connections > connectionsTotal)
            check.fail(where, "connections exceeds connections_total");
    }
    const JsonValue *latency = check.require(server, where, "latency_ms");
    if (latency != nullptr && latency->isObject()) {
        const std::string lwhere = where + ".latency_ms";
        double count = 0, p50 = 0, p99 = 0, maxMs = 0;
        bool lok = check.number(*latency, lwhere, "count", count);
        lok &= check.number(*latency, lwhere, "p50", p50);
        lok &= check.number(*latency, lwhere, "p99", p99);
        lok &= check.number(*latency, lwhere, "max", maxMs);
        if (lok) {
            if (ok && count > completed)
                check.fail(lwhere, "count exceeds completed");
            if (count > 0 && (p50 > p99 || p99 > maxMs))
                check.fail(lwhere, "percentiles not ordered "
                                   "(p50 <= p99 <= max)");
        }
    } else if (latency != nullptr) {
        check.fail(where, "\"latency_ms\" must be an object");
    }
}

} // namespace

std::vector<std::string>
validateMetricsDocument(const JsonValue &doc)
{
    Checker check;
    if (!doc.isObject()) {
        check.fail("document", "top level must be an object");
        return check.problems;
    }
    const JsonValue *schema = check.require(doc, "document", "schema");
    if (schema != nullptr &&
        (!schema->isString() || schema->str() != kMetricsSchema)) {
        check.fail("document", std::string("\"schema\" must be \"") +
                                   kMetricsSchema + "\"");
    }
    const JsonValue *runs = check.require(doc, "document", "runs");
    if (runs != nullptr) {
        if (!runs->isArray()) {
            check.fail("document", "\"runs\" must be an array");
        } else if (runs->items().empty()) {
            // Service documents (tia-serve) legitimately carry zero
            // runs: their payload is the "server" block.
            if (doc.find("server") == nullptr)
                check.fail("document", "\"runs\" is empty");
        } else {
            for (std::size_t i = 0; i < runs->items().size(); ++i) {
                checkRun(check, runs->items()[i],
                         "runs[" + std::to_string(i) + "]");
            }
        }
    }
    if (const JsonValue *cache = doc.find("cache"))
        checkCacheStats(check, *cache);
    if (const JsonValue *matrix = doc.find("matrix"))
        checkMatrixStats(check, *matrix, doc.find("cache"));
    if (const JsonValue *server = doc.find("server"))
        checkServerStats(check, *server);
    return check.problems;
}

} // namespace tia
