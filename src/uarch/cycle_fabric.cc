#include "uarch/cycle_fabric.hh"

#include <algorithm>
#include <string>

#include "core/logging.hh"

namespace tia {

CycleFabric::CycleFabric(const FabricConfig &config, const Program &program,
                         const PeConfig &uarch, FaultInjector *injector)
    : config_(config), memory_(config.memoryWords), injector_(injector),
      events_(config.numChannels)
{
    config_.validate();
    fatalIf(program.numPes() > config_.numPes,
            "program targets ", program.numPes(),
            " PEs but the fabric has ", config_.numPes);

    for (unsigned ch = 0; ch < config_.numChannels; ++ch) {
        channels_.push_back(
            std::make_unique<TaggedQueue>(config_.params.queueCapacity));
        if (injector_)
            channels_.back()->setFaultHook(injector_, ch);
        channels_.back()->setEventLog(&events_, ch);
    }
    channelPes_.resize(config_.numChannels);
    peChannels_.resize(config_.numPes);
    parkCandidates_.reserve(config_.numPes);

    // Fault stuck-status windows open and close without queue events,
    // so parked PEs could miss a wake; keep everyone stepping.
    sleepEnabled_ = injector_ == nullptr;

    for (unsigned pe = 0; pe < config_.numPes; ++pe) {
        std::vector<Instruction> insts;
        if (pe < program.numPes())
            insts = program.pes[pe];
        auto pipelined = std::make_unique<PipelinedPe>(
            config_.params, uarch, std::move(insts));
        for (unsigned port = 0; port < config_.params.numInputQueues;
             ++port) {
            const int ch = config_.inputChannel[pe][port];
            if (ch != kUnbound)
                pipelined->bindInput(port, channels_[ch].get());
        }
        for (unsigned port = 0; port < config_.params.numOutputQueues;
             ++port) {
            const int ch = config_.outputChannel[pe][port];
            if (ch != kUnbound)
                pipelined->bindOutput(port, channels_[ch].get());
        }
        if (pe < config_.initialRegs.size())
            pipelined->setRegs(config_.initialRegs[pe]);
        if (pe < config_.initialPreds.size())
            pipelined->setPreds(config_.initialPreds[pe]);
        if (injector_)
            pipelined->setFaultInjector(injector_, pe);

        // Wake subscriptions: the channels whose status can turn one
        // of this PE's triggers eligible. A channel no trigger
        // references never changes the scheduler's verdict.
        auto subscribe = [&](int ch) {
            auto &watchers = channelPes_[ch];
            // PEs are processed one at a time, so this PE's entry — if
            // any — is the last one pushed.
            if (watchers.empty() || watchers.back() != pe) {
                watchers.push_back(pe);
                peChannels_[pe].push_back(static_cast<unsigned>(ch));
            }
        };
        const std::uint32_t in_mask = pipelined->watchedInputs();
        for (unsigned port = 0; port < config_.params.numInputQueues;
             ++port) {
            const int ch = config_.inputChannel[pe][port];
            if (ch != kUnbound && (in_mask & (std::uint32_t{1} << port)))
                subscribe(ch);
        }
        const std::uint32_t out_mask = pipelined->watchedOutputs();
        for (unsigned port = 0; port < config_.params.numOutputQueues;
             ++port) {
            const int ch = config_.outputChannel[pe][port];
            if (ch != kUnbound && (out_mask & (std::uint32_t{1} << port)))
                subscribe(ch);
        }

        pes_.push_back(std::move(pipelined));
    }

    activePes_.reserve(config_.numPes);
    for (unsigned pe = 0; pe < config_.numPes; ++pe)
        activePes_.push_back(pe);
    asleep_.assign(config_.numPes, false);
    sleepSince_.assign(config_.numPes, 0);

    for (const auto &spec : config_.readPorts) {
        readPorts_.push_back(std::make_unique<MemoryReadPort>(
            memory_, *channels_[spec.addrChannel],
            *channels_[spec.dataChannel], config_.memLatency));
        if (injector_) {
            readPorts_.back()->setFaultInjector(
                injector_,
                static_cast<unsigned>(readPorts_.size() - 1));
        }
    }
    for (const auto &spec : config_.writePorts) {
        writePorts_.push_back(std::make_unique<MemoryWritePort>(
            memory_, *channels_[spec.addrChannel],
            *channels_[spec.dataChannel]));
    }
}

void
CycleFabric::syncSleepCounters(unsigned index) const
{
    // The PE last stepped (or was last accounted) at sleepSince_; every
    // cycle since, up to and including the last executed fabric cycle
    // (now_ - 1), would have been exactly one no-trigger cycle.
    const Cycle skipped = now_ - sleepSince_[index] - 1;
    if (skipped > 0) {
        pes_[index]->skipIdleCycles(skipped);
        stepsSkipped_ += skipped;
        sleepSince_[index] = now_ - 1;
    }
}

void
CycleFabric::flushSleepDebt() const
{
    for (unsigned pe = 0; pe < pes_.size(); ++pe) {
        if (asleep_[pe])
            syncSleepCounters(pe);
    }
}

void
CycleFabric::wakeParkedPe(unsigned index)
{
    syncSleepCounters(index);
    asleep_[index] = false;
    activePes_.push_back(index);
    if (trace_) [[unlikely]]
        traceEvent(index, TraceEventKind::Wake);
}

void
CycleFabric::traceEvent(std::uint32_t pe, TraceEventKind kind,
                        std::uint16_t index, std::uint64_t value) const
{
    trace_->record({now_, pe, kind, 0, index, value});
}

void
CycleFabric::traceQueueDepths() const
{
    // One committed-occupancy sample per channel touched this cycle
    // (the dirty list was cleared at step entry, so it now holds
    // exactly this cycle's activity).
    for (unsigned ch : events_.dirtyChannels()) {
        traceEvent(kChannelAgent, TraceEventKind::QueueDepth,
                   static_cast<std::uint16_t>(ch), channels_[ch]->size());
    }
}

void
CycleFabric::setTraceSink(TraceSink *sink, TraceLevel level)
{
    trace_ = sink;
    traceLevel_ = level;
    for (unsigned pe = 0; pe < pes_.size(); ++pe)
        pes_[pe]->setTraceSink(sink, level, pe);
}

void
CycleFabric::setIdleSleepEnabled(bool enabled)
{
    sleepEnabled_ = enabled && injector_ == nullptr;
    if (!sleepEnabled_) {
        for (unsigned pe = 0; pe < pes_.size(); ++pe)
            wakePe(pe);
    }
}

void
CycleFabric::step()
{
    if (injector_)
        injector_->beginCycle(now_);

    // Channels touched last cycle take a fresh occupancy snapshot, and
    // their activity — architecturally visible from this cycle on —
    // wakes any parked watcher. Untouched channels already satisfy
    // snapshotSize() == size() and popsThisCycle() == 0.
    for (unsigned ch : events_.dirtyChannels()) {
        channels_[ch]->beginCycle();
        for (const unsigned pe : channelPes_[ch])
            wakePe(pe);
    }
    events_.clearDirty();

    activeBusyPes_ = 0;
    for (std::size_t i = 0; i < activePes_.size();) {
        stepPe(activePes_[i]);
        if (settleActivePe(i))
            ++i;
    }
    endCycle();
}

[[gnu::always_inline]] inline void
CycleFabric::stepPe(unsigned index)
{
    PipelinedPe &pe = *pes_[index];
    const std::uint64_t retired_before = pe.counters().retired;
    pe.step();
    totalRetired_ += pe.counters().retired - retired_before;
    ++stepsExecuted_;
    sleepSince_[index] = now_;
}

[[gnu::always_inline]] inline bool
CycleFabric::settleActivePe(std::size_t i)
{
    // Retire a halted PE and park a provably idle one (swap-remove —
    // order within a cycle is unobservable because every channel has
    // exactly one producer and one consumer).
    const unsigned index = activePes_[i];
    const PipelinedPe &pe = *pes_[index];
    if (pe.halted()) {
        ++haltedPes_;
        activePes_[i] = activePes_.back();
        activePes_.pop_back();
        return false;
    }
    if (sleepEnabled_ && pe.canSleep()) {
        // Park decision deferred to endCycle(): if a watched channel
        // goes dirty this very cycle the PE would be woken right back
        // at the next cycle's start, so parking it now is pure list
        // churn.
        parkCandidates_.push_back(index);
        activePes_[i] = activePes_.back();
        activePes_.pop_back();
        return false;
    }
    if (pe.busy())
        ++activeBusyPes_;
    return true;
}

void
CycleFabric::endCycle()
{
    for (auto &port : readPorts_)
        port->step(now_);
    for (auto &port : writePorts_)
        port->step(now_);

    // Only channels that actually received pushes have anything to
    // commit.
    for (unsigned ch : events_.pushedChannels())
        channels_[ch]->commit();
    events_.clearPushed();

    // Resolve the deferred parks now that every agent has run: a
    // candidate with a dirty watched channel stays active (it would be
    // woken next cycle anyway), the rest go to sleep. Equivalent to
    // parking eagerly — the kept-active PE executes the same no-trigger
    // step next cycle that wakeParkedPe() would have accounted.
    for (unsigned index : parkCandidates_) {
        bool pending = false;
        for (unsigned ch : peChannels_[index]) {
            if (events_.dirty(ch)) {
                pending = true;
                break;
            }
        }
        if (pending) {
            activePes_.push_back(index);
        } else {
            asleep_[index] = true;
            if (trace_) [[unlikely]]
                traceEvent(index, TraceEventKind::Park);
        }
    }
    parkCandidates_.clear();

    // Depth tracks (`cycles` level only).
    if (trace_ && traceLevel_ == TraceLevel::Cycles) [[unlikely]]
        traceQueueDepths();

    ++now_;
}

bool
CycleFabric::canRunAhead() const
{
    return activePes_.size() == 1 && events_.dirtyChannels().empty() &&
           !injector_ && !trace_ && !portsBusy();
}

void
CycleFabric::runAhead(Cycle limit, std::uint64_t &lastRetired,
                      Cycle &lastActivity)
{
    // canRunAhead() holds: this PE is the only agent that can move.
    // While its steps neither push nor pop, no channel goes dirty, so
    // the next cycle's step() would have no snapshot, wake or verdict
    // drop to perform, the idle memory ports no request to serve, and
    // nothing to commit or park. A cycle that retires or leaves the
    // PE busy is one run()'s bookkeeping records as active.
    const unsigned index = activePes_.front();
    const PipelinedPe &pe = *pes_[index];
    for (;;) {
        const std::uint64_t retired_before = totalRetired_;
        stepPe(index);
        if (!events_.dirtyChannels().empty() || pe.halted() ||
            (sleepEnabled_ && pe.canSleep()) ||
            (totalRetired_ == retired_before && !pe.busy()) ||
            now_ + 1 >= limit) {
            break;
        }
        ++now_;
        lastRetired = totalRetired_;
        lastActivity = now_;
    }
    // The last cycle finishes like any other.
    activeBusyPes_ = 0;
    settleActivePe(0);
    endCycle();
}

bool
CycleFabric::portsBusy() const
{
    for (const auto &port : readPorts_) {
        if (port->busy())
            return true;
    }
    for (const auto &port : writePorts_) {
        if (port->busy())
            return true;
    }
    return false;
}

bool
CycleFabric::anyActivity() const
{
    // Parked PEs are by construction not busy; halted ones are off the
    // active list.
    return activeBusyPes_ > 0 || portsBusy();
}

RunStatus
CycleFabric::run(const FabricRunOptions &options)
{
    std::uint64_t last_retired = totalRetired_;
    std::uint64_t last_events = events_.progressEvents();
    Cycle last_activity = now_;
    Cycle last_progress = now_;
    // First poll happens immediately: a job cancelled while queued
    // returns before simulating a single cycle.
    Cycle next_stop_check = now_;
    for (;;) {
        if (now_ >= options.maxCycles) {
            flushSleepDebt();
            report_ = classifyStepLimit(now_ - last_progress,
                                        options.quiescenceWindow);
            return report_.classification;
        }
        if (options.stop.possible() && now_ >= next_stop_check) {
            if (const char *why = options.stop.why()) {
                flushSleepDebt();
                report_ = HangReport{};
                report_.classification = RunStatus::Cancelled;
                report_.summary = std::string("cancelled (") + why +
                                  ") after " + std::to_string(now_) +
                                  " cycle(s)";
                return RunStatus::Cancelled;
            }
            next_stop_check = now_ + kStopCheckInterval;
        }
        if (haltedPes_ == pes_.size()) {
            report_ = HangReport{};
            report_.classification = RunStatus::Halted;
            report_.summary = "halted: every PE retired a halt";
            flushSleepDebt();
            return RunStatus::Halted;
        }

        if (canRunAhead()) {
            // Stop short of the next budget check and stop-token poll.
            const Cycle limit =
                options.stop.possible()
                    ? std::min(options.maxCycles, next_stop_check)
                    : options.maxCycles;
            runAhead(limit, last_retired, last_activity);
        } else {
            step();
        }

        if (events_.progressEvents() != last_events) {
            last_events = events_.progressEvents();
            last_progress = now_;
        }
        if (totalRetired_ != last_retired || anyActivity()) {
            last_retired = totalRetired_;
            last_activity = now_;
        } else if (now_ - last_activity >= options.quiescenceWindow) {
            flushSleepDebt();
            report_ = diagnoseQuiescence();
            return report_.classification;
        }
    }
}

namespace {

/** Identity of a channel endpoint for wait-for-graph construction. */
struct Endpoint
{
    enum Kind { None, Pe, RPort, WPort } kind = None;
    unsigned index = 0;
    unsigned port = 0; ///< PE port number (diagnostics only).
};

} // namespace

HangReport
CycleFabric::diagnoseQuiescence() const
{
    WaitForGraph graph;

    std::vector<std::size_t> pe_node(pes_.size());
    for (unsigned pe = 0; pe < pes_.size(); ++pe) {
        pe_node[pe] =
            graph.addNode(AgentKind::Pe, pe, "PE " + std::to_string(pe));
    }
    std::vector<std::size_t> ch_node(channels_.size());
    for (unsigned ch = 0; ch < channels_.size(); ++ch) {
        ch_node[ch] = graph.addNode(AgentKind::Channel, ch,
                                    "channel " + std::to_string(ch));
    }
    std::vector<std::size_t> rp_node(readPorts_.size());
    for (unsigned rp = 0; rp < readPorts_.size(); ++rp) {
        rp_node[rp] = graph.addNode(AgentKind::ReadPort, rp,
                                    "read port " + std::to_string(rp));
    }
    std::vector<std::size_t> wp_node(writePorts_.size());
    for (unsigned wp = 0; wp < writePorts_.size(); ++wp) {
        wp_node[wp] = graph.addNode(AgentKind::WritePort, wp,
                                    "write port " + std::to_string(wp));
    }

    // Who produces into and consumes from each channel.
    std::vector<Endpoint> producer(channels_.size());
    std::vector<std::vector<Endpoint>> consumers(channels_.size());
    for (unsigned pe = 0; pe < pes_.size(); ++pe) {
        for (unsigned port = 0; port < config_.params.numOutputQueues;
             ++port) {
            const int ch = config_.outputChannel[pe][port];
            if (ch != kUnbound)
                producer[ch] = {Endpoint::Pe, pe, port};
        }
        for (unsigned port = 0; port < config_.params.numInputQueues;
             ++port) {
            const int ch = config_.inputChannel[pe][port];
            if (ch != kUnbound)
                consumers[ch].push_back({Endpoint::Pe, pe, port});
        }
    }
    for (unsigned rp = 0; rp < config_.readPorts.size(); ++rp) {
        producer[config_.readPorts[rp].dataChannel] = {Endpoint::RPort, rp,
                                                       0};
        consumers[config_.readPorts[rp].addrChannel].push_back(
            {Endpoint::RPort, rp, 0});
    }
    for (unsigned wp = 0; wp < config_.writePorts.size(); ++wp) {
        consumers[config_.writePorts[wp].addrChannel].push_back(
            {Endpoint::WPort, wp, 0});
        consumers[config_.writePorts[wp].dataChannel].push_back(
            {Endpoint::WPort, wp, 1});
    }

    auto endpoint_node = [&](const Endpoint &ep) -> std::size_t {
        switch (ep.kind) {
          case Endpoint::Pe:
            return pe_node[ep.index];
          case Endpoint::RPort:
            return rp_node[ep.index];
          case Endpoint::WPort:
            return wp_node[ep.index];
          case Endpoint::None:
            break;
        }
        return static_cast<std::size_t>(-1);
    };

    // An empty-waited channel is unblocked by its producer; a
    // full-waited channel by its consumers. Edges are added per wait
    // so the two directions never mix on an unwaited channel.
    auto add_empty_wait = [&](std::size_t waiter, unsigned ch,
                              std::string reason) {
        graph.addEdge(waiter, ch_node[ch], std::move(reason));
        const std::size_t prod = endpoint_node(producer[ch]);
        if (prod != static_cast<std::size_t>(-1))
            graph.addEdge(ch_node[ch], prod, "fed by");
    };
    auto add_full_wait = [&](std::size_t waiter, unsigned ch,
                             std::string reason) {
        graph.addEdge(waiter, ch_node[ch], std::move(reason));
        for (const auto &cons : consumers[ch]) {
            const std::size_t node = endpoint_node(cons);
            if (node != static_cast<std::size_t>(-1))
                graph.addEdge(ch_node[ch], node, "drained by");
        }
    };

    // PE wait edges, from the scheduler's own queue view.
    for (unsigned pe = 0; pe < pes_.size(); ++pe) {
        const PeWaitInfo info = pes_[pe]->queueWaits();
        if (!info.blocked())
            continue;
        graph.markBlocked(pe_node[pe]);
        for (unsigned port : info.waitInputs) {
            const int ch = config_.inputChannel[pe][port];
            if (ch != kUnbound) {
                add_empty_wait(pe_node[pe], static_cast<unsigned>(ch),
                               "input %i" + std::to_string(port) +
                                   " empty or wrong tag");
            }
        }
        for (unsigned port : info.waitOutputs) {
            const int ch = config_.outputChannel[pe][port];
            if (ch != kUnbound) {
                add_full_wait(pe_node[pe], static_cast<unsigned>(ch),
                              "output %o" + std::to_string(port) +
                                  " full");
            }
        }
    }

    // A read port that is not producing is waiting for addresses.
    for (unsigned rp = 0; rp < readPorts_.size(); ++rp) {
        if (channels_[config_.readPorts[rp].addrChannel]->empty()) {
            add_empty_wait(rp_node[rp], config_.readPorts[rp].addrChannel,
                           "no requests");
        }
    }
    // A write port with one side of the pair missing waits for it.
    for (unsigned wp = 0; wp < writePorts_.size(); ++wp) {
        const unsigned addr_ch = config_.writePorts[wp].addrChannel;
        const unsigned data_ch = config_.writePorts[wp].dataChannel;
        const bool addr_empty = channels_[addr_ch]->empty();
        const bool data_empty = channels_[data_ch]->empty();
        if (addr_empty != data_empty) {
            add_empty_wait(wp_node[wp], addr_empty ? addr_ch : data_ch,
                           "awaiting paired token");
        }
    }

    return classifyQuiescence(graph);
}

} // namespace tia
