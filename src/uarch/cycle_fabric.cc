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
            channels_.back()->setFaultInjector(injector_, ch);
        channels_.back()->setEventLog(&events_, ch);
    }

    for (unsigned pe = 0; pe < config_.numPes; ++pe) {
        std::vector<Instruction> insts;
        if (pe < program.numPes())
            insts = program.pes[pe];
        auto pipelined = std::make_unique<PipelinedPe>(
            config_.params, uarch, std::move(insts));
        if (pe < config_.initialRegs.size())
            pipelined->setRegs(config_.initialRegs[pe]);
        if (pe < config_.initialPreds.size())
            pipelined->setPreds(config_.initialPreds[pe]);
        if (injector_)
            pipelined->setFaultInjector(injector_, pe);

        pes_.push_back(std::move(pipelined));
    }

    // Bind each channel to its end PEs' ports.
    const std::vector<ChannelEnds> ends = config_.channelEnds();
    for (unsigned ch = 0; ch < config_.numChannels; ++ch) {
        TaggedQueue *queue = channels_[ch].get();
        const ChannelEnd &prod = ends[ch].producer;
        if (prod.kind == ChannelEnd::Kind::Pe)
            pes_[prod.index]->bindOutput(prod.port, queue);
        const ChannelEnd &cons = ends[ch].consumer;
        if (cons.kind == ChannelEnd::Kind::Pe)
            pes_[cons.index]->bindInput(cons.port, queue);
    }

    activePes_.reserve(config_.numPes);
    for (unsigned pe = 0; pe < config_.numPes; ++pe)
        activePes_.push_back(pe);

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
CycleFabric::traceQueueDepths() const
{
    // One committed-occupancy sample per channel touched this cycle
    // (the dirty list was cleared at step entry, so it now holds
    // exactly this cycle's activity).
    for (unsigned ch : events_.dirtyChannels()) {
        trace_->record({now_, kChannelAgent, TraceEventKind::QueueDepth, 0,
                        static_cast<std::uint16_t>(ch),
                        channels_[ch]->size()});
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
CycleFabric::step()
{
    if (injector_)
        injector_->beginCycle(now_);

    // Channels touched last cycle take a fresh occupancy snapshot.
    // Untouched channels already satisfy snapshotSize() == size() and
    // popsThisCycle() == 0.
    for (unsigned ch : events_.dirtyChannels())
        channels_[ch]->beginCycle();
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
}

[[gnu::always_inline]] inline bool
CycleFabric::settleActivePe(std::size_t i)
{
    // Retire a halted PE (swap-remove: order within a cycle is
    // unobservable because every channel has exactly one producer and
    // one consumer).
    const PipelinedPe &pe = *pes_[activePes_[i]];
    if (pe.halted()) {
        ++haltedPes_;
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

    // Only channels touched this cycle can hold pushes to commit (a
    // pop-only channel's commit() is a no-op).
    for (unsigned ch : events_.dirtyChannels())
        channels_[ch]->commit();

    // Depth tracks (`cycles` level only).
    if (trace_ && traceLevel_ == TraceLevel::Cycles) [[unlikely]]
        traceQueueDepths();

    ++now_;
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
    // Halted PEs are off the active list.
    return activeBusyPes_ > 0 || portsBusy();
}

RunStatus
CycleFabric::run(const FabricRunOptions &options)
{
    FabricMemo::RunMarks last;
    last.retired = totalRetired_;
    last.events = events_.progressEvents();
    last.activity = now_;
    last.progress = now_;
    // First poll happens immediately: a job cancelled while queued
    // returns before simulating a single cycle.
    Cycle next_stop_check = now_;
    // The control memo engages once this run has taken kEngageAfter
    // cycles, and again that long after it last lost its place.
    const bool memo_allowed = !trace_ && !injector_ && !referenceScheduler_;
    Cycle memo_at = now_ + FabricMemo::kEngageAfter;
    auto leave_memo = [&] {
        if (memo_)
            memo_->leave();
    };
    auto quiescent = [&] {
        leave_memo();
        report_ = diagnoseQuiescence();
        return report_.classification;
    };
    for (;;) {
        if (now_ >= options.maxCycles) {
            leave_memo();
            report_ = classifyStepLimit(now_ - last.progress,
                                        options.quiescenceWindow);
            return report_.classification;
        }
        if (options.stop.possible() && now_ >= next_stop_check) {
            if (const char *why = options.stop.why()) {
                leave_memo();
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
            leave_memo();
            report_ = HangReport{};
            report_.classification = RunStatus::Halted;
            report_.summary = "halted: every PE retired a halt";
            return RunStatus::Halted;
        }

        if (memo_ && memo_->following()) {
            // Replay up to the next budget check and stop-token poll.
            const Cycle limit =
                options.stop.possible()
                    ? std::min(options.maxCycles, next_stop_check)
                    : options.maxCycles;
            const Cycle from = now_;
            if (memo_->replay(limit, options.quiescenceWindow, last))
                return quiescent();
            if (now_ != from)
                continue;
            memo_->stepRecorded();
            if (!memo_->following())
                memo_at = now_ + FabricMemo::kEngageAfter;
        } else {
            step();
            if (memo_allowed && now_ >= memo_at) {
                if (!memo_)
                    memo_ = std::make_unique<FabricMemo>(*this);
                memo_->resume();
                memo_at = now_ + FabricMemo::kEngageAfter;
            }
        }

        if (events_.progressEvents() != last.events) {
            last.events = events_.progressEvents();
            last.progress = now_;
        }
        if (totalRetired_ != last.retired || anyActivity()) {
            last.retired = totalRetired_;
            last.activity = now_;
        } else if (now_ - last.activity >= options.quiescenceWindow) {
            return quiescent();
        }
    }
}

HangReport
CycleFabric::diagnoseQuiescence() const
{
    // Node ids are sequential, in addNode order: PEs, then channels,
    // read ports and write ports.
    WaitForGraph graph;
    for (unsigned pe = 0; pe < pes_.size(); ++pe)
        graph.addNode(AgentKind::Pe, pe, "PE " + std::to_string(pe));
    const std::size_t ch_base = graph.nodes().size();
    for (unsigned ch = 0; ch < channels_.size(); ++ch) {
        graph.addNode(AgentKind::Channel, ch,
                      "channel " + std::to_string(ch));
    }
    const std::size_t rp_base = graph.nodes().size();
    for (unsigned rp = 0; rp < readPorts_.size(); ++rp) {
        graph.addNode(AgentKind::ReadPort, rp,
                      "read port " + std::to_string(rp));
    }
    const std::size_t wp_base = graph.nodes().size();
    for (unsigned wp = 0; wp < writePorts_.size(); ++wp) {
        graph.addNode(AgentKind::WritePort, wp,
                      "write port " + std::to_string(wp));
    }

    const std::vector<ChannelEnds> ends = config_.channelEnds();
    auto node_of = [&](const ChannelEnd &end) -> std::size_t {
        switch (end.kind) {
          case ChannelEnd::Kind::Pe:
            return end.index;
          case ChannelEnd::Kind::ReadPort:
            return rp_base + end.index;
          case ChannelEnd::Kind::WritePort:
            return wp_base + end.index;
        }
        return end.index;
    };

    // An empty-waited channel is unblocked by its producer; a
    // full-waited channel by its consumer. Edges are added per wait
    // so the two directions never mix on an unwaited channel.
    auto add_empty_wait = [&](std::size_t waiter, unsigned ch,
                              std::string reason) {
        graph.addEdge(waiter, ch_base + ch, std::move(reason));
        graph.addEdge(ch_base + ch, node_of(ends[ch].producer), "fed by");
    };
    auto add_full_wait = [&](std::size_t waiter, unsigned ch,
                             std::string reason) {
        graph.addEdge(waiter, ch_base + ch, std::move(reason));
        graph.addEdge(ch_base + ch, node_of(ends[ch].consumer),
                      "drained by");
    };

    // PE wait edges, from the scheduler's own queue view.
    for (unsigned pe = 0; pe < pes_.size(); ++pe) {
        const PeWaitInfo info = pes_[pe]->queueWaits();
        if (!info.blocked())
            continue;
        graph.markBlocked(pe);
        for (unsigned port : info.waitInputs) {
            const int ch = config_.inputChannel[pe][port];
            if (ch != kUnbound) {
                add_empty_wait(pe, static_cast<unsigned>(ch),
                               "input %i" + std::to_string(port) +
                                   " empty or wrong tag");
            }
        }
        for (unsigned port : info.waitOutputs) {
            const int ch = config_.outputChannel[pe][port];
            if (ch != kUnbound) {
                add_full_wait(pe, static_cast<unsigned>(ch),
                              "output %o" + std::to_string(port) +
                                  " full");
            }
        }
    }

    // A read port that is not producing is waiting for addresses, or
    // for room to deliver the requests it holds.
    for (unsigned rp = 0; rp < readPorts_.size(); ++rp) {
        if (channels_[config_.readPorts[rp].addrChannel]->empty()) {
            add_empty_wait(rp_base + rp, config_.readPorts[rp].addrChannel,
                           "no requests");
        }
        if (readPorts_[rp]->blockedOnResponses()) {
            add_full_wait(rp_base + rp, config_.readPorts[rp].dataChannel,
                          "response channel full");
        }
    }
    // A write port with one side of the pair missing waits for it.
    for (unsigned wp = 0; wp < writePorts_.size(); ++wp) {
        const unsigned addr_ch = config_.writePorts[wp].addrChannel;
        const unsigned data_ch = config_.writePorts[wp].dataChannel;
        const bool addr_empty = channels_[addr_ch]->empty();
        const bool data_empty = channels_[data_ch]->empty();
        if (addr_empty != data_empty) {
            add_empty_wait(wp_base + wp, addr_empty ? addr_ch : data_ch,
                           "awaiting paired token");
        }
    }

    return classifyQuiescence(graph);
}

} // namespace tia
