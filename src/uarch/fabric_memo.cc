#include "uarch/fabric_memo.hh"

#include <functional>

#include "core/logging.hh"
#include "uarch/cycle_fabric.hh"

namespace tia {

namespace {

/** Status byte of a PE in a node's key. */
enum PeStatus : std::uint8_t
{
    kRunning = 0,
    kHalted = 1,
};

constexpr Word kZero = 0;

} // namespace

FabricMemo::FabricMemo(CycleFabric &fabric) : fabric_(fabric)
{
    // Edges name a PE and count steps in 16 bits.
    panicIf(fabric.pes_.size() > 0xffff, "control memo: too many PEs");
    slots_.assign(64, 0);
    keyBytes_ = kCountBytes * (1 + fabric.pes_.size());
    for (const auto &pe : fabric.pes_)
        keyBytes_ += 1 + pe->controlKeyBytes();
    for (const auto &channel : fabric.channels_)
        keyBytes_ += kCountBytes + channel->capacity();
    for (const auto &port : fabric.readPorts_)
        keyBytes_ += kCountBytes + port->maxInFlight() * (kCountBytes + 1);
}

std::string_view
FabricMemo::keyOf(const Node &node) const
{
    return std::string_view(keys_).substr(node.keyBegin, node.keyLength);
}

void
FabricMemo::packState(std::string &key) const
{
    const CycleFabric &f = fabric_;
    key.resize(keyBytes_);
    char *out = key.data();
    for (const auto &pe : f.pes_) {
        if (pe->halted()) {
            putByte(out, kHalted);
            continue;
        }
        putByte(out, kRunning);
        pe->packControl(out);
    }
    putCount(out, f.activePes_.size());
    for (const unsigned p : f.activePes_)
        putCount(out, p);
    // A channel that moved last cycle takes its snapshot when the next
    // cycle starts; any other channel's snapshot already equals its
    // occupancy.
    for (unsigned ch = 0; ch < f.channels_.size(); ++ch) {
        const TaggedQueue &queue = *f.channels_[ch];
        putCount(out, 2 * std::uint64_t{queue.size()} +
                          (f.events_.dirty(ch) ? 1u : 0u));
        for (unsigned depth = 0; depth < queue.size(); ++depth)
            putByte(out, queue.peekPtr(depth)->tag);
    }
    for (const auto &port : f.readPorts_) {
        putCount(out, port->inFlight());
        for (std::size_t i = 0; i < port->inFlight(); ++i) {
            putCount(out, port->heldWait(i, f.now_));
            putByte(out, port->heldTag(i));
        }
    }
    key.resize(static_cast<std::size_t>(out - key.data()));
}

std::uint32_t
FabricMemo::findOrAdd(const std::string &key)
{
    // Open addressing with linear probing, at most half full.
    const std::size_t hash = std::hash<std::string_view>{}(key);
    std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
        const Node &node = nodes_[slots_[slot] - 1];
        if (node.hash == hash && keyOf(node) == key)
            return slots_[slot] - 1;
    }
    if (nodes_.size() >= kNodeCap)
        return kNone;
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    Node &node = nodes_.emplace_back();
    node.keyBegin = static_cast<std::uint32_t>(keys_.size());
    node.keyLength = static_cast<std::uint32_t>(key.size());
    node.hash = hash;
    keys_ += key;
    slots_[slot] = id + 1;
    if (2 * nodes_.size() > slots_.size()) {
        slots_.assign(2 * slots_.size(), 0);
        mask = slots_.size() - 1;
        for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
            std::size_t s = nodes_[n].hash & mask;
            while (slots_[s] != 0)
                s = (s + 1) & mask;
            slots_[s] = n + 1;
        }
    }
    return id;
}

bool
FabricMemo::portsMayAct() const
{
    const CycleFabric &f = fabric_;
    for (std::size_t rp = 0; rp < f.readPorts_.size(); ++rp) {
        if (f.readPorts_[rp]->inFlight() != 0 ||
            !f.channels_[f.config_.readPorts[rp].addrChannel]->empty())
            return true;
    }
    for (const auto &port : f.writePorts_) {
        if (port->busy())
            return true;
    }
    return false;
}

Word
FabricMemo::operand(const Action &action, unsigned k) const
{
    return action.srcs[k] ? *action.srcs[k]
                          : action.pe->readSource(action.inst->srcs[k],
                                                  action.inst->imm);
}

void
FabricMemo::resume()
{
    packState(key_);
    current_ = findOrAdd(key_);
    stale_ = false;
}

[[gnu::always_inline]] inline const FabricMemo::Edge *
FabricMemo::replayCycle()
{
    const Node &node = nodes_[current_];
    if (node.firstEdge == kNone)
        return nullptr;

    // The cycle's data-to-control bits and its trap checks, before any
    // action: every edge out of a node has the same writebacks, and each
    // one's operands are already fixed when the cycle starts (captured
    // earlier, or captured by its own PE's first action of the cycle).
    std::uint32_t mask = 0;
    if (node.firstCheck != kNone) {
        const Edge &first = edges_[node.firstEdge];
        const std::uint32_t end = first.firstAction + first.numActions;
        unsigned bit = 0;
        for (std::uint32_t i = node.firstCheck; i < end; ++i) {
            const Action &action = actions_[i];
            if ((action.flags & kCheck) == 0)
                continue;
            const auto &entry = action.pe->entries_[action.entry];
            const bool capture = (action.flags & kDecode) != 0;
            const Word a = capture ? operand(action, 0) : entry.operands[0];
            const Word b = capture ? operand(action, 1) : entry.operands[1];
            Word result;
            if (!action.pe->datapathResult(*action.inst, a, b, result))
                return nullptr;
            if (action.flags & kBranch)
                mask |= static_cast<std::uint32_t>(result & 1u) << bit++;
        }
    }
    std::uint32_t id = node.firstEdge;
    while (edges_[id].mask != mask) {
        id = edges_[id].sibling;
        if (id == kNone)
            return nullptr;
    }
    Edge &edge = edges_[id];

    CycleFabric &f = fabric_;
    // The cycle's start, as step() does it.
    if (!f.events_.dirtyChannels().empty()) {
        for (const unsigned ch : f.events_.dirtyChannels())
            f.channels_[ch]->beginCycle();
        f.events_.clearDirty();
    }

    for (std::uint32_t i = 0; i < edge.numActions; ++i) {
        const Action &action = actions_[edge.firstAction + i];
        PipelinedPe &pe = *action.pe;
        auto &entry = pe.entries_[action.entry];
        const Instruction &inst = *action.inst;
        if (action.flags & kDecode) {
            entry.operands = {operand(action, 0), operand(action, 1)};
            for (const auto q : inst.dequeues)
                pe.inputs_[q]->pop();
        }
        // A branch's result is control only: it already picked the edge.
        if ((action.flags & (kWriteback | kBranch)) != kWriteback)
            continue;
        const Word a = entry.operands[0];
        const Word b = entry.operands[1];
        Word result;
        pe.datapathResult(inst, a, b, result); // bounds checked above
        if (action.flags & kStore)
            pe.scratchpad_[a] = b;
        if (action.flags & kToReg)
            pe.regs_[inst.dst.index] = result;
        else if (action.flags & kToQueue)
            pe.outputs_[inst.dst.index]->push({result, inst.outTag});
    }

    if (edge.pending++ == 0)
        unsettled_.push_back(id);
    f.totalRetired_ += edge.retired;
    current_ = edge.next;
    stale_ = true;

    // The memory ports move real tokens. A memory access out of bounds
    // traps where step() would: every PE has stepped, the clock has
    // not advanced.
    if (node.ports) {
        try {
            for (auto &port : f.readPorts_)
                port->step(f.now_);
            for (auto &port : f.writePorts_)
                port->step(f.now_);
        } catch (...) {
            materialize();
            current_ = kNone;
            throw;
        }
    }
    for (const unsigned ch : f.events_.dirtyChannels())
        f.channels_[ch]->commit();
    ++f.now_;
    return &edge;
}

bool
FabricMemo::replay(Cycle limit, Cycle window, RunMarks &marks)
{
    CycleFabric &f = fabric_;
    while (f.now_ < limit) {
        const Edge *edge = replayCycle();
        if (!edge)
            return false;
        // run()'s bookkeeping for the cycle.
        if (f.events_.progressEvents() != marks.events) {
            marks.events = f.events_.progressEvents();
            marks.progress = f.now_;
        }
        if (edge->retired != 0 || edge->active) {
            marks.retired = f.totalRetired_;
            marks.activity = f.now_;
        } else if (f.now_ - marks.activity >= window) {
            return true;
        }
    }
    return false;
}

void
FabricMemo::recordDecode(const PipelinedPe &pe,
                         const PipelinedPe::InFlight &entry)
{
    const Instruction &inst = *entry.inst;
    auto source = [&](const Source &src) -> const Word * {
        switch (src.type) {
          case SrcType::Reg:
            return &pe.regs_[src.index];
          case SrcType::Immediate:
            return &inst.imm;
          case SrcType::InputQueue:
            return nullptr;
          case SrcType::None:
            break;
        }
        return &kZero;
    };
    Action action;
    action.pe = const_cast<PipelinedPe *>(&pe);
    action.inst = &inst;
    action.srcs = {source(inst.srcs[0]), source(inst.srcs[1])};
    action.entry = static_cast<std::uint8_t>(&entry - pe.entries_.data());
    action.flags = kDecode;
    recorded_.push_back(action);
}

void
FabricMemo::recordWriteback(const PipelinedPe &pe,
                            const PipelinedPe::InFlight &entry, Word result)
{
    const auto index = static_cast<std::uint8_t>(&entry - pe.entries_.data());
    // A writeback whose capture ran this same cycle is that capture's
    // action (always the PE's first of the cycle).
    if (recorded_.empty() || recorded_.back().pe != &pe ||
        recorded_.back().entry != index ||
        (recorded_.back().flags & kDecode) == 0 ||
        (recorded_.back().flags & kWriteback) != 0) {
        Action action;
        action.pe = const_cast<PipelinedPe *>(&pe);
        action.inst = entry.inst;
        action.entry = index;
        recorded_.push_back(action);
    }
    Action &action = recorded_.back();
    action.flags |= kWriteback;
    const OpInfo &info = opInfo(entry.inst->op);
    if (info.readsScratchpad || info.writesScratchpad)
        action.flags |= kCheck;
    if (info.writesScratchpad)
        action.flags |= kStore;
    if (entry.inst->dst.type == DstType::Reg)
        action.flags |= kToReg;
    if (entry.inst->dst.type == DstType::OutputQueue)
        action.flags |= kToQueue;
    if (entry.inst->writesPredicate()) {
        action.flags |= kCheck | kBranch;
        // A cycle with more branches than a mask holds is not recorded.
        if (recordedBranches_ < kMaxBranches) {
            recordedMask_ |= static_cast<std::uint32_t>(result & 1u)
                             << recordedBranches_;
        }
        ++recordedBranches_;
    }
}

void
FabricMemo::stepRecorded()
{
    CycleFabric &f = fabric_;
    materialize();

    const std::uint32_t from = current_;
    before_.clear();
    ids_.clear();
    for (const auto &pe : f.pes_) {
        before_.push_back(pe->counters_);
        ids_.push_back(pe->nextId_);
    }
    recorded_.clear();
    recordedMask_ = 0;
    recordedBranches_ = 0;
    const bool ports = portsMayAct();
    const unsigned halted = f.haltedPes_;
    const std::uint64_t steps = f.stepsExecuted_;
    const std::uint64_t retired = f.totalRetired_;

    // If step() traps, the fabric is live and the memo has lost its
    // place.
    current_ = kNone;
    struct Detach
    {
        CycleFabric &fabric;
        ~Detach()
        {
            for (auto &pe : fabric.pes_)
                pe->recorder_ = nullptr;
        }
    };
    {
        const Detach detach{f};
        for (auto &pe : f.pes_)
            pe->recorder_ = this;
        f.step();
    }

    packState(key_);
    current_ = findOrAdd(key_);
    // A halt happens once per PE, so its cycle is never replayed.
    if (current_ == kNone || f.haltedPes_ != halted ||
        recordedBranches_ > kMaxBranches)
        return;

    Edge edge;
    edge.next = current_;
    edge.mask = recordedMask_;
    edge.firstAction = static_cast<std::uint32_t>(actions_.size());
    edge.numActions = static_cast<std::uint16_t>(recorded_.size());
    actions_.insert(actions_.end(), recorded_.begin(), recorded_.end());
    edge.firstDelta = static_cast<std::uint32_t>(deltas_.size());
    for (unsigned p = 0; p < f.pes_.size(); ++p) {
        const PipelinedPe &pe = *f.pes_[p];
        PeDelta delta;
        delta.pe = static_cast<std::uint16_t>(p);
        bool moved = pe.nextId_ != ids_[p];
        delta.issued = static_cast<std::uint8_t>(pe.nextId_ - ids_[p]);
        for (std::size_t c = 0; c < kCounters.size(); ++c) {
            const std::uint64_t d =
                pe.counters_.*kCounters[c] - before_[p].*kCounters[c];
            panicIf(d > 0xff, "control memo: a counter delta exceeds a byte");
            delta.counts[c] = static_cast<std::uint8_t>(d);
            moved = moved || d != 0;
        }
        if (moved)
            deltas_.push_back(delta);
    }
    edge.numDeltas =
        static_cast<std::uint16_t>(deltas_.size() - edge.firstDelta);
    edge.steps = static_cast<std::uint16_t>(f.stepsExecuted_ - steps);
    edge.retired = static_cast<std::uint16_t>(f.totalRetired_ - retired);
    edge.active = f.anyActivity();

    const auto id = static_cast<std::uint32_t>(edges_.size());
    edges_.push_back(edge);
    Node &node = nodes_[from];
    if (node.firstEdge == kNone) {
        node.firstEdge = id;
        node.ports = ports;
        for (std::uint32_t i = 0; i < edge.numActions; ++i) {
            if (actions_[edge.firstAction + i].flags & kCheck) {
                node.firstCheck = edge.firstAction + i;
                break;
            }
        }
        return;
    }
    // Every edge out of a node runs the same writebacks; only their
    // branch bits differ.
    const Edge &first = edges_[node.firstEdge];
    std::uint32_t match = first.firstAction;
    const std::uint32_t end = first.firstAction + first.numActions;
    for (const Action &action : recorded_) {
        if ((action.flags & kCheck) == 0)
            continue;
        while (match < end && (actions_[match].flags & kCheck) == 0)
            ++match;
        panicIf(match == end || actions_[match].pe != action.pe ||
                    actions_[match].entry != action.entry ||
                    actions_[match].inst != action.inst ||
                    (actions_[match].flags & kDecode) !=
                        (action.flags & kDecode),
                "control memo: a control state changed its writebacks");
        ++match;
    }
    while (match < end && (actions_[match].flags & kCheck) == 0)
        ++match;
    panicIf(match != end || ports != node.ports,
            "control memo: a control state changed its writebacks");
    std::uint32_t *link = &node.firstEdge;
    while (*link != kNone) {
        panicIf(edges_[*link].mask == edge.mask,
                "control memo: an edge recorded twice");
        link = &edges_[*link].sibling;
    }
    *link = id;
}

void
FabricMemo::settle()
{
    CycleFabric &f = fabric_;
    for (const std::uint32_t id : unsettled_) {
        Edge &edge = edges_[id];
        for (std::uint32_t i = 0; i < edge.numDeltas; ++i) {
            const PeDelta &delta = deltas_[edge.firstDelta + i];
            PipelinedPe &pe = *f.pes_[delta.pe];
            for (std::size_t c = 0; c < kCounters.size(); ++c)
                pe.counters_.*kCounters[c] += edge.pending * delta.counts[c];
            pe.nextId_ += edge.pending * delta.issued;
        }
        f.stepsExecuted_ += edge.pending * edge.steps;
        f.stepsReplayed_ += edge.pending * edge.steps;
        edge.pending = 0;
    }
    unsettled_.clear();
}

void
FabricMemo::materialize()
{
    if (!stale_)
        return;
    CycleFabric &f = fabric_;
    settle();
    // The inverse of packState's PE part; channels and ports are live.
    KeyReader key(keyOf(nodes_[current_]));
    for (const auto &pe : f.pes_) {
        if (key.byte() != kHalted)
            pe->unpackControl(key);
    }
    f.activePes_.resize(key.count());
    for (unsigned &p : f.activePes_)
        p = static_cast<unsigned>(key.count());
    stale_ = false;
}

} // namespace tia
