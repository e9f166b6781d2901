#include "uarch/fabric_memo.hh"

#include <algorithm>
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
    // Edges name a PE in 16 bits, and count port actions in 8.
    panicIf(fabric.pes_.size() > 0xffff, "control memo: too many PEs");
    panicIf(2 * fabric.readPorts_.size() + fabric.writePorts_.size() > 0xff,
            "control memo: too many memory ports");
    slots_.assign(64, 0);
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
    // Occupancy and tags only: a channel's cycle ends at commit(), so
    // between cycles its cycle-start view is its occupancy.
    for (const auto &channel : f.channels_) {
        putCount(out, channel->size());
        for (unsigned depth = 0; depth < channel->size(); ++depth)
            putByte(out, channel->peek(depth)->tag);
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
}

[[gnu::always_inline]] inline std::uint32_t
FabricMemo::pickEdge() const
{
    const Node &node = nodes_[current_];
    if (node.firstEdge == kNone || node.firstCheck == kNone)
        return node.firstEdge;

    // The cycle's data-to-control bits and its trap checks, before any
    // action: every edge out of a node has the same writebacks, and each
    // one's operands are already fixed when the cycle starts (captured
    // earlier, or captured by its own PE's first action of the cycle).
    std::uint32_t mask = 0;
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
            return kNone;
        if (action.flags & kBranch)
            mask |= static_cast<std::uint32_t>(result & 1u) << bit++;
    }
    std::uint32_t id = node.firstEdge;
    while (id != kNone && edges_[id].mask != mask)
        id = edges_[id].sibling;
    return id;
}

std::uint32_t
FabricMemo::buildSuperblock(std::uint32_t id)
{
    // The edge, then each straight successor's one edge.
    Superblock block;
    block.length = 0;
    std::vector<PeDelta> &sums = sums_;
    sums.assign(fabric_.pes_.size(), PeDelta{});
    for (;;) {
        const Superblock &cycle = edges_[id].alone;
        for (std::uint32_t i = 0; i < cycle.numDeltas; ++i) {
            const PeDelta &delta = deltas_[cycle.firstDelta + i];
            PeDelta &sum = sums[delta.pe];
            sum.issued += delta.issued;
            for (std::size_t c = 0; c < kCounters.size(); ++c)
                sum.counts[c] += delta.counts[c];
        }
        block.retired += cycle.retired;
        block.events += cycle.events;
        ++block.length;
        if (cycle.lastActive != 0)
            block.lastActive = block.length;
        if (cycle.events != 0)
            block.lastEvent = block.length;
        block.last = id;
        const Node &next = nodes_[edges_[id].next];
        if (block.length == kSuperblockCap || next.firstEdge == kNone ||
            next.firstCheck != kNone)
            break;
        id = next.firstEdge;
    }
    if (block.length == 1)
        return block.last | kAlone;
    block.firstDelta = static_cast<std::uint32_t>(deltas_.size());
    for (unsigned p = 0; p < sums.size(); ++p) {
        PeDelta &sum = sums[p];
        sum.pe = static_cast<std::uint16_t>(p);
        if (sum.issued != 0 ||
            std::any_of(sum.counts.begin(), sum.counts.end(),
                        [](std::uint16_t c) { return c != 0; }))
            deltas_.push_back(sum);
    }
    block.numDeltas =
        static_cast<std::uint16_t>(deltas_.size() - block.firstDelta);
    superblocks_.push_back(block);
    return static_cast<std::uint32_t>(superblocks_.size() - 1);
}

[[gnu::always_inline]] inline unsigned
FabricMemo::perform(std::uint32_t id, unsigned length)
{
    CycleFabric &f = fabric_;
    for (unsigned cycle = 0; cycle < length; ++cycle) {
        const Edge &edge = edges_[id];
        // data(), not operator[]: a memo whose edges have no actions
        // yet has an empty, null actions_.
        const Action *action = actions_.data() + edge.firstAction;
        const Action *ports = action + edge.numActions;
        const Action *end = ports + edge.numPorts;
        // A memory access out of bounds traps where step() would; the
        // cycle is left to step().
        for (const Action *port = ports; port != end; ++port) {
            if ((port->flags == kAccept &&
                 !f.readPorts_[port->entry]->addressInBounds()) ||
                (port->flags == kWrite &&
                 !f.writePorts_[port->entry]->addressInBounds()))
                return cycle;
        }
        for (; action != ports; ++action) {
            PipelinedPe &pe = *action->pe;
            auto &entry = pe.entries_[action->entry];
            const Instruction &inst = *action->inst;
            if (action->flags & kDecode) {
                entry.operands = {operand(*action, 0), operand(*action, 1)};
                for (const auto q : inst.dequeues)
                    pe.inputs_[q]->replayPop();
            }
            // A branch's result is control only: it already picked the
            // edge.
            if ((action->flags & (kWriteback | kBranch)) != kWriteback)
                continue;
            const Word a = entry.operands[0];
            const Word b = entry.operands[1];
            Word result;
            pe.datapathResult(inst, a, b, result); // bounds checked
            if (action->flags & kStore)
                pe.scratchpad_[a] = b;
            if (action->flags & kToReg)
                pe.regs_[inst.dst.index] = result;
            else if (action->flags & kToQueue)
                pe.outputs_[inst.dst.index]->replayPush({result, inst.outTag});
        }
        for (; action != end; ++action) {
            switch (action->flags) {
              case kDeliver:
                f.readPorts_[action->entry]->replayDeliver();
                break;
              case kAccept:
                f.readPorts_[action->entry]->replayAccept(f.now_ + cycle);
                break;
              case kWrite:
                f.writePorts_[action->entry]->replayStore();
                break;
            }
        }
        if (cycle + 1 < length)
            id = nodes_[edge.next].firstEdge;
    }
    return length;
}

[[gnu::always_inline]] inline void
FabricMemo::account(std::uint32_t ref, RunMarks &marks)
{
    CycleFabric &f = fabric_;
    Superblock &block = superblock(ref);
    if (block.pending++ == 0)
        unsettled_.push_back(ref);
    const Cycle start = f.now_;
    f.now_ += block.length;
    f.totalRetired_ += block.retired;
    f.events_.addProgress(block.events);
    current_ = edges_[block.last].next;
    // run()'s marks, as its per-cycle checks leave them.
    if (block.lastEvent != 0) {
        marks.events = f.events_.progressEvents();
        marks.progress = start + block.lastEvent;
    }
    if (block.lastActive != 0) {
        marks.retired = f.totalRetired_;
        marks.activity = start + block.lastActive;
    }
}

bool
FabricMemo::replay(Cycle limit, Cycle window, RunMarks &marks)
{
    CycleFabric &f = fabric_;
    while (f.now_ < limit) {
        const std::uint32_t id = pickEdge();
        if (id == kNone)
            return false;
        Edge &edge = edges_[id];
        if (edge.superblock == kNone && ++edge.replays == 2)
            edge.superblock = buildSuperblock(id);
        // The superblock, unless the quiescence window could close
        // inside it: then the edge alone, whose own check below lands
        // the exit. A budget or stop poll inside it cuts it short.
        std::uint32_t ref = id | kAlone;
        unsigned length = 1;
        if (edge.superblock != kNone && edge.superblock != ref) {
            const Superblock &whole = superblocks_[edge.superblock];
            if (f.now_ + whole.length - marks.activity < window) {
                ref = edge.superblock;
                length = static_cast<unsigned>(
                    std::min<Cycle>(whole.length, limit - f.now_));
            }
        }
        const unsigned done = perform(id, length);
        if (done == 0)
            return false;
        ++f.replayLookups_;
        const Superblock &block = superblock(ref);
        if (done == block.length) {
            account(ref, marks);
            if (block.lastActive != block.length &&
                f.now_ - marks.activity >= window)
                return true;
            continue;
        }
        // Cut short by the budget, or before a cycle that traps (left
        // to step()): account for the cycles performed one by one.
        std::uint32_t e = id;
        for (unsigned cycle = 0; cycle < done; ++cycle) {
            account(e | kAlone, marks);
            e = nodes_[edges_[e].next].firstEdge;
        }
        if (done != length)
            return false;
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
    action.entry = static_cast<std::uint16_t>(&entry - pe.entries_.data());
    action.flags = kDecode;
    recorded_.push_back(action);
}

void
FabricMemo::recordWriteback(const PipelinedPe &pe,
                            const PipelinedPe::InFlight &entry, Word result)
{
    const auto index = static_cast<std::uint16_t>(&entry - pe.entries_.data());
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
    portCounts_.clear();
    for (const auto &port : f.readPorts_) {
        portCounts_.push_back(port->delivered());
        portCounts_.push_back(port->accepted());
    }
    for (const auto &port : f.writePorts_)
        portCounts_.push_back(port->writesPerformed());
    const std::size_t active = f.activePes_.size();
    const std::uint64_t retired = f.totalRetired_;
    const std::uint64_t events = f.events_.progressEvents();

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
    if (current_ == kNone || f.activePes_.size() != active ||
        recordedBranches_ > kMaxBranches)
        return;

    // What each memory port did, after the PE actions in step() order:
    // a read port delivers, then accepts, then the write ports store.
    const std::size_t pe_actions = recorded_.size();
    auto record_port = [&](std::size_t port, PortMove move) {
        Action action;
        action.entry = static_cast<std::uint16_t>(port);
        action.flags = move;
        recorded_.push_back(action);
    };
    const std::uint64_t *before = portCounts_.data();
    for (std::size_t rp = 0; rp < f.readPorts_.size(); ++rp) {
        if (f.readPorts_[rp]->delivered() != *before++)
            record_port(rp, kDeliver);
        if (f.readPorts_[rp]->accepted() != *before++)
            record_port(rp, kAccept);
    }
    for (std::size_t wp = 0; wp < f.writePorts_.size(); ++wp) {
        if (f.writePorts_[wp]->writesPerformed() != *before++)
            record_port(wp, kWrite);
    }

    Edge edge;
    edge.next = current_;
    edge.mask = recordedMask_;
    edge.firstAction = static_cast<std::uint32_t>(actions_.size());
    edge.numActions = static_cast<std::uint16_t>(pe_actions);
    edge.numPorts = static_cast<std::uint8_t>(recorded_.size() - pe_actions);
    actions_.insert(actions_.end(), recorded_.begin(), recorded_.end());

    Superblock &alone = edge.alone;
    alone.firstDelta = static_cast<std::uint32_t>(deltas_.size());
    for (unsigned p = 0; p < f.pes_.size(); ++p) {
        const PipelinedPe &pe = *f.pes_[p];
        PeDelta delta;
        delta.pe = static_cast<std::uint16_t>(p);
        bool moved = pe.nextId_ != ids_[p];
        delta.issued = static_cast<std::uint8_t>(pe.nextId_ - ids_[p]);
        for (std::size_t c = 0; c < kCounters.size(); ++c) {
            const std::uint64_t d =
                pe.counters_.*kCounters[c] - before_[p].*kCounters[c];
            panicIf(d > kMaxCycleDelta,
                    "control memo: a counter delta exceeds a byte");
            delta.counts[c] = static_cast<std::uint16_t>(d);
            moved = moved || d != 0;
        }
        if (moved)
            deltas_.push_back(delta);
    }
    alone.numDeltas =
        static_cast<std::uint16_t>(deltas_.size() - alone.firstDelta);
    alone.retired = static_cast<std::uint32_t>(f.totalRetired_ - retired);
    alone.events =
        static_cast<std::uint32_t>(f.events_.progressEvents() - events);
    alone.lastActive = alone.retired != 0 || f.anyActivity() ? 1 : 0;
    alone.lastEvent = alone.events != 0 ? 1 : 0;

    const auto id = static_cast<std::uint32_t>(edges_.size());
    panicIf(id >= kAlone, "control memo: too many edges");
    alone.last = id;
    edges_.push_back(edge);
    Node &node = nodes_[from];
    if (node.firstEdge == kNone) {
        node.firstEdge = id;
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
    panicIf(match != end,
            "control memo: a control state changed its writebacks");
    // The ports' moves are control too.
    panicIf(edge.numPorts != first.numPorts ||
                !std::equal(recorded_.begin() + pe_actions, recorded_.end(),
                            actions_.begin() + end,
                            [](const Action &a, const Action &b) {
                                return a.entry == b.entry &&
                                       a.flags == b.flags;
                            }),
            "control memo: a control state changed its port moves");
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
    for (const std::uint32_t ref : unsettled_) {
        Superblock &block = superblock(ref);
        for (std::uint32_t i = 0; i < block.numDeltas; ++i) {
            const PeDelta &delta = deltas_[block.firstDelta + i];
            PipelinedPe &pe = *f.pes_[delta.pe];
            for (std::size_t c = 0; c < kCounters.size(); ++c)
                pe.counters_.*kCounters[c] += block.pending * delta.counts[c];
            pe.nextId_ += block.pending * delta.issued;
            static_assert(kCounters[0] == &PerfCounters::cycles);
            f.stepsReplayed_ += block.pending * delta.counts[0];
        }
        f.cyclesReplayed_ += block.pending * block.length;
        block.pending = 0;
    }
    unsettled_.clear();
}

void
FabricMemo::materialize()
{
    if (unsettled_.empty())
        return;
    CycleFabric &f = fabric_;
    settle();
    // The inverse of packState's PE part; channels and ports are live,
    // and a replay leaves each channel as commit() does. The stepping
    // order needs no restore: a cycle in which a PE halts is never
    // recorded, so no replay changes it.
    KeyReader key(keyOf(nodes_[current_]));
    for (const auto &pe : f.pes_) {
        if (key.byte() != kHalted)
            pe->unpackControl(key);
    }
}

} // namespace tia
