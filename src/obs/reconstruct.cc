#include "obs/reconstruct.hh"

#include "core/logging.hh"

namespace tia {

CpiReconstructor::PeState &
CpiReconstructor::state(std::uint32_t pe)
{
    if (pe >= pes_.size())
        pes_.resize(pe + 1);
    return pes_[pe];
}

void
CpiReconstructor::record(const TraceEvent &event)
{
    if (event.pe == kChannelAgent)
        return;
    PeState &s = state(event.pe);
    switch (event.kind) {
      case TraceEventKind::Attribution: {
        ++s.c.cycles;
        ++totalEvents_;
        switch (static_cast<TraceBucket>(event.arg)) {
          case TraceBucket::PredicateHazard:
            ++s.c.predicateHazard;
            return;
          case TraceBucket::DataHazard:
            ++s.c.dataHazard;
            return;
          case TraceBucket::Forbidden:
            ++s.c.forbidden;
            return;
          case TraceBucket::NoTrigger:
            ++s.c.noTrigger;
            return;
        }
        panic("Attribution event with unknown bucket");
      }
      case TraceEventKind::Issue:
        // An issue claims the cycle; its final attribution (retired or
        // quashed) arrives with a later Retire/Quash event.
        ++s.c.cycles;
        ++s.issued;
        ++totalEvents_;
        return;
      case TraceEventKind::Retire:
        ++s.c.retired;
        if (event.arg & kRetireWrotePredicate)
            ++s.c.predicateWrites;
        ++totalEvents_;
        return;
      case TraceEventKind::Quash:
        ++s.c.quashed;
        if (event.arg & kQuashIssueSlot) {
            // The squash consumed this cycle's issue slot too.
            ++s.c.cycles;
        } else {
            // A flushed in-flight instruction; its cycle was already
            // counted when it issued.
            ++s.flushQuashed;
        }
        ++totalEvents_;
        return;
      case TraceEventKind::Predict:
        ++s.c.predictions;
        if (event.value & 2)
            ++s.c.faultsInjected;
        ++totalEvents_;
        return;
      case TraceEventKind::Resolve:
        if (event.value & 2)
            ++s.c.mispredictions;
        if (event.value & 4)
            ++s.c.faultRecoveries;
        ++totalEvents_;
        return;
      case TraceEventKind::Halt:
        s.halted = true;
        return;
      case TraceEventKind::StageOccupancy:
      case TraceEventKind::QueueDepth:
        return;
    }
}

PerfCounters
CpiReconstructor::counters(unsigned pe) const
{
    return pe < pes_.size() ? pes_[pe].c : PerfCounters{};
}

unsigned
CpiReconstructor::inFlight(unsigned pe) const
{
    if (pe >= pes_.size())
        return 0;
    const PeState &s = pes_[pe];
    return static_cast<unsigned>(s.issued - s.c.retired - s.flushQuashed);
}

bool
CpiReconstructor::halted(unsigned pe) const
{
    return pe < pes_.size() && pes_[pe].halted;
}

} // namespace tia
