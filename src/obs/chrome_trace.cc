#include "obs/chrome_trace.hh"

#include <cstdio>

#include "obs/json.hh"

namespace tia {

namespace {

const char *
attributionName(TraceBucket bucket)
{
    switch (bucket) {
      case TraceBucket::PredicateHazard:
        return "predicate-hazard";
      case TraceBucket::DataHazard:
        return "data-hazard";
      case TraceBucket::Forbidden:
        return "forbidden";
      case TraceBucket::NoTrigger:
        return "no-trigger";
    }
    return "?";
}

void
appendUint(std::string &out, std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out += buf;
}

} // namespace

ChromeTraceSink::ChromeTraceSink()
{
    out_ = "[\n";
}

void
ChromeTraceSink::beginEvent(const char *ph, std::uint32_t pid,
                            std::uint32_t tid, Cycle ts,
                            const std::string &name)
{
    if (!first_)
        out_ += ",\n";
    first_ = false;
    out_ += "{\"ph\":\"";
    out_ += ph;
    out_ += "\",\"pid\":";
    appendUint(out_, pid);
    out_ += ",\"tid\":";
    appendUint(out_, tid);
    out_ += ",\"ts\":";
    appendUint(out_, ts);
    out_ += ",\"name\":\"";
    out_ += name;
    out_ += '"';
}

void
ChromeTraceSink::setPeMetadata(unsigned pe, const std::string &label,
                               const std::vector<std::string> &stageNames)
{
    beginEvent("M", pe, 0, 0, "process_name");
    out_ += ",\"args\":{\"name\":\"" + label + "\"}}";
    beginEvent("M", pe, 0, 0, "thread_name");
    out_ += ",\"args\":{\"name\":\"issue\"}}";
    for (std::size_t s = 0; s < stageNames.size(); ++s) {
        beginEvent("M", pe, static_cast<std::uint32_t>(s + 1), 0,
                   "thread_name");
        out_ += ",\"args\":{\"name\":\"stage " + stageNames[s] + "\"}}";
    }
}

void
ChromeTraceSink::record(const TraceEvent &event)
{
    ++recorded_;
    switch (event.kind) {
      case TraceEventKind::Attribution:
        beginEvent("X", event.pe, 0, event.cycle,
                   attributionName(static_cast<TraceBucket>(event.arg)));
        out_ += ",\"dur\":1,\"cat\":\"stall\"}";
        return;
      case TraceEventKind::Issue:
        beginEvent("X", event.pe, 0, event.cycle, "issue");
        out_ += ",\"dur\":1,\"cat\":\"issue\",\"args\":{\"inst\":";
        appendUint(out_, event.index);
        out_ += ",\"id\":";
        appendUint(out_, event.value);
        out_ += "}}";
        return;
      case TraceEventKind::Retire:
        beginEvent("i", event.pe, 0, event.cycle, "retire");
        out_ += ",\"s\":\"t\",\"args\":{\"inst\":";
        appendUint(out_, event.index);
        out_ += ",\"id\":";
        appendUint(out_, event.value);
        out_ += ",\"pred_write\":";
        out_ += (event.arg & kRetireWrotePredicate) ? "true" : "false";
        out_ += "}}";
        return;
      case TraceEventKind::Quash:
        beginEvent("i", event.pe, 0, event.cycle,
                   (event.arg & kQuashIssueSlot) ? "quash-issue"
                                                 : "quash");
        out_ += ",\"s\":\"t\",\"args\":{\"id\":";
        appendUint(out_, event.value);
        out_ += "}}";
        return;
      case TraceEventKind::Predict:
        beginEvent("i", event.pe, 0, event.cycle, "predict");
        out_ += ",\"s\":\"t\",\"args\":{\"pred\":";
        appendUint(out_, event.arg);
        out_ += ",\"value\":";
        out_ += (event.value & 1) ? "true" : "false";
        out_ += ",\"fault_flipped\":";
        out_ += (event.value & 2) ? "true" : "false";
        out_ += "}}";
        return;
      case TraceEventKind::Resolve:
        beginEvent("i", event.pe, 0, event.cycle,
                   (event.value & 2) ? "mispredict" : "confirm");
        out_ += ",\"s\":\"t\",\"args\":{\"pred\":";
        appendUint(out_, event.arg);
        out_ += ",\"actual\":";
        out_ += (event.value & 1) ? "true" : "false";
        out_ += ",\"fault_recovered\":";
        out_ += (event.value & 4) ? "true" : "false";
        out_ += "}}";
        return;
      case TraceEventKind::StageOccupancy:
        beginEvent("X", event.pe, event.arg + 1u, event.cycle,
                   "i" + std::to_string(event.index));
        out_ += ",\"dur\":1,\"cat\":\"stage\",\"args\":{\"id\":";
        appendUint(out_, event.value);
        out_ += "}}";
        return;
      case TraceEventKind::QueueDepth:
        beginEvent("C", kChromeChannelPid, 0, event.cycle,
                   "ch" + std::to_string(event.index));
        out_ += ",\"args\":{\"occupancy\":";
        appendUint(out_, event.value);
        out_ += "}}";
        return;
      case TraceEventKind::Park:
        beginEvent("i", event.pe, 0, event.cycle, "park");
        out_ += ",\"s\":\"t\"}";
        return;
      case TraceEventKind::Wake:
        beginEvent("i", event.pe, 0, event.cycle, "wake");
        out_ += ",\"s\":\"t\"}";
        return;
      case TraceEventKind::Halt:
        beginEvent("i", event.pe, 0, event.cycle, "halt");
        out_ += ",\"s\":\"p\"}";
        return;
    }
}

std::string
ChromeTraceSink::finish() const
{
    return out_ + "\n]\n";
}

bool
ChromeTraceSink::writeTo(const std::string &path) const
{
    return writeFile(path, finish());
}

} // namespace tia
