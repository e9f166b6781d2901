#include "sim/fault.hh"

#include <cmath>
#include <sstream>

#include "core/logging.hh"

namespace tia {

const char *
faultClassName(FaultClass cls)
{
    switch (cls) {
      case FaultClass::Drop:
        return "drop";
      case FaultClass::Duplicate:
        return "dup";
      case FaultClass::Corrupt:
        return "corrupt";
      case FaultClass::StuckFull:
        return "stuckfull";
      case FaultClass::StuckEmpty:
        return "stuckempty";
      case FaultClass::Mispredict:
        return "mispredict";
      case FaultClass::MemLatency:
        return "memspike";
    }
    return "?";
}

namespace {

const char *
sitePrefix(FaultSite site)
{
    switch (site) {
      case FaultSite::Channel:
        return "ch";
      case FaultSite::Pe:
        return "pe";
      case FaultSite::ReadPort:
        return "rp";
    }
    return "?";
}

FaultSite
requiredSite(FaultClass cls)
{
    switch (cls) {
      case FaultClass::Mispredict:
        return FaultSite::Pe;
      case FaultClass::MemLatency:
        return FaultSite::ReadPort;
      default:
        return FaultSite::Channel;
    }
}

/** Trim ASCII whitespace from both ends. */
std::string
trimmed(const std::string &text)
{
    std::size_t begin = text.find_first_not_of(" \t\n\r");
    if (begin == std::string::npos)
        return "";
    std::size_t end = text.find_last_not_of(" \t\n\r");
    return text.substr(begin, end - begin + 1);
}

} // namespace

std::string
FaultEvent::name() const
{
    std::ostringstream os;
    os << faultClassName(cls) << ':' << sitePrefix(site) << index << '@';
    if (probability >= 0.0) {
        os << 'p' << probability;
    } else {
        os << 'c' << start;
        if (length > 0)
            os << '+' << length;
    }
    if (cls == FaultClass::Corrupt && mask != 0)
        os << ",mask=0x" << std::hex << mask << std::dec;
    if (cls == FaultClass::MemLatency)
        os << ",extra=" << extra;
    return os.str();
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::stringstream stream(spec);
    std::string entry;
    while (std::getline(stream, entry, ';')) {
        entry = trimmed(entry);
        if (entry.empty())
            continue;
        if (entry.rfind("seed=", 0) == 0) {
            plan.seed = std::stoull(entry.substr(5), nullptr, 0);
            continue;
        }

        FaultEvent event;
        const auto colon = entry.find(':');
        fatalIf(colon == std::string::npos, "fault event \"", entry,
                "\" lacks a CLASS:SITE separator");
        const std::string cls_name = entry.substr(0, colon);
        bool found = false;
        for (FaultClass cls :
             {FaultClass::Drop, FaultClass::Duplicate, FaultClass::Corrupt,
              FaultClass::StuckFull, FaultClass::StuckEmpty,
              FaultClass::Mispredict, FaultClass::MemLatency}) {
            if (cls_name == faultClassName(cls)) {
                event.cls = cls;
                found = true;
                break;
            }
        }
        fatalIf(!found, "unknown fault class \"", cls_name, "\"");
        event.site = requiredSite(event.cls);

        const auto at = entry.find('@', colon);
        fatalIf(at == std::string::npos, "fault event \"", entry,
                "\" lacks an @TRIGGER");
        const std::string site_text = entry.substr(colon + 1, at - colon - 1);
        const std::string prefix = sitePrefix(event.site);
        fatalIf(site_text.rfind(prefix, 0) != 0, "fault class \"", cls_name,
                "\" wants a ", prefix, "N site, got \"", site_text, "\"");
        event.index = static_cast<unsigned>(
            std::stoul(site_text.substr(prefix.size())));

        // TRIGGER[,KEY=VALUE...]
        std::string rest = entry.substr(at + 1);
        std::vector<std::string> parts;
        std::stringstream rest_stream(rest);
        std::string part;
        while (std::getline(rest_stream, part, ','))
            parts.push_back(trimmed(part));
        fatalIf(parts.empty(), "fault event \"", entry, "\" has no trigger");

        const std::string &trigger = parts[0];
        fatalIf(trigger.empty(), "fault event \"", entry,
                "\" has an empty trigger");
        if (trigger[0] == 'p') {
            event.probability = std::stod(trigger.substr(1));
            fatalIf(event.probability < 0.0 || event.probability > 1.0,
                    "fault probability must lie in [0, 1], got ",
                    event.probability);
        } else if (trigger[0] == 'c') {
            event.probability = -1.0;
            const auto plus = trigger.find('+');
            if (plus == std::string::npos) {
                event.start = std::stoull(trigger.substr(1));
                event.length = 0;
            } else {
                event.start = std::stoull(trigger.substr(1, plus - 1));
                event.length = std::stoull(trigger.substr(plus + 1));
            }
        } else {
            fatal("fault trigger \"", trigger,
                  "\" must be pPROB or cSTART[+LEN]");
        }

        for (std::size_t i = 1; i < parts.size(); ++i) {
            const auto eq = parts[i].find('=');
            fatalIf(eq == std::string::npos, "malformed fault option \"",
                    parts[i], "\"");
            const std::string key = parts[i].substr(0, eq);
            const std::string value = parts[i].substr(eq + 1);
            if (key == "mask") {
                event.mask =
                    static_cast<Word>(std::stoul(value, nullptr, 0));
            } else if (key == "extra") {
                event.extra =
                    static_cast<unsigned>(std::stoul(value, nullptr, 0));
            } else {
                fatal("unknown fault option \"", key, "\"");
            }
        }
        plan.events.push_back(event);
    }
    return plan;
}

std::string
FaultPlan::toString() const
{
    std::ostringstream os;
    os << "seed=" << seed;
    for (const auto &event : events)
        os << ';' << event.name();
    return os.str();
}

std::uint64_t
FaultStats::totalFired() const
{
    std::uint64_t total = 0;
    for (const auto &line : lines)
        total += line.fired;
    return total;
}

std::string
FaultStats::summary() const
{
    std::ostringstream os;
    for (const auto &line : lines) {
        os << line.name << ": fired " << line.fired << " (declined "
           << line.declined << ")\n";
    }
    return os.str();
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan))
{
    rngState_ = plan_.seed ? plan_.seed : 0x9e3779b97f4a7c15ull;
    for (const auto &event : plan_.events)
        stats_.lines.push_back({event.name(), 0, 0});
    stuckActive_.assign(plan_.events.size(), false);
}

std::uint64_t
FaultInjector::nextRandom()
{
    // xorshift64*: cheap, full-period, and state-deterministic.
    rngState_ ^= rngState_ >> 12;
    rngState_ ^= rngState_ << 25;
    rngState_ ^= rngState_ >> 27;
    return rngState_ * 0x2545F4914F6CDD1Dull;
}

double
FaultInjector::uniform()
{
    return static_cast<double>(nextRandom() >> 11) * 0x1.0p-53;
}

bool
FaultInjector::rolls(std::size_t eventIndex)
{
    const FaultEvent &event = plan_.events[eventIndex];
    bool fire;
    if (event.probability >= 0.0) {
        fire = uniform() < event.probability;
    } else {
        fire = now_ >= event.start &&
               (event.length == 0 || now_ < event.start + event.length);
    }
    if (fire)
        ++stats_.lines[eventIndex].fired;
    else
        ++stats_.lines[eventIndex].declined;
    return fire;
}

void
FaultInjector::beginCycle(Cycle now)
{
    now_ = now;
    // Stuck-status verdicts are queried many times per cycle from
    // const context; decide them once per cycle here so the number of
    // status queries cannot perturb the random sequence.
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
        const FaultEvent &event = plan_.events[i];
        if (event.cls != FaultClass::StuckFull &&
            event.cls != FaultClass::StuckEmpty) {
            continue;
        }
        stuckActive_[i] = rolls(i);
    }
}

FaultInjector::PushAction
FaultInjector::onPush(unsigned channel, Token &token)
{
    auto action = PushAction::Keep;
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
        const FaultEvent &event = plan_.events[i];
        if (event.site != FaultSite::Channel || event.index != channel)
            continue;
        switch (event.cls) {
          case FaultClass::Corrupt:
            if (rolls(i)) {
                Word mask = event.mask;
                if (mask == 0) {
                    mask = static_cast<Word>(nextRandom());
                    if (mask == 0)
                        mask = 1;
                }
                token.data ^= mask;
            }
            break;
          case FaultClass::Drop:
            if (action == PushAction::Keep && rolls(i))
                action = PushAction::Drop;
            break;
          case FaultClass::Duplicate:
            if (action == PushAction::Keep && rolls(i))
                action = PushAction::Duplicate;
            break;
          default:
            break;
        }
    }
    return action;
}

bool
FaultInjector::stuckEmpty(unsigned channel) const
{
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
        const FaultEvent &event = plan_.events[i];
        if (event.cls == FaultClass::StuckEmpty &&
            event.index == channel && stuckActive_[i]) {
            return true;
        }
    }
    return false;
}

bool
FaultInjector::stuckFull(unsigned channel) const
{
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
        const FaultEvent &event = plan_.events[i];
        if (event.cls == FaultClass::StuckFull && event.index == channel &&
            stuckActive_[i]) {
            return true;
        }
    }
    return false;
}

bool
FaultInjector::flipPrediction(unsigned pe)
{
    bool flip = false;
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
        const FaultEvent &event = plan_.events[i];
        if (event.cls == FaultClass::Mispredict && event.index == pe &&
            rolls(i)) {
            flip = !flip; // Two stacked flips cancel, as in hardware.
        }
    }
    return flip;
}

unsigned
FaultInjector::extraReadLatency(unsigned port)
{
    unsigned extra = 0;
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
        const FaultEvent &event = plan_.events[i];
        if (event.cls == FaultClass::MemLatency && event.index == port &&
            rolls(i)) {
            extra += event.extra;
        }
    }
    return extra;
}

} // namespace tia
