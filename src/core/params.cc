#include "core/params.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>

#include "core/logging.hh"

namespace tia {

void
ArchParams::validate() const
{
    fatalIf(numRegs == 0, "NRegs must be positive");
    fatalIf(numInputQueues == 0, "NIQueues must be positive");
    fatalIf(numOutputQueues == 0, "NOQueues must be positive");
    fatalIf(numPreds == 0 || numPreds > 64,
            "NPreds must be in [1, 64], got ", numPreds);
    fatalIf(wordWidth == 0 || wordWidth > 32,
            "Word width must be in [1, 32], got ", wordWidth);
    fatalIf(tagWidth == 0 || tagWidth > 8,
            "TagWidth must be in [1, 8], got ", tagWidth);
    // Trigger resolution walks the store in priority order and needs
    // no bound; 64 is kept so that no store larger than any this code
    // has been tested with is accepted.
    fatalIf(numInstructions == 0 || numInstructions > 64,
            "NIns must be in [1, 64], got ", numInstructions);
    fatalIf(maxCheck > numInputQueues,
            "MaxCheck (", maxCheck, ") exceeds NIQueues (", numInputQueues,
            ")");
    fatalIf(maxDeq > numInputQueues,
            "MaxDeq (", maxDeq, ") exceeds NIQueues (", numInputQueues, ")");
    fatalIf(numSrcs != 2, "the ISA defines exactly 2 source operands");
    fatalIf(numDsts != 1, "the ISA defines exactly 1 destination");
    fatalIf(numOps == 0 || numOps > 64, "NOps must be in [1, 64]");
    fatalIf(queueCapacity == 0, "queue capacity must be positive");
}

unsigned
FieldWidths::total() const
{
    return val + predMask + queueIndices + notTags + tagVals + op +
           srcTypes + srcIds + dstTypes + dstIds + outTag + iQueueDeq +
           predUpdate + imm;
}

unsigned
FieldWidths::padded() const
{
    return (total() + 31u) / 32u * 32u;
}

FieldWidths
fieldWidths(const ArchParams &p)
{
    FieldWidths w;
    w.val = 1;
    w.predMask = 2 * p.numPreds;
    w.queueIndices = p.maxCheck * clog2(p.numInputQueues + 1);
    w.notTags = p.maxCheck;
    w.tagVals = p.maxCheck * p.tagWidth;
    w.op = clog2(p.numOps);
    w.srcTypes = p.numSrcs * 2;
    w.srcIds =
        p.numSrcs * clog2(std::max<std::size_t>(p.numRegs, p.numInputQueues));
    w.dstTypes = p.numDsts * 2;
    w.dstIds = p.numDsts *
               clog2(std::max<std::size_t>(
                   {p.numRegs, p.numOutputQueues, p.numPreds}));
    w.outTag = p.tagWidth;
    w.iQueueDeq = p.maxDeq * clog2(p.numInputQueues + 1);
    w.predUpdate = 2 * p.numPreds;
    w.imm = p.wordWidth;
    return w;
}

std::string
ArchParams::toString() const
{
    std::ostringstream os;
    os << "NRegs: " << numRegs << "\n"
       << "NIQueues: " << numInputQueues << "\n"
       << "NOQueues: " << numOutputQueues << "\n"
       << "MaxCheck: " << maxCheck << "\n"
       << "MaxDeq: " << maxDeq << "\n"
       << "NPreds: " << numPreds << "\n"
       << "Word: " << wordWidth << "\n"
       << "TagWidth: " << tagWidth << "\n"
       << "NIns: " << numInstructions << "\n"
       << "NOps: " << numOps << "\n"
       << "NSrcs: " << numSrcs << "\n"
       << "NDsts: " << numDsts << "\n"
       << "QueueCapacity: " << queueCapacity << "\n"
       << "ScratchpadWords: " << scratchpadWords << "\n";
    return os.str();
}

namespace {

std::string
trim(const std::string &text)
{
    auto begin = text.find_first_not_of(" \t\r");
    auto end = text.find_last_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    return text.substr(begin, end - begin + 1);
}

} // namespace

ArchParams
parseParams(const std::string &text)
{
    ArchParams params;
    std::map<std::string, unsigned ArchParams::*> keys = {
        {"NRegs", &ArchParams::numRegs},
        {"NIQueues", &ArchParams::numInputQueues},
        {"NOQueues", &ArchParams::numOutputQueues},
        {"MaxCheck", &ArchParams::maxCheck},
        {"MaxDeq", &ArchParams::maxDeq},
        {"NPreds", &ArchParams::numPreds},
        {"Word", &ArchParams::wordWidth},
        {"TagWidth", &ArchParams::tagWidth},
        {"NIns", &ArchParams::numInstructions},
        {"NOps", &ArchParams::numOps},
        {"NSrcs", &ArchParams::numSrcs},
        {"NDsts", &ArchParams::numDsts},
        {"QueueCapacity", &ArchParams::queueCapacity},
        {"ScratchpadWords", &ArchParams::scratchpadWords},
    };

    std::istringstream is(text);
    std::string line;
    unsigned line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        auto comment = line.find('#');
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        line = trim(line);
        if (line.empty())
            continue;
        auto colon = line.find(':');
        fatalIf(colon == std::string::npos, "params line ", line_no,
                ": expected `Key: value`, got \"", line, "\"");
        std::string key = trim(line.substr(0, colon));
        std::string value = trim(line.substr(colon + 1));
        auto it = keys.find(key);
        fatalIf(it == keys.end(), "params line ", line_no,
                ": unknown parameter \"", key, "\"");
        fatalIf(value.empty() ||
                    !std::all_of(value.begin(), value.end(),
                                 [](unsigned char c) {
                                     return std::isdigit(c);
                                 }),
                "params line ", line_no, ": value for ", key,
                " must be a non-negative integer, got \"", value, "\"");
        params.*(it->second) = static_cast<unsigned>(std::stoul(value));
    }
    params.validate();
    return params;
}

} // namespace tia
