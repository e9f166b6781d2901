#include "uarch/config.hh"

#include "core/parse.hh"

namespace tia {

std::string
PipelineShape::name() const
{
    std::string name = "T";
    if (splitTD)
        name += '|';
    name += 'D';
    if (splitDX)
        name += '|';
    if (splitX) {
        name += "X1|X2";
    } else {
        name += 'X';
    }
    return name;
}

std::vector<std::string>
PipelineShape::segmentNames() const
{
    std::vector<std::string> segments;
    std::string current;
    for (char c : name()) {
        if (c == '|') {
            segments.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    segments.push_back(current);
    return segments;
}

const std::array<PipelineShape, 8> &
allShapes()
{
    // Shallow to deep, matching the presentation order of Figure 5.
    static const std::array<PipelineShape, 8> shapes = {{
        {false, false, false}, // TDX (single cycle)
        {false, false, true},  // TDX1|X2
        {false, true, false},  // TD|X
        {true, false, false},  // T|DX
        {false, true, true},   // TD|X1|X2
        {true, false, true},   // T|DX1|X2
        {true, true, false},   // T|D|X
        {true, true, true},    // T|D|X1|X2
    }};
    return shapes;
}

std::string
PeConfig::name() const
{
    std::string name = shape.name();
    std::string suffix;
    if (predictPredicates)
        suffix += "+P";
    if (nestedSpeculation)
        suffix += "+N";
    if (effectiveQueueStatus)
        suffix += "+Q";
    if (!suffix.empty())
        name += " " + suffix;
    return name;
}

std::vector<PeConfig>
allConfigs()
{
    std::vector<PeConfig> configs;
    for (const auto &shape : allShapes()) {
        configs.push_back({shape, false, false});
        configs.push_back({shape, true, false});
        configs.push_back({shape, false, true});
        configs.push_back({shape, true, true});
    }
    return configs;
}

std::vector<PeConfig>
figure5Configs()
{
    std::vector<PeConfig> configs;
    for (const auto &shape : allShapes()) {
        configs.push_back({shape, false, false});
        configs.push_back({shape, true, false});
        configs.push_back({shape, true, true});
    }
    return configs;
}

std::optional<PeConfig>
parseConfigName(const std::string &name)
{
    for (const auto &shape : allShapes()) {
        for (bool p : {false, true}) {
            for (bool q : {false, true}) {
                for (bool n : {false, true}) {
                    if (n && !p)
                        continue;
                    const PeConfig config{shape, p, q, n};
                    if (config.name() == name)
                        return config;
                }
            }
        }
    }
    return std::nullopt;
}

std::vector<PeConfig>
parseConfigList(const std::string &text)
{
    std::vector<PeConfig> configs;
    for (const std::string &name : splitList(text, "microarchitecture")) {
        if (name == "all" || name == "fig5") {
            const auto group =
                name == "all" ? allConfigs() : figure5Configs();
            configs.insert(configs.end(), group.begin(), group.end());
            continue;
        }
        const auto config = parseConfigName(name);
        fatalIf(!config.has_value(), "unknown microarchitecture \"", name,
                "\" (try e.g. \"TDX\", \"T|DX +P+Q\", \"fig5\" or "
                "\"all\")");
        configs.push_back(*config);
    }
    return configs;
}

} // namespace tia
