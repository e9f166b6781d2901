/**
 * @file
 * Strict parsers for command-line values: counts, rates and comma
 * lists. Every tool parses its options through these, so "-1", "5junk"
 * or "nan" is a diagnostic naming the option everywhere, never a
 * silent wrap (std::stoull reads "-1" as 2^64-1 and "5junk" as 5).
 */

#ifndef TIA_CORE_PARSE_HH
#define TIA_CORE_PARSE_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/logging.hh"

namespace tia {

/**
 * Parse @p text as a decimal integer: digits only, no sign, blanks or
 * trailing text. Anything else is a FatalError saying that @p option
 * wants a non-negative integer. Returns nullopt when the value does
 * not fit in 64 bits.
 */
inline std::optional<std::uint64_t>
parseDigits(const char *option, std::string_view text)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    fatalIf(error == std::errc::invalid_argument || stop != end, option,
            " wants a non-negative integer, got \"", text, "\"");
    if (error == std::errc::result_out_of_range)
        return std::nullopt;
    return value;
}

/** parseDigits for a count of at most @p max. */
inline std::uint64_t
parseCount64(const char *option, std::string_view text,
             std::uint64_t max = UINT64_MAX)
{
    const std::optional<std::uint64_t> value = parseDigits(option, text);
    fatalIf(!value || *value > max, option, " ", text, " is out of range");
    return *value;
}

/** parseCount64 for counts that size things (at most 9 digits). */
inline unsigned
parseCount(const char *option, std::string_view text)
{
    return static_cast<unsigned>(parseCount64(option, text, 999'999'999));
}

/** Parse a finite, non-negative decimal number (a rate or a size). */
inline double
parseRate(const char *option, std::string_view text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    fatalIf(error != std::errc{} || stop != end || !std::isfinite(value) ||
                value < 0.0,
            option, " wants a finite, non-negative number, got \"", text,
            "\"");
    return value;
}

/**
 * Split a comma-separated list, trimming blanks around each entry. An
 * empty entry is a FatalError naming @p what.
 */
inline std::vector<std::string>
splitList(std::string_view list, const char *what)
{
    std::vector<std::string> entries;
    for (std::string_view text = list;;) {
        const std::size_t comma = text.find(',');
        std::string_view entry = text.substr(0, comma);
        const std::size_t begin = entry.find_first_not_of(' ');
        fatalIf(begin == std::string_view::npos, "empty ", what,
                " entry in \"", list, "\"");
        entry = entry.substr(begin, entry.find_last_not_of(' ') - begin + 1);
        entries.emplace_back(entry);
        if (comma == std::string_view::npos)
            return entries;
        text.remove_prefix(comma + 1);
    }
}

} // namespace tia

#endif // TIA_CORE_PARSE_HH
