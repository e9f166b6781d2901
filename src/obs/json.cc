#include "obs/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tia {

JsonValue &
JsonValue::operator[](const std::string &key)
{
    kind_ = Kind::Object;
    for (auto &member : members_) {
        if (member.first == key)
            return member.second;
    }
    members_.emplace_back(key, JsonValue{});
    return members_.back().second;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

namespace {

void
dumpString(std::string &out, const std::string &value)
{
    out += '"';
    for (char c : value) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
indent(std::string &out, unsigned depth)
{
    out.append(2 * static_cast<std::size_t>(depth), ' ');
}

} // namespace

void
JsonValue::dumpTo(std::string &out, unsigned depth) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        return;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        return;
      case Kind::Number: {
        char buf[64];
        if (intKind_ == IntKind::Signed) {
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(int_));
        } else if (intKind_ == IntKind::Unsigned) {
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(int_));
        } else if (!std::isfinite(num_)) {
            // JSON has no NaN/inf: an undefined value (e.g. the CPI of
            // a PE that retired nothing) serializes as null.
            out += "null";
            return;
        } else {
            std::snprintf(buf, sizeof(buf), "%.9g", num_);
        }
        out += buf;
        return;
      }
      case Kind::String:
        dumpString(out, str_);
        return;
      case Kind::Array:
      case Kind::Object: {
        const bool array = kind_ == Kind::Array;
        const std::size_t size = array ? items_.size() : members_.size();
        const auto element = [&](std::size_t i) -> const JsonValue & {
            return array ? items_[i] : members_[i].second;
        };
        // Containers of scalars print inline; a container holding any
        // container prints one element per line.
        bool nested = false;
        for (std::size_t i = 0; i < size; ++i)
            nested = nested || element(i).isArray() || element(i).isObject();
        out += array ? '[' : '{';
        for (std::size_t i = 0; i < size; ++i) {
            if (nested) {
                out += '\n';
                indent(out, depth + 1);
            }
            if (!array) {
                dumpString(out, members_[i].first);
                out += ": ";
            }
            element(i).dumpTo(out, depth + 1);
            if (i + 1 < size)
                out += nested ? "," : ", ";
        }
        if (nested) {
            out += '\n';
            indent(out, depth);
        }
        out += array ? ']' : '}';
        return;
      }
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out, 0);
    out += '\n';
    return out;
}

bool
writeFile(const std::string &path, std::string_view text)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), file);
    return std::fclose(file) == 0 && written == text.size();
}

namespace {

/** Recursive-descent parser over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<JsonValue>
    run(std::string *error)
    {
        auto value = parseValue();
        skipSpace();
        if (value.has_value() && pos_ != text_.size()) {
            fail("trailing characters after the document");
            value.reset();
        }
        if (!value.has_value() && error != nullptr)
            *error = error_;
        return value;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            error_ = what + " at offset " + std::to_string(pos_);
        }
        return false;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"')) {
            fail("expected a string");
            return std::nullopt;
        }
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return std::nullopt;
                }
                const unsigned long code = std::strtoul(
                    std::string(text_.substr(pos_, 4)).c_str(), nullptr,
                    16);
                pos_ += 4;
                // Metrics documents are ASCII; anything else keeps
                // only the low byte (good enough for a checker).
                out += static_cast<char>(code & 0x7f);
                break;
              }
              default:
                fail("bad escape");
                return std::nullopt;
            }
        }
        fail("unterminated string");
        return std::nullopt;
    }

    std::optional<JsonValue>
    parseValue()
    {
        skipSpace();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return std::nullopt;
        }
        const char c = text_[pos_];
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            auto str = parseString();
            if (!str.has_value())
                return std::nullopt;
            return JsonValue(std::move(*str));
        }
        if (literal("true"))
            return JsonValue(true);
        if (literal("false"))
            return JsonValue(false);
        if (literal("null"))
            return JsonValue();
        return parseNumber();
    }

    std::optional<JsonValue>
    parseNumber()
    {
        const std::size_t start = pos_;
        bool isInt = true;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                isInt = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) {
            fail("expected a value");
            return std::nullopt;
        }
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        if (isInt) {
            // Exact when it fits: negative integers as int64, the
            // rest as uint64. Wider ones fall through to a double.
            errno = 0;
            if (token[0] == '-') {
                const long long v = std::strtoll(token.c_str(), &end, 10);
                if (errno == 0 && end == token.c_str() + token.size())
                    return JsonValue(static_cast<std::int64_t>(v));
            } else {
                const unsigned long long v =
                    std::strtoull(token.c_str(), &end, 10);
                if (errno == 0 && end == token.c_str() + token.size())
                    return JsonValue(static_cast<std::uint64_t>(v));
            }
        }
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            fail("malformed number");
            return std::nullopt;
        }
        return JsonValue(v);
    }

    std::optional<JsonValue>
    parseArray()
    {
        consume('[');
        JsonValue out = JsonValue::array();
        skipSpace();
        if (consume(']'))
            return out;
        while (true) {
            auto value = parseValue();
            if (!value.has_value())
                return std::nullopt;
            out.push(std::move(*value));
            if (consume(','))
                continue;
            if (consume(']'))
                return out;
            fail("expected ',' or ']'");
            return std::nullopt;
        }
    }

    std::optional<JsonValue>
    parseObject()
    {
        consume('{');
        JsonValue out = JsonValue::object();
        skipSpace();
        if (consume('}'))
            return out;
        while (true) {
            skipSpace();
            auto key = parseString();
            if (!key.has_value())
                return std::nullopt;
            if (!consume(':')) {
                fail("expected ':'");
                return std::nullopt;
            }
            auto value = parseValue();
            if (!value.has_value())
                return std::nullopt;
            out[*key] = std::move(*value);
            if (consume(','))
                continue;
            if (consume('}'))
                return out;
            fail("expected ',' or '}'");
            return std::nullopt;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

std::optional<JsonValue>
JsonValue::parse(std::string_view text, std::string *error)
{
    return Parser(text).run(error);
}

} // namespace tia
