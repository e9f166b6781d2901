/**
 * @file
 * Minimal JSON document tree for the observability layer: build,
 * serialize and parse tia-metrics/v1 documents without external
 * dependencies.
 *
 * Numbers keep their integer-ness: a value built from (or parsed as) an
 * integer holds it exactly, signed or unsigned, and serializes without
 * a decimal point, so every uint64 up to 2^64 - 1 and every int64
 * survives a round trip well past 2^53 would-be-double territory.
 * Doubles serialize with %.9g.
 * Non-finite doubles serialize as `null` — JSON has no NaN/inf, and a
 * NaN CPI (no retirements, see PerfCounters::cpi) must survive a
 * round trip as "no value" rather than corrupt the document.
 *
 * The parser accepts strict JSON (no comments, no trailing commas) and
 * exists so the schema checker (tools/tia_metrics_check.cc) and the
 * tests can validate what the tools emitted.
 */

#ifndef TIA_OBS_JSON_HH
#define TIA_OBS_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tia {

/** One JSON value: null, bool, number, string, array or object. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    JsonValue(bool value) : kind_(Kind::Bool), bool_(value) {}
    JsonValue(double value) : kind_(Kind::Number), num_(value) {}
    JsonValue(std::int64_t value)
        : kind_(Kind::Number), num_(static_cast<double>(value)),
          int_(static_cast<std::uint64_t>(value)), intKind_(IntKind::Signed)
    {}
    JsonValue(std::uint64_t value)
        : kind_(Kind::Number), num_(static_cast<double>(value)), int_(value),
          intKind_(IntKind::Unsigned)
    {}
    JsonValue(int value) : JsonValue(static_cast<std::int64_t>(value)) {}
    JsonValue(unsigned value) : JsonValue(static_cast<std::uint64_t>(value))
    {}
    JsonValue(const char *value) : kind_(Kind::String), str_(value) {}
    JsonValue(std::string value)
        : kind_(Kind::String), str_(std::move(value))
    {}

    static JsonValue
    array()
    {
        JsonValue v;
        v.kind_ = Kind::Array;
        return v;
    }

    static JsonValue
    object()
    {
        JsonValue v;
        v.kind_ = Kind::Object;
        return v;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const { return bool_; }
    double number() const { return num_; }
    const std::string &str() const { return str_; }

    /**
     * The exact value of a number built from or parsed as a
     * non-negative integer; nullopt for anything else.
     */
    std::optional<std::uint64_t>
    u64() const
    {
        if (intKind_ == IntKind::Unsigned ||
            (intKind_ == IntKind::Signed &&
             static_cast<std::int64_t>(int_) >= 0)) {
            return int_;
        }
        return std::nullopt;
    }

    /** Array elements (empty unless isArray()). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in insertion order (empty unless isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** Append to an array (converts a Null value into an array). */
    void
    push(JsonValue value)
    {
        kind_ = Kind::Array;
        items_.push_back(std::move(value));
    }

    /**
     * Object member access; creates the member (and converts a Null
     * value into an object) if absent.
     */
    JsonValue &operator[](const std::string &key);

    /** Lookup without creation; nullptr if absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /**
     * Serialize with 2-space indentation per nesting level. An array or
     * object whose elements are all scalars prints on one line.
     */
    std::string dump() const;

    /** Parse strict JSON; on failure returns nullopt and sets @p error. */
    static std::optional<JsonValue> parse(std::string_view text,
                                          std::string *error = nullptr);

  private:
    void dumpTo(std::string &out, unsigned depth) const;

    /** How int_ holds an integral number's exact value. */
    enum class IntKind : std::uint8_t
    {
        None,     ///< Not an integer: num_ only.
        Signed,   ///< int_ holds an int64's bits.
        Unsigned, ///< int_ holds a uint64.
    };

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::uint64_t int_ = 0;
    IntKind intKind_ = IntKind::None;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Write @p text to @p path, replacing the file. Returns false unless
 * the file opened, every byte was written and it closed cleanly (a
 * full device often fails only at the close).
 */
bool writeFile(const std::string &path, std::string_view text);

} // namespace tia

#endif // TIA_OBS_JSON_HH
