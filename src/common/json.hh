/**
 * @file
 * Minimal JSON support: a streaming writer for exporters and a small
 * recursive-descent parser for tools that read exported files back
 * (tools/trace_report, the schema checks in CI, unit tests).
 *
 * Deliberately tiny — no external dependency, no incremental parsing,
 * numbers limited to what the exporters emit (64-bit integers and
 * finite doubles). All simulated times fit in a double's 53-bit
 * mantissa (< 2^53 ns ≈ 104 days), but integers are preserved exactly
 * anyway when they round-trip.
 */

#ifndef COMMON_JSON_HH
#define COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace common {

/** Write @p s to @p os as a JSON string literal (quotes included). */
void jsonEscape(std::ostream &os, std::string_view s);

/**
 * Streaming JSON writer with automatic comma/nesting management.
 *
 * @code
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.key("schema").value("milana-bench-v1");
 *   w.key("rows").beginArray();
 *   w.beginObject(); w.key("x").value(1); w.endObject();
 *   w.endArray();
 *   w.endObject();
 * @endcode
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member name; must be followed by exactly one value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int32_t v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(std::uint32_t v) { return value(static_cast<std::uint64_t>(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &null();

  private:
    /** Emit a comma/newline separator if this position needs one. */
    void separate();

    struct Level
    {
        bool array = false;
        bool first = true;
    };

    std::ostream &os_;
    std::vector<Level> stack_;
    bool afterKey_ = false;
};

/**
 * A parsed JSON document node. Numbers keep both an integer and a
 * double view so exact 64-bit counters survive a round trip.
 */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
    };

    /**
     * Parse a complete document. On failure returns a Null value and,
     * when @p error is non-null, a one-line description with offset.
     */
    static JsonValue parse(std::string_view text,
                           std::string *error = nullptr);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    std::int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const { return string_; }

    const std::vector<JsonValue> &items() const { return array_; }
    std::size_t size() const { return array_.size(); }
    const JsonValue &operator[](std::size_t i) const { return array_[i]; }

    const std::map<std::string, JsonValue> &members() const
    {
        return object_;
    }
    bool has(const std::string &name) const
    {
        return object_.count(name) != 0;
    }
    /** Member lookup; returns a shared Null value when absent. */
    const JsonValue &at(const std::string &name) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;

    friend class JsonParser;
};

} // namespace common

#endif // COMMON_JSON_HH
