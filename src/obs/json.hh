/**
 * @file
 * Minimal JSON support for the observability layer: a streaming writer
 * with deterministic formatting (the byte-identity guarantees of the
 * stats export rest on it) and a small recursive-descent parser used by
 * the run-diff tooling to read exported stats back. Both are deliberately
 * self-contained — no third-party JSON dependency.
 */

#ifndef SCD_OBS_JSON_HH
#define SCD_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace scd::obs
{

/**
 * Streaming JSON writer. Structure is explicit (beginObject/endObject,
 * beginArray/endArray); commas and indentation are managed internally.
 * Number formatting is deterministic: integers print exactly, doubles
 * with shortest-round-trip "%.17g" collapsed through "%g" when lossless,
 * so the same values always serialize to the same bytes.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(unsigned indent = 2) : indent_(indent) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by exactly one value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text);
    JsonWriter &value(bool b);
    JsonWriter &value(int64_t v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(unsigned v) { return value(uint64_t(v)); }
    JsonWriter &value(int v) { return value(int64_t(v)); }
    JsonWriter &value(double v);
    JsonWriter &nullValue();

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    member(std::string_view name, T &&v)
    {
        key(name);
        return value(std::forward<T>(v));
    }

    /** The document so far. */
    const std::string &str() const { return out_; }

    /** Escape @p text as a JSON string literal (with quotes). */
    static std::string quote(std::string_view text);

    /** Deterministic double rendering (no quotes). */
    static std::string number(double v);

  private:
    void beforeValue();
    void newline();

    std::string out_;
    unsigned indent_;
    /** One frame per open container: true = object, false = array. */
    std::vector<bool> stack_;
    std::vector<bool> hasItems_;
    bool pendingKey_ = false;
};

/**
 * Parsed JSON document node. Numbers remember whether the source text was
 * integral so 64-bit counters survive the round trip without a detour
 * through double.
 */
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

    /**
     * Parse @p text. On failure returns a Null value and, when @p error
     * is non-null, stores a message with the offending offset.
     */
    static JsonValue parse(std::string_view text,
                           std::string *error = nullptr);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }

    bool asBool() const { return boolean_; }
    double asDouble() const { return number_; }
    uint64_t asUint() const;
    const std::string &asString() const { return string_; }

    /** Object member lookup; returns a shared Null value if absent. */
    const JsonValue &at(std::string_view name) const;
    bool has(std::string_view name) const;

    /** Array element access; returns a shared Null value out of range. */
    const JsonValue &at(size_t index) const;
    size_t size() const;

    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>> &members() const
    {
        return object_;
    }

    /** Array elements. */
    const std::vector<JsonValue> &elements() const { return array_; }

    /** Convenience: at(name).asDouble() with a default when absent. */
    double numberOr(std::string_view name, double fallback) const;

    /** Convenience: at(name).asString() with a default when absent. */
    std::string stringOr(std::string_view name,
                         const std::string &fallback) const;

  private:
    Kind kind_ = Kind::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    uint64_t uintValue_ = 0;
    bool integral_ = false;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;

    friend class JsonParser;
};

} // namespace scd::obs

#endif // SCD_OBS_JSON_HH
