#pragma once
/// \file json.hpp
/// \brief Minimal streaming JSON writer and strict parser. Every
///        machine-readable roll-up in the repo (batch exports, bench
///        summaries, grid certifications) emits through this one builder
///        instead of hand-concatenating strings, so escaping, comma
///        placement and round-trip number formatting are defined in
///        exactly one place - and the serving layer parses inbound
///        requests through the matching strict reader.
///
/// The writer defaults to pretty-printed output (two-space indent, one
/// key/value or array element per line) because the artifacts are diffed
/// and eyeballed in CI as much as they are parsed; compact mode emits the
/// whole document on one line for newline-delimited wire protocols.

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace oscs {

/// Round-trip double formatting shared by every JSON emitter: the
/// "%.17g" text, produced by std::to_chars (non-finite values are emitted
/// as null, which strict JSON requires).
[[nodiscard]] std::string json_number(double value);

/// Escape a string body per RFC 8259 (quotes, backslash, the short
/// control escapes \b \f \n \r \t, and \u00XX for the rest of C0).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Streaming JSON document builder with automatic comma/indent handling.
/// Usage:
///   JsonWriter w;
///   w.begin_object().field("tasks", 12).key("cells").begin_array();
///   for (...) w.begin_object().field("x", x).end_object();
///   w.end_array().end_object();
///   write_text_file(w.str(), path, "my_export");
class JsonWriter {
 public:
  /// \param pretty  two-space-indented multi-line output (the default);
  ///                false packs the document onto a single line for
  ///                newline-delimited protocols.
  explicit JsonWriter(bool pretty = true) : pretty_(pretty) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// One template for every integer type: avoids overload ambiguity on
  /// platforms where size_t matches neither uint64_t nor unsigned long
  /// long exactly.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    return raw_value(std::string_view(buf, r.ptr));
  }

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  /// True once every container opened has been closed (and at least one
  /// value was written).
  [[nodiscard]] bool complete() const noexcept;

  /// The document text (with a trailing newline once complete).
  /// \throws std::logic_error if containers are still open.
  [[nodiscard]] std::string str() const;

 private:
  JsonWriter& raw_value(std::string_view text);
  void begin_value();
  void write_indent();

  enum class Scope : std::uint8_t { kObject, kArray };
  std::string out_;
  std::vector<Scope> stack_;
  bool pretty_ = true;       ///< indent + newlines vs single-line output
  bool need_comma_ = false;  ///< a sibling value precedes the next one
  bool after_key_ = false;   ///< a key was just written; value goes inline
  bool done_ = false;        ///< a complete top-level value was written
};

/// Immutable parsed JSON document node. Produced by json_parse; object
/// member order is preserved (and duplicate keys rejected) so responses
/// can be byte-compared in tests.
class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  ///< null

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Typed accessors; every one throws std::invalid_argument when the
  /// node holds a different type.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The number as an exact non-negative integer (seeds, lengths, counts).
  /// \throws std::invalid_argument on a non-number, a negative, fractional
  ///         or non-finite value, or one above 2^63 (lexeme-based, so
  ///         64-bit seeds survive the double round trip).
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;   ///< array
  [[nodiscard]] const std::vector<Member>& members() const;    ///< object
  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  bool operator==(const JsonValue& other) const;

  /// Builders (used by the parser; handy for tests).
  [[nodiscard]] static JsonValue make_null();
  [[nodiscard]] static JsonValue make_bool(bool v);
  /// \param lexeme the literal number text (kept for integer fidelity).
  [[nodiscard]] static JsonValue make_number(double v, std::string lexeme);
  [[nodiscard]] static JsonValue make_string(std::string v);
  [[nodiscard]] static JsonValue make_array(std::vector<JsonValue> items);
  [[nodiscard]] static JsonValue make_object(std::vector<Member> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_;  ///< string body, or number lexeme
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Strict RFC 8259 parser: rejects trailing garbage, comments, trailing
/// commas, duplicate object keys, raw control characters in strings,
/// malformed \u escapes (including lone surrogates) and malformed number
/// syntax. Nesting depth is capped so hostile input cannot overflow the
/// stack.
/// \throws std::invalid_argument with a byte offset on malformed input.
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Write text to `path`, creating parent directories as needed. `what`
/// names the caller in the error message.
/// \throws std::runtime_error if the file cannot be opened.
void write_text_file(const std::string& text, const std::string& path,
                     const char* what);

}  // namespace oscs
