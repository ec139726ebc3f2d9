#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

namespace oscs {

namespace {

/// Append the "%.17g" rendering of `value` (null when non-finite): one
/// to_chars into a stack buffer, no temporary string.
void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // The "%.17g" rendering (17 significant digits, %g's exponent switch),
  // without printf's locale and format-string parsing.
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

/// Append `text` escaped per RFC 8259; runs that need no escape are
/// appended whole.
void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t clean = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + clean, i - clean);
    clean = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char unicode[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out.append(unicode, sizeof(unicode));
      }
    }
  }
  out.append(text.data() + clean, text.size() - clean);
}

}  // namespace

std::string json_number(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

void JsonWriter::write_indent() {
  if (!pretty_) return;
  out_ += '\n';
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::begin_value() {
  if (done_) {
    throw std::logic_error("JsonWriter: document already complete");
  }
  if (after_key_) {
    after_key_ = false;
    return;  // value goes right after "key": on the same line
  }
  if (!stack_.empty() && stack_.back() == Scope::kObject) {
    throw std::logic_error("JsonWriter: object values need a key() first");
  }
  if (need_comma_) out_ += ',';
  if (!stack_.empty()) write_indent();
}

JsonWriter& JsonWriter::begin_object() {
  begin_value();
  out_ += '{';
  stack_.push_back(Scope::kObject);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  begin_value();
  out_ += '[';
  stack_.push_back(Scope::kArray);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Scope::kObject || after_key_) {
    throw std::logic_error("JsonWriter: mismatched end_object()");
  }
  const bool had_members = need_comma_;
  stack_.pop_back();
  if (had_members) write_indent();
  out_ += '}';
  need_comma_ = true;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Scope::kArray) {
    throw std::logic_error("JsonWriter: mismatched end_array()");
  }
  const bool had_members = need_comma_;
  stack_.pop_back();
  if (had_members) write_indent();
  out_ += ']';
  need_comma_ = true;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back() != Scope::kObject || after_key_) {
    throw std::logic_error("JsonWriter: key() outside an object");
  }
  if (need_comma_) out_ += ',';
  write_indent();
  out_ += '"';
  append_escaped(out_, name);
  out_ += pretty_ ? "\": " : "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  begin_value();
  append_number(out_, v);
  need_comma_ = true;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  begin_value();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  begin_value();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  need_comma_ = true;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view text) {
  begin_value();
  out_ += text;
  need_comma_ = true;
  if (stack_.empty()) done_ = true;
  return *this;
}

bool JsonWriter::complete() const noexcept { return done_ && stack_.empty(); }

std::string JsonWriter::str() const {
  if (!complete()) {
    throw std::logic_error("JsonWriter: document incomplete (open containers)");
  }
  return out_ + "\n";
}

// ------------------------------------------------------------ JsonValue

namespace {

[[noreturn]] void type_error(const char* want, JsonValue::Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw std::invalid_argument(std::string("JsonValue: expected ") + want +
                              ", got " + kNames[static_cast<int>(got)]);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

std::uint64_t JsonValue::as_uint64() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  // Parse the original lexeme so 64-bit values (e.g. request seeds) are
  // exact even where a double would round.
  std::uint64_t v = 0;
  const char* begin = text_.data();
  const char* end = begin + text_.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("JsonValue: '" + text_ +
                                "' is not a non-negative 64-bit integer");
  }
  return v;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return text_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return text_ == other.text_;
    case Type::kArray: return items_ == other.items_;
    case Type::kObject: return members_ == other.members_;
  }
  return false;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_number(double v, std::string lexeme) {
  JsonValue j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  j.text_ = std::move(lexeme);
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.type_ = Type::kString;
  j.text_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue j;
  j.type_ = Type::kArray;
  j.items_ = std::move(items);
  return j;
}

JsonValue JsonValue::make_object(std::vector<Member> members) {
  JsonValue j;
  j.type_ = Type::kObject;
  j.members_ = std::move(members);
  return j;
}

// ------------------------------------------------------------ json_parse

namespace {

/// Resolve a grammar-valid number lexeme that from_chars flagged as out
/// of double range: overflow becomes +-infinity, underflow +-zero (the
/// classic strtod semantics, derived locale-independently). The sign of
/// the total decimal exponent decides - range errors only occur beyond
/// 1e309 / 1e-324, comfortably away from zero.
double out_of_range_value(std::string_view lex) {
  const bool negative = !lex.empty() && lex[0] == '-';
  if (negative) lex.remove_prefix(1);
  long exp10 = 0;
  const std::size_t epos = lex.find_first_of("eE");
  if (epos != std::string_view::npos) {
    std::string_view es = lex.substr(epos + 1);
    bool exp_negative = false;
    if (!es.empty() && (es[0] == '+' || es[0] == '-')) {
      exp_negative = es[0] == '-';
      es.remove_prefix(1);
    }
    long magnitude = 0;
    for (char c : es) {
      if (magnitude < 1000000000L) magnitude = magnitude * 10 + (c - '0');
    }
    exp10 = exp_negative ? -magnitude : magnitude;
    lex = lex.substr(0, epos);
  }
  // Decimal exponent of the leading significant digit of the mantissa.
  const std::size_t dot = lex.find('.');
  const std::string_view int_part =
      lex.substr(0, dot == std::string_view::npos ? lex.size() : dot);
  const std::string_view frac_part =
      dot == std::string_view::npos ? std::string_view{} : lex.substr(dot + 1);
  long lead = 0;
  bool significant = false;
  for (std::size_t i = 0; i < int_part.size(); ++i) {
    if (int_part[i] != '0') {
      lead = static_cast<long>(int_part.size() - i) - 1;
      significant = true;
      break;
    }
  }
  if (!significant) {
    for (std::size_t i = 0; i < frac_part.size(); ++i) {
      if (frac_part[i] != '0') {
        lead = -static_cast<long>(i) - 1;
        significant = true;
        break;
      }
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  if (significant && exp10 + lead >= 0) return negative ? -inf : inf;
  return negative ? -0.0 : 0.0;
}

/// Recursive-descent RFC 8259 parser over a string_view. Strictness over
/// leniency everywhere: the serving layer feeds it bytes straight off the
/// wire.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  /// Deep enough for any real request, shallow enough that adversarial
  /// nesting cannot exhaust the thread stack.
  static constexpr std::size_t kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json_parse: " + what + " at byte " +
                                std::to_string(pos_));
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void expect_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
    }
    pos_ += word.size();
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case 'n': expect_literal("null"); return JsonValue::make_null();
      case 't': expect_literal("true"); return JsonValue::make_bool(true);
      case 'f': expect_literal("false"); return JsonValue::make_bool(false);
      case '"': return JsonValue::make_string(parse_string());
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    std::vector<JsonValue::Member> members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key");
      std::string key = parse_string();
      for (const JsonValue::Member& m : members) {
        if (m.first == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;  // consume the backslash
      if (eof()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired high surrogate");
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    // Integer part: 0, or a nonzero digit followed by digits.
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid fraction");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    std::string lexeme(text_.substr(start, pos_ - start));
    // from_chars, not strtod: the conversion must not depend on the host
    // process's LC_NUMERIC locale (a comma-decimal locale would silently
    // truncate every fractional value).
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(lexeme.data(), lexeme.data() + lexeme.size(), value);
    if (ec == std::errc::result_out_of_range) {
      value = out_of_range_value(lexeme);
    } else if (ec != std::errc{} ||
               ptr != lexeme.data() + lexeme.size()) {
      fail("invalid number");  // unreachable after the grammar check
    }
    return JsonValue::make_number(value, std::move(lexeme));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

void write_text_file(const std::string& text, const std::string& path,
                     const char* what) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(p);
  if (!out) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  out << text;
}

}  // namespace oscs
