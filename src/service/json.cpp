#include "service/json.hpp"

#include <cctype>
#include <cstdlib>

namespace ceta::service {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto it = object->find(std::string(key));
  return it == object->end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw ProtocolError("missing member '" + std::string(key) + "'");
  }
  return *v;
}

const JsonArray& JsonValue::items() const {
  if (!is_array()) throw ProtocolError("value is not an array");
  return *array;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    const JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ProtocolError("JSON error at offset " + std::to_string(pos_) +
                        ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        parse_literal("null");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  void parse_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("bad literal, expected '" + std::string(lit) + "'");
    }
    pos_ += lit.size();
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (peek() == 't') {
      parse_literal("true");
      v.boolean = true;
    } else {
      parse_literal("false");
      v.boolean = false;
    }
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.string = text_.substr(start, pos_ - start);
    // The grammar above admits exactly strtod's JSON subset; huge
    // magnitudes saturate to ±inf, which request decoding rejects with a
    // range diagnostic rather than the parser.
    v.number = std::strtod(v.string.c_str(), nullptr);
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              fail("bad hex digit in \\u escape");
            }
            code = code * 16 +
                   static_cast<unsigned>(
                       h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          // Protocol strings are task/session names and op words — ASCII
          // in practice.  Decode ASCII escapes; keep anything else (incl.
          // surrogate pairs) verbatim, exactly like the test-suite
          // checker, so no content is ever silently dropped.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            out += "\\u";
            out += text_.substr(pos_, 4);
          }
          pos_ += 4;
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  JsonValue parse_array() {
    enter();
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    v.array = std::make_shared<JsonArray>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      leave();
      return v;
    }
    while (true) {
      v.array->push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      leave();
      return v;
    }
  }

  JsonValue parse_object() {
    enter();
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    v.object = std::make_shared<JsonObject>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      leave();
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      (*v.object)[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      leave();
      return v;
    }
  }

  void enter() {
    if (++depth_ > kMaxJsonDepth) fail("nesting too deep");
  }
  void leave() { --depth_; }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).run(); }

}  // namespace ceta::service
