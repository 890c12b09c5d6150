#include "src/obs/json_parse.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace pvm::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) {
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      *error = "trailing characters at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* message) {
    if (error_.empty()) {
      error_ = message;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue* out) {
    if (depth_ > kMaxDepth) {
      return fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return parse_string(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return consume_literal("true") || fail("bad literal");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return consume_literal("false") || fail("bad literal");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return consume_literal("null") || fail("bad literal");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++depth_;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) {
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(&key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (!consume(':')) {
        return fail("expected ':'");
      }
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) {
        return false;
      }
      out->object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) {
        continue;
      }
      if (consume('}')) {
        --depth_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++depth_;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) {
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      skip_ws();
      if (consume(',')) {
        continue;
      }
      if (consume(']')) {
        --depth_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return fail("dangling escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return fail("truncated \\u escape");
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // Encode the BMP code point as UTF-8.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    // RFC 8259: a number is '-'? digit ... — no leading '+', no bare '-',
    // no leading '.' (strtod would accept all three).
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return fail("expected value");
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return fail("expected value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return fail("malformed number");
    }
    if (!std::isfinite(out->number)) {
      // JSON has no Infinity/NaN; an overflowing literal like 1e999 must be
      // an error, not a silent inf that poisons downstream arithmetic.
      return fail("number out of range");
    }
    return true;
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

// True if `v` holds an integer in [lo, hi). Both bounds are powers of two,
// exact as doubles; every double at or above 2^53 is an integer.
bool integral_in(const JsonValue& v, double lo, double hi) {
  return v.is_number() && v.number >= lo && v.number < hi && v.number == std::floor(v.number);
}

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  Parser parser(text);
  std::string local_error;
  return parser.parse(out, error != nullptr ? error : &local_error);
}

bool json_u64(const JsonValue* v, std::uint64_t* out) {
  if (v == nullptr) {
    return true;
  }
  if (!integral_in(*v, 0.0, 0x1p64)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(v->number);
  return true;
}

bool json_i64(const JsonValue* v, std::int64_t* out) {
  if (v == nullptr) {
    return true;
  }
  if (!integral_in(*v, -0x1p63, 0x1p63)) {
    return false;
  }
  *out = static_cast<std::int64_t>(v->number);
  return true;
}

}  // namespace pvm::obs
