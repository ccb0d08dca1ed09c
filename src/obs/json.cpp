#include "obs/json.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace bgckpt::obs::json {

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject || !object) return nullptr;
  for (const auto& [k, v] : *object)
    if (k == key) return &v;
  return nullptr;
}

double Value::numberOr(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v && v->type == Type::kNumber ? v->number : fallback;
}

std::string Value::stringOr(std::string_view key,
                            const std::string& fallback) const {
  const Value* v = find(key);
  return v && v->type == Type::kString ? v->string : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    std::optional<Value> v = parseValue();
    if (v) {
      skipWs();
      if (pos_ != text_.size()) {
        fail("trailing characters");
        v.reset();
      }
    }
    if (!v && error) *error = error_ + " at offset " + std::to_string(pos_);
    return v;
  }

 private:
  void fail(const char* what) {
    if (error_.empty()) error_ = what;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Value> parseValue() {
    skipWs();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    switch (c) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return parseString();
      case 't':
        if (literal("true")) return makeBool(true);
        fail("bad literal");
        return std::nullopt;
      case 'f':
        if (literal("false")) return makeBool(false);
        fail("bad literal");
        return std::nullopt;
      case 'n':
        if (literal("null")) return Value{};
        fail("bad literal");
        return std::nullopt;
      default: return parseNumber();
    }
  }

  static Value makeBool(bool b) {
    Value v;
    v.type = Value::Type::kBool;
    v.boolean = b;
    return v;
  }

  std::optional<Value> parseNumber() {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double d = std::strtod(begin, &end);
    if (end == begin) {
      fail("bad number");
      return std::nullopt;
    }
    pos_ += static_cast<std::size_t>(end - begin);
    Value v;
    v.type = Value::Type::kNumber;
    v.number = d;
    return v;
  }

  std::optional<Value> parseString() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    Value v;
    v.type = Value::Type::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string += '"'; break;
        case '\\': v.string += '\\'; break;
        case '/': v.string += '/'; break;
        case 'b': v.string += '\b'; break;
        case 'f': v.string += '\f'; break;
        case 'n': v.string += '\n'; break;
        case 'r': v.string += '\r'; break;
        case 't': v.string += '\t'; break;
        case 'u': {
          auto readHex4 = [this]() -> std::optional<unsigned> {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                cp |= static_cast<unsigned>(h - 'A' + 10);
              else
                return std::nullopt;
            }
            return cp;
          };
          const std::optional<unsigned> hi = readHex4();
          if (!hi) {
            fail("bad \\u escape");
            return std::nullopt;
          }
          unsigned cp = *hi;
          // Surrogate pair: a high surrogate followed by "\uDC00".."\uDFFF"
          // combines into one astral code point. A lone surrogate passes
          // through UTF-8-encoded as-is (lenient, like the BMP path always
          // was — we parse our own emitters, not adversarial input).
          if (cp >= 0xD800 && cp < 0xDC00 && pos_ + 2 <= text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            const std::size_t rewind = pos_;
            pos_ += 2;
            const std::optional<unsigned> lo = readHex4();
            if (lo && *lo >= 0xDC00 && *lo < 0xE000)
              cp = 0x10000 + ((cp - 0xD800) << 10) + (*lo - 0xDC00);
            else
              pos_ = rewind;  // not a low surrogate: leave it for the loop
          }
          if (cp < 0x80) {
            v.string += static_cast<char>(cp);
          } else if (cp < 0x800) {
            v.string += static_cast<char>(0xC0 | (cp >> 6));
            v.string += static_cast<char>(0x80 | (cp & 0x3F));
          } else if (cp < 0x10000) {
            v.string += static_cast<char>(0xE0 | (cp >> 12));
            v.string += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            v.string += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            v.string += static_cast<char>(0xF0 | (cp >> 18));
            v.string += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            v.string += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            v.string += static_cast<char>(0x80 | (cp & 0x3F));
          }
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

  std::optional<Value> parseArray() {
    consume('[');
    Value v;
    v.type = Value::Type::kArray;
    v.array = std::make_shared<Array>();
    skipWs();
    if (consume(']')) return v;
    while (true) {
      std::optional<Value> elem = parseValue();
      if (!elem) return std::nullopt;
      v.array->push_back(std::move(*elem));
      if (consume(',')) continue;
      if (consume(']')) return v;
      fail("expected ',' or ']'");
      return std::nullopt;
    }
  }

  std::optional<Value> parseObject() {
    consume('{');
    Value v;
    v.type = Value::Type::kObject;
    v.object = std::make_shared<Object>();
    skipWs();
    if (consume('}')) return v;
    while (true) {
      std::optional<Value> key = parseString();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':'");
        return std::nullopt;
      }
      std::optional<Value> val = parseValue();
      if (!val) return std::nullopt;
      v.object->emplace_back(std::move(key->string), std::move(*val));
      if (consume(',')) {
        skipWs();
        continue;
      }
      if (consume('}')) return v;
      fail("expected ',' or '}'");
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

void escapeInto(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n >= 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(n));
  } else if (n >= 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(&out[at], static_cast<std::size_t>(n) + 1, fmt, again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

}  // namespace bgckpt::obs::json
