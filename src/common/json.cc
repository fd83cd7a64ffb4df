#include "src/common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tashkent {
namespace json {

namespace {

[[noreturn]] void Fail(size_t pos, const std::string& what) {
  throw std::invalid_argument("json parse error at byte " + std::to_string(pos) + ": " + what);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value ParseDocument() {
    Value v = ParseValue();
    SkipWs();
    if (pos_ != text_.size()) {
      Fail(pos_, "trailing characters after document");
    }
    return v;
  }

 private:
  char Peek() {
    if (pos_ >= text_.size()) {
      Fail(pos_, "unexpected end of input");
    }
    return text_[pos_];
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool Literal(const char* word) {
    size_t n = 0;
    while (word[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value ParseValue() {
    SkipWs();
    const char c = Peek();
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return Value(ParseString());
      case 't':
        if (Literal("true")) {
          return Value(true);
        }
        Fail(pos_, "bad literal");
      case 'f':
        if (Literal("false")) {
          return Value(false);
        }
        Fail(pos_, "bad literal");
      case 'n':
        if (Literal("null")) {
          return Value();
        }
        Fail(pos_, "bad literal");
      default:
        return ParseNumber();
    }
  }

  Value ParseObject() {
    Expect('{');
    Value out = Value::Object();
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      SkipWs();
      std::string key = ParseString();
      SkipWs();
      Expect(':');
      out.Set(key, ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return out;
    }
  }

  Value ParseArray() {
    Expect('[');
    Value out = Value::Array();
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.Append(ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return out;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      const char c = Peek();
      ++pos_;
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = Peek();
      ++pos_;
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail(pos_, "truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail(pos_ + i, "bad hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode the code point (surrogate pairs are not combined —
          // the emitters in this repo only escape control characters).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail(pos_ - 1, "unknown escape");
      }
    }
  }

  Value ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      Fail(start, "malformed number '" + token + "'");
    }
    return Value(v);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

void AppendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no Inf/NaN; null keeps them from reading as a measured 0
    return;
  }
  // Integers render without an exponent or trailing ".0" (cell counts, seeds).
  if (v == static_cast<double>(static_cast<long long>(v)) && std::fabs(v) < 1e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", std::numeric_limits<double>::max_digits10, v);
  out += buf;
}

void DumpTo(const Value& v, std::string& out, int indent, int depth);

void Newline(std::string& out, int indent, int depth) {
  if (indent > 0) {
    out.push_back('\n');
    out.append(static_cast<size_t>(indent) * depth, ' ');
  }
}

void DumpTo(const Value& v, std::string& out, int indent, int depth) {
  switch (v.type()) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += v.AsBool() ? "true" : "false";
      break;
    case Value::Type::kNumber:
      AppendNumber(out, v.AsNumber());
      break;
    case Value::Type::kString:
      AppendEscaped(out, v.AsString());
      break;
    case Value::Type::kArray: {
      out.push_back('[');
      const auto& items = v.Items();
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
          if (indent == 0) {
            out.push_back(' ');
          }
        }
        Newline(out, indent, depth + 1);
        DumpTo(items[i], out, indent, depth + 1);
      }
      if (!items.empty()) {
        Newline(out, indent, depth);
      }
      out.push_back(']');
      break;
    }
    case Value::Type::kObject: {
      out.push_back('{');
      const auto& members = v.Members();
      for (size_t i = 0; i < members.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
          if (indent == 0) {
            out.push_back(' ');
          }
        }
        Newline(out, indent, depth + 1);
        AppendEscaped(out, members[i].first);
        out += ": ";
        DumpTo(members[i].second, out, indent, depth + 1);
      }
      if (!members.empty()) {
        Newline(out, indent, depth);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Value Value::Parse(const std::string& text) { return Parser(text).ParseDocument(); }

bool Value::AsBool() const {
  if (type_ != Type::kBool) {
    throw std::logic_error("json value is not a bool");
  }
  return bool_;
}

double Value::AsNumber() const {
  if (type_ != Type::kNumber) {
    throw std::logic_error("json value is not a number");
  }
  return number_;
}

const std::string& Value::AsString() const {
  if (type_ != Type::kString) {
    throw std::logic_error("json value is not a string");
  }
  return string_;
}

const std::vector<Value>& Value::Items() const {
  if (type_ != Type::kArray) {
    throw std::logic_error("json value is not an array");
  }
  return items_;
}

const std::vector<std::pair<std::string, Value>>& Value::Members() const {
  if (type_ != Type::kObject) {
    throw std::logic_error("json value is not an object");
  }
  return members_;
}

void Value::Append(Value v) {
  if (type_ != Type::kArray) {
    throw std::logic_error("Append on a non-array json value");
  }
  items_.push_back(std::move(v));
}

void Value::Set(const std::string& key, Value v) {
  if (type_ != Type::kObject) {
    throw std::logic_error("Set on a non-object json value");
  }
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

const Value& Value::At(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    throw std::out_of_range("json object has no key '" + key + "'");
  }
  return *v;
}

const Value* Value::Find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

size_t Value::size() const {
  switch (type_) {
    case Type::kArray:
      return items_.size();
    case Type::kObject:
      return members_.size();
    default:
      return 0;
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(*this, out, indent, 0);
  if (indent > 0) {
    out.push_back('\n');
  }
  return out;
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) {
    return false;
  }
  switch (a.type_) {
    case Value::Type::kNull:
      return true;
    case Value::Type::kBool:
      return a.bool_ == b.bool_;
    case Value::Type::kNumber:
      return a.number_ == b.number_;
    case Value::Type::kString:
      return a.string_ == b.string_;
    case Value::Type::kArray:
      return a.items_ == b.items_;
    case Value::Type::kObject: {
      if (a.members_.size() != b.members_.size()) {
        return false;
      }
      for (const auto& [k, v] : a.members_) {
        const Value* other = b.Find(k);
        if (other == nullptr || !(v == *other)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace json
}  // namespace tashkent
