#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/error.hpp"

namespace wimi::obs::json {

std::string escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
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
            case '\r':
                out += "\\r";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string number(double value) {
    if (!std::isfinite(value)) {
        return "null";
    }
    // %.17g round-trips every double; trim the common integral case so the
    // reports stay readable.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

const Value* Value::find(std::string_view key) const {
    if (kind != Kind::kObject) {
        return nullptr;
    }
    for (const auto& [name, value] : object) {
        if (name == key) {
            return &value;
        }
    }
    return nullptr;
}

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value run() {
        Value v = parse_value();
        skip_whitespace();
        ensure(pos_ == text_.size(), "json::parse: trailing garbage");
        return v;
    }

private:
    void skip_whitespace() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char peek() {
        ensure(pos_ < text_.size(), "json::parse: unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        ensure(peek() == c, "json::parse: unexpected character");
        ++pos_;
    }

    bool consume(std::string_view word) {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    Value parse_value() {
        skip_whitespace();
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth) {
                fail("json::parse: nesting deeper than " +
                     std::to_string(kMaxDepth) + " levels");
            }
            ++depth_;
            Value v = c == '{' ? parse_object() : parse_array();
            --depth_;
            return v;
        }
        if (c == '"') {
            Value v;
            v.kind = Value::Kind::kString;
            v.string = parse_string();
            return v;
        }
        if (consume("true")) {
            Value v;
            v.kind = Value::Kind::kBool;
            v.boolean = true;
            return v;
        }
        if (consume("false")) {
            Value v;
            v.kind = Value::Kind::kBool;
            return v;
        }
        if (consume("null")) {
            return {};
        }
        return parse_number();
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            ensure(pos_ < text_.size(),
                   "json::parse: unterminated string");
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            ensure(pos_ < text_.size(), "json::parse: dangling escape");
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
                case 'r':
                    out += '\r';
                    break;
                case 't':
                    out += '\t';
                    break;
                case 'b':
                    out += '\b';
                    break;
                case 'f':
                    out += '\f';
                    break;
                case 'u': {
                    ensure(pos_ + 4 <= text_.size(),
                           "json::parse: truncated \\u escape");
                    unsigned code = 0;
                    const auto [ptr, ec] = std::from_chars(
                        text_.data() + pos_, text_.data() + pos_ + 4, code,
                        16);
                    ensure(ec == std::errc() &&
                               ptr == text_.data() + pos_ + 4,
                           "json::parse: bad \\u escape");
                    pos_ += 4;
                    // Only BMP code points below 0x80 appear in obs output;
                    // encode anything else as UTF-8 without surrogate
                    // handling.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default:
                    fail("json::parse: unknown escape");
            }
        }
    }

    Value parse_number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+')) {
            ++pos_;
        }
        ensure(pos_ > start, "json::parse: expected a value");
        double parsed = 0.0;
        const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                               text_.data() + pos_, parsed);
        ensure(ec == std::errc() && ptr == text_.data() + pos_,
               "json::parse: malformed number");
        Value v;
        v.kind = Value::Kind::kNumber;
        v.num = parsed;
        return v;
    }

    Value parse_array() {
        expect('[');
        Value v;
        v.kind = Value::Kind::kArray;
        skip_whitespace();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parse_value());
            skip_whitespace();
            const char c = peek();
            ++pos_;
            if (c == ']') {
                return v;
            }
            ensure(c == ',', "json::parse: expected ',' or ']'");
        }
    }

    Value parse_object() {
        expect('{');
        Value v;
        v.kind = Value::Kind::kObject;
        skip_whitespace();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_whitespace();
            std::string key = parse_string();
            skip_whitespace();
            expect(':');
            v.object.emplace_back(std::move(key), parse_value());
            skip_whitespace();
            const char c = peek();
            ++pos_;
            if (c == '}') {
                return v;
            }
            ensure(c == ',', "json::parse: expected ',' or '}'");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;  ///< arrays/objects open at pos_
};

}  // namespace

Value parse(std::string_view text) {
    return Parser(text).run();
}

}  // namespace wimi::obs::json
