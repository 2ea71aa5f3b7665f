// Minimal JSON support for the observability layer.
//
// The obs subsystem emits two machine-readable documents — the metrics
// report and the Chrome trace_event stream — and the tests validate that
// both round-trip. Rather than pulling in a JSON dependency, this header
// provides the small writer/parser pair those two jobs need: escaping and
// number formatting on the write side, and a strict recursive-descent
// parser on the read side. Not a general-purpose JSON library.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wimi::obs::json {

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// included).
std::string escape(std::string_view text);

/// Formats a double as a JSON number. Non-finite values (which JSON cannot
/// represent) are emitted as null.
std::string number(double value);

/// Parsed JSON value. Object member order is preserved so emitted
/// documents can be compared structurally in tests.
struct Value {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double num = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool is_object() const { return kind == Kind::kObject; }
    bool is_array() const { return kind == Kind::kArray; }
    bool is_number() const { return kind == Kind::kNumber; }
    bool is_string() const { return kind == Kind::kString; }

    /// Object member lookup; nullptr when absent or not an object.
    const Value* find(std::string_view key) const;
};

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so an unbounded depth lets a small hostile file overflow
/// the stack; the deepest document this repository writes has 4 levels.
inline constexpr std::size_t kMaxDepth = 64;

/// Parses one JSON document (with trailing whitespace allowed). Throws
/// wimi::Error on malformed input, trailing garbage, or nesting deeper
/// than kMaxDepth.
Value parse(std::string_view text);

}  // namespace wimi::obs::json
