// The one JSON writer behind every artifact: bills, service and resource
// reports, attribution, Chrome traces, CLI metrics and BENCH_*.json files.
//
// JsonWriter is an append-only builder. It owns quoting and escaping, commas
// and nesting, and one number format, so no emitter carries its own:
//   - integers and bools print exactly;
//   - a double prints as the shortest decimal that parses back to the same
//     bits (std::to_chars), so equal doubles give equal bytes and the text
//     round-trips through strtod. Non-finite doubles print as null.
// Output is compact ("k":v,...) with no newlines, so a document is also a
// valid JSON-lines record.
#ifndef MAZE_OBS_JSON_H_
#define MAZE_OBS_JSON_H_

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

#include "util/status.h"

namespace maze::obs {

// Escapes the two mandatory characters (quote, backslash), the named control
// escapes, and any other control byte as \u00XX. Bytes >= 0x80 pass through
// untouched (emitters write UTF-8 as-is).
std::string JsonEscape(std::string_view s);

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& BeginObject(std::string_view key) {
    return Key(key).BeginObject();
  }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray();
  JsonWriter& BeginArray(std::string_view key) { return Key(key).BeginArray(); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view s);
  JsonWriter& Value(const char* s) { return Value(std::string_view(s)); }
  JsonWriter& Value(bool b) { return Raw(b ? "true" : "false"); }
  JsonWriter& Value(double v);
  template <std::integral T>
  JsonWriter& Value(T v) {
    char buf[24];
    char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return Raw(std::string_view(buf, end - buf));
  }
  JsonWriter& Null() { return Raw("null"); }
  // Splices an already-serialized JSON value (e.g. a nested ToJson()).
  JsonWriter& Raw(std::string_view json);

  template <typename T>
  JsonWriter& Field(std::string_view key, const T& v) {
    return Key(key).Value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Close(char bracket);
  void Separate();

  std::string out_;
  bool need_comma_ = false;  // A value was just completed at this level.
};

// Writes `json` plus a trailing newline to `path`.
Status WriteJsonFile(const std::string& path, const std::string& json);

}  // namespace maze::obs

#endif  // MAZE_OBS_JSON_H_
