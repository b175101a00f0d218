#include "obs/json.h"

#include <cmath>
#include <cstdio>

namespace maze::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        // Cast before the width test: plain char may be signed, and a negative
        // byte fed to %04x would sign-extend into "￿ffXX".
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::Separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Value(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view s) {
  Separate();
  out_ += '"';
  out_ += JsonEscape(s);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  if (!std::isfinite(v)) return Null();
  char buf[32];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return Raw(std::string_view(buf, end - buf));
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_ += json;
  need_comma_ = true;
  return *this;
}

Status WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool newline = std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || written != json.size() || !newline) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace maze::obs
