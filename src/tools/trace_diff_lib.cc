#include "src/tools/trace_diff_lib.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

namespace fmoe {
namespace {

// ---------------------------------------------------------------------------------------
// Minimal recursive-descent JSON parser. Only what the trace exporter emits is needed
// (objects, arrays, strings, numbers, bools, null), but the grammar is standard JSON so a
// hand-edited trace still parses. Numbers keep their raw source text so comparisons are
// exact — no double round-trip can blur a diff.
// ---------------------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string raw;     // kNumber: source text. kString: decoded text.
  std::vector<std::unique_ptr<JsonValue>> items;  // kArray.
  std::vector<std::pair<std::string, std::unique_ptr<JsonValue>>> fields;  // kObject.

  const JsonValue* Get(const std::string& key) const {
    for (const auto& field : fields) {
      if (field.first == key) {
        return field.second.get();
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the whole document; nullptr + error() on failure (including trailing garbage).
  std::unique_ptr<JsonValue> Parse() {
    std::unique_ptr<JsonValue> value = ParseValue();
    if (value == nullptr) {
      return nullptr;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after document");
      return nullptr;
    }
    return value;
  }

  const std::string& error() const { return error_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  void Fail(const std::string& what) {
    if (error_.empty()) {
      size_t line = 1;
      for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
          ++line;
        }
      }
      error_ = what + " (line " + std::to_string(line) + ")";
    }
  }

  std::unique_ptr<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return nullptr;
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Bounded so that neither parsing nor freeing a hostile document exhausts the stack
        // (the exporter nests four deep).
        if (depth_ == kMaxDepth) {
          Fail("nesting deeper than " + std::to_string(kMaxDepth));
          return nullptr;
        }
        ++depth_;
        std::unique_ptr<JsonValue> value = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
      }
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseLiteral(c == 't' ? "true" : "false", JsonValue::Kind::kBool, c == 't');
      case 'n':
        return ParseLiteral("null", JsonValue::Kind::kNull, false);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          return ParseNumber();
        }
        Fail(std::string("unexpected character '") + c + "'");
        return nullptr;
    }
  }

  std::unique_ptr<JsonValue> ParseLiteral(const std::string& word, JsonValue::Kind kind,
                                          bool boolean) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      Fail("malformed literal");
      return nullptr;
    }
    pos_ += word.size();
    auto value = std::make_unique<JsonValue>();
    value->kind = kind;
    value->boolean = boolean;
    return value;
  }

  std::unique_ptr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kNumber;
    value->raw = text_.substr(start, pos_ - start);
    char* end = nullptr;
    std::strtod(value->raw.c_str(), &end);
    if (end == value->raw.c_str() || *end != '\0') {
      Fail("malformed number '" + value->raw + "'");
      return nullptr;
    }
    return value;
  }

  std::unique_ptr<JsonValue> ParseString() {
    ++pos_;  // Opening quote.
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        auto value = std::make_unique<JsonValue>();
        value->kind = JsonValue::Kind::kString;
        value->raw = std::move(out);
        return value;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return nullptr;
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) {
            Fail("malformed \\u escape");
            return nullptr;
          }
          // The exporter only \u-escapes control characters (< 0x20); preserve anything in
          // the Latin-1 range and fall back to '?' beyond it (never emitted by our writer).
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          Fail(std::string("unknown escape '\\") + escape + "'");
          return nullptr;
      }
    }
    Fail("unterminated string");
    return nullptr;
  }

  std::unique_ptr<JsonValue> ParseArray() {
    ++pos_;  // '['.
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      std::unique_ptr<JsonValue> item = ParseValue();
      if (item == nullptr) {
        return nullptr;
      }
      value->items.push_back(std::move(item));
      SkipSpace();
      if (pos_ >= text_.size()) {
        Fail("unterminated array");
        return nullptr;
      }
      const char c = text_[pos_++];
      if (c == ']') {
        return value;
      }
      if (c != ',') {
        Fail("expected ',' or ']' in array");
        return nullptr;
      }
    }
  }

  std::unique_ptr<JsonValue> ParseObject() {
    ++pos_;  // '{'.
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        Fail("expected object key");
        return nullptr;
      }
      std::unique_ptr<JsonValue> key = ParseString();
      if (key == nullptr) {
        return nullptr;
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        Fail("expected ':' after object key");
        return nullptr;
      }
      ++pos_;
      std::unique_ptr<JsonValue> item = ParseValue();
      if (item == nullptr) {
        return nullptr;
      }
      value->fields.emplace_back(std::move(key->raw), std::move(item));
      SkipSpace();
      if (pos_ >= text_.size()) {
        Fail("unterminated object");
        return nullptr;
      }
      const char c = text_[pos_++];
      if (c == '}') {
        return value;
      }
      if (c != ',') {
        Fail("expected ',' or '}' in object");
        return nullptr;
      }
    }
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

// Canonical single-line serialization (insertion order preserved, numbers verbatim) so two
// values compare equal iff their serializations do.
void Serialize(const JsonValue& value, std::string* out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      *out += value.raw;
      break;
    case JsonValue::Kind::kString:
      *out += '"';
      for (const char c : value.raw) {
        if (c == '"' || c == '\\') {
          *out += '\\';
        }
        *out += c;
      }
      *out += '"';
      break;
    case JsonValue::Kind::kArray:
      *out += '[';
      for (size_t i = 0; i < value.items.size(); ++i) {
        if (i > 0) {
          *out += ',';
        }
        Serialize(*value.items[i], out);
      }
      *out += ']';
      break;
    case JsonValue::Kind::kObject:
      *out += '{';
      for (size_t i = 0; i < value.fields.size(); ++i) {
        if (i > 0) {
          *out += ',';
        }
        *out += '"' + value.fields[i].first + "\":";
        Serialize(*value.fields[i].second, out);
      }
      *out += '}';
      break;
  }
}

std::string Serialized(const JsonValue* value) {
  if (value == nullptr) {
    return "<absent>";
  }
  std::string out;
  Serialize(*value, &out);
  return out;
}

// One comparable (non-metadata) event, with tid already resolved to its track name.
struct FlatEvent {
  std::string phase;  // "X" | "i" | "C" | anything a hand-edited trace contains.
  std::string track;
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  std::string ts_raw;   // Exact source text, compared verbatim.
  std::string dur_raw;  // Empty for non-span events.
  std::string args;     // Canonical serialization of the args object.
};

struct ParsedTrace {
  std::vector<FlatEvent> events;
  std::string stall;  // Canonical serialization of stallAttribution ("" if absent).
};

bool FlattenTrace(const JsonValue& root, ParsedTrace* out, std::string* error) {
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "top level is not an object";
    return false;
  }
  const JsonValue* events = root.Get("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    *error = "missing traceEvents array";
    return false;
  }

  // Pass 1: tid → track name from ph:"M" thread_name metadata.
  std::map<std::string, std::string> track_names;
  for (const auto& item : events->items) {
    const JsonValue* phase = item->Get("ph");
    const JsonValue* name = item->Get("name");
    if (phase == nullptr || phase->raw != "M" || name == nullptr ||
        name->raw != "thread_name") {
      continue;
    }
    const JsonValue* tid = item->Get("tid");
    const JsonValue* args = item->Get("args");
    const JsonValue* track = args == nullptr ? nullptr : args->Get("name");
    if (tid != nullptr && track != nullptr) {
      track_names[tid->raw] = track->raw;
    }
  }

  // Pass 2: flatten everything that is not metadata.
  for (const auto& item : events->items) {
    if (item->kind != JsonValue::Kind::kObject) {
      *error = "traceEvents entry is not an object";
      return false;
    }
    const JsonValue* phase = item->Get("ph");
    if (phase == nullptr) {
      *error = "event without \"ph\"";
      return false;
    }
    if (phase->raw == "M") {
      continue;
    }
    FlatEvent flat;
    flat.phase = phase->raw;
    const JsonValue* tid = item->Get("tid");
    if (tid != nullptr) {
      const auto found = track_names.find(tid->raw);
      flat.track = found != track_names.end() ? found->second : "tid " + tid->raw;
    }
    const JsonValue* name = item->Get("name");
    flat.name = name != nullptr ? name->raw : "";
    const JsonValue* cat = item->Get("cat");
    flat.cat = cat != nullptr ? cat->raw : "";
    const JsonValue* ts = item->Get("ts");
    if (ts != nullptr && ts->kind == JsonValue::Kind::kNumber) {
      flat.ts_raw = ts->raw;
      flat.ts_us = std::strtod(ts->raw.c_str(), nullptr);
    }
    const JsonValue* dur = item->Get("dur");
    if (dur != nullptr && dur->kind == JsonValue::Kind::kNumber) {
      flat.dur_raw = dur->raw;
    }
    flat.args = Serialized(item->Get("args"));
    out->events.push_back(std::move(flat));
  }

  out->stall = Serialized(root.Get("stallAttribution"));
  return true;
}

bool ParseTrace(const std::string& json, const std::string& label, ParsedTrace* out,
                std::string* error) {
  JsonParser parser(json);
  std::unique_ptr<JsonValue> root = parser.Parse();
  if (root == nullptr) {
    *error = label + ": " + parser.error();
    return false;
  }
  std::string flatten_error;
  if (!FlattenTrace(*root, out, &flatten_error)) {
    *error = label + ": " + flatten_error;
    return false;
  }
  return true;
}

void FillEventContext(const FlatEvent& a, const FlatEvent& b, TraceDiffResult* result) {
  result->track_a = a.track;
  result->track_b = b.track;
  result->name_a = a.name;
  result->name_b = b.name;
  result->ts_us_a = a.ts_us;
  result->ts_us_b = b.ts_us;
}

}  // namespace

TraceDiffResult DiffTraceJson(const std::string& json_a, const std::string& json_b) {
  TraceDiffResult result;
  ParsedTrace a;
  ParsedTrace b;
  if (!ParseTrace(json_a, "trace A", &a, &result.error) ||
      !ParseTrace(json_b, "trace B", &b, &result.error)) {
    return result;
  }
  result.ok = true;

  const size_t common = a.events.size() < b.events.size() ? a.events.size() : b.events.size();
  for (size_t i = 0; i < common; ++i) {
    const FlatEvent& ea = a.events[i];
    const FlatEvent& eb = b.events[i];
    // Compare in localisation order: where (track) before what (name) before when (ts).
    const std::pair<const char*, std::pair<const std::string*, const std::string*>> fields[] =
        {{"track", {&ea.track, &eb.track}}, {"phase", {&ea.phase, &eb.phase}},
         {"name", {&ea.name, &eb.name}},    {"ts", {&ea.ts_raw, &eb.ts_raw}},
         {"dur", {&ea.dur_raw, &eb.dur_raw}}, {"cat", {&ea.cat, &eb.cat}},
         {"args", {&ea.args, &eb.args}}};
    for (const auto& field : fields) {
      if (*field.second.first != *field.second.second) {
        result.kind = "event-field";
        result.event_index = i;
        result.field = field.first;
        result.value_a = *field.second.first;
        result.value_b = *field.second.second;
        FillEventContext(ea, eb, &result);
        return result;
      }
    }
  }

  if (a.events.size() != b.events.size()) {
    result.kind = "event-count";
    result.event_index = common;
    result.field = "event count";
    result.value_a = std::to_string(a.events.size()) + " events";
    result.value_b = std::to_string(b.events.size()) + " events";
    // The longer trace's first unmatched event is the divergence point.
    const FlatEvent& extra =
        a.events.size() > b.events.size() ? a.events[common] : b.events[common];
    if (a.events.size() > b.events.size()) {
      result.track_a = extra.track;
      result.name_a = extra.name;
      result.ts_us_a = extra.ts_us;
    } else {
      result.track_b = extra.track;
      result.name_b = extra.name;
      result.ts_us_b = extra.ts_us;
    }
    return result;
  }

  if (a.stall != b.stall) {
    result.kind = "stall-attribution";
    result.event_index = common;
    result.field = "stallAttribution";
    result.value_a = a.stall;
    result.value_b = b.stall;
    return result;
  }

  result.identical = true;
  return result;
}

TraceDiffResult DiffTraceFiles(const std::string& path_a, const std::string& path_b) {
  TraceDiffResult result;
  const auto read = [&](const std::string& path, std::string* out) {
    std::ifstream file(path);
    if (!file) {
      result.error = "cannot read " + path;
      return false;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    *out = buffer.str();
    return true;
  };
  std::string json_a;
  std::string json_b;
  if (!read(path_a, &json_a) || !read(path_b, &json_b)) {
    return result;
  }
  return DiffTraceJson(json_a, json_b);
}

std::string RenderTraceDiff(const TraceDiffResult& result, const std::string& label_a,
                            const std::string& label_b) {
  std::ostringstream out;
  if (!result.ok) {
    out << "error: " << result.error << "\n";
    return out.str();
  }
  if (result.identical) {
    out << "traces identical: " << label_a << " == " << label_b << "\n";
    return out.str();
  }
  const auto us = [](double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f us (%.6f ms)", value, value * 1e-3);
    return std::string(buffer);
  };
  out << "traces diverge (" << result.kind << ") at event " << result.event_index << "\n";
  if (result.kind == "event-field") {
    out << "  track: " << result.track_a;
    if (result.track_a != result.track_b) {
      out << "  vs  " << result.track_b;
    }
    out << "\n  event: " << result.name_a;
    if (result.name_a != result.name_b) {
      out << "  vs  " << result.name_b;
    }
    out << "\n  virtual time: " << us(result.ts_us_a);
    if (result.ts_us_a != result.ts_us_b) {
      out << "  vs  " << us(result.ts_us_b);
    }
    out << "\n";
  } else if (result.kind == "event-count") {
    if (!result.name_a.empty() || !result.track_a.empty()) {
      out << "  first unmatched event (in " << label_a << "): " << result.name_a << " on "
          << result.track_a << " at " << us(result.ts_us_a) << "\n";
    }
    if (!result.name_b.empty() || !result.track_b.empty()) {
      out << "  first unmatched event (in " << label_b << "): " << result.name_b << " on "
          << result.track_b << " at " << us(result.ts_us_b) << "\n";
    }
  }
  out << "  field: " << result.field << "\n";
  out << "    " << label_a << ": " << result.value_a << "\n";
  out << "    " << label_b << ": " << result.value_b << "\n";
  return out.str();
}

}  // namespace fmoe
