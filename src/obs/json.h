// Minimal JSON support for the observability exporters.
//
// JsonWriter emits syntactically valid JSON (objects, arrays, scalars) with
// comma/indent bookkeeping handled by a small state stack; the Parse
// function implements enough of RFC 8259 to round-trip everything the
// exporters write (used by trace_export_test and the tools/check_bench
// report gate). Neither side depends on anything beyond util/status, so
// every layer of the library can link them.

#ifndef GRAPHPROMPTER_OBS_JSON_H_
#define GRAPHPROMPTER_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gp {
namespace json {

// Escapes `s` for inclusion between JSON double quotes.
std::string Escape(const std::string& s);

// Streaming writer. Calls must form a valid JSON document: a single root
// value, Key() before every value inside an object. Misuse aborts via
// CHECK — the exporters are the only callers and their shapes are static.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& name);
  JsonWriter& String(const std::string& value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Double(double value);  // non-finite values emit null
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  // The document built so far. Call after the root value is complete.
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  enum class Frame { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;   // parallel to stack_
  bool pending_key_ = false;  // a Key() was emitted, value must follow
};

// Parsed JSON value (tagged union). Object member order is preserved.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject
  std::vector<JsonValue> elements;                         // kArray

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }

  // Member lookup on objects; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Parses a complete JSON document. Trailing non-whitespace, unterminated
// strings, etc. are kInvalidArgument.
StatusOr<JsonValue> ParseJson(const std::string& text);

}  // namespace json
}  // namespace gp

#endif  // GRAPHPROMPTER_OBS_JSON_H_
