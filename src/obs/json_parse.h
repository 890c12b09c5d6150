// Minimal recursive-descent JSON parser — the read half of json.h.
//
// Exists for benchdiff (comparing two pvm.bench.v1 exports) and for tests
// that validate exported documents without an external JSON dependency.
// Full RFC 8259 value grammar, UTF-8 passed through verbatim, \uXXXX decoded
// only for the BMP (the writer never emits surrogate pairs). Numbers are
// held as double — every quantity the exports carry fits in 53 bits.

#ifndef PVM_SRC_OBS_JSON_PARSE_H_
#define PVM_SRC_OBS_JSON_PARSE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pvm::obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion order preserved so round-trip comparisons stay deterministic.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (type != Type::kObject) {
      return nullptr;
    }
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

// Parses one JSON document. Returns false (and sets `error` with a byte
// offset) on malformed input or trailing garbage.
bool json_parse(std::string_view text, JsonValue* out, std::string* error);

// Checked integer reads for the document importers. json_u64 accepts only a
// number holding an integer in [0, 2^64), json_i64 one in [-2^63, 2^63);
// a string, a fraction or an out-of-range value returns false, so a
// malformed field fails the import instead of wrapping or clamping. A null
// `v` (an absent optional member) returns true and leaves `*out` as it was.
bool json_u64(const JsonValue* v, std::uint64_t* out);
bool json_i64(const JsonValue* v, std::int64_t* out);

}  // namespace pvm::obs

#endif  // PVM_SRC_OBS_JSON_PARSE_H_
