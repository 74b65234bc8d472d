// JSON values and a hardened parser for the cetad wire protocol.
//
// The service speaks length-prefixed JSON frames (service/framing.hpp);
// frame payloads arrive from untrusted clients, so parsing must be strict
// and bounded: the full RFC 8259 grammar, a hard nesting-depth cap (stack
// exhaustion through deep arrays is a classic remote crash), and
// offset-annotated ProtocolError on the first violation — never UB, never
// a partial tree.  Payload *size* is bounded upstream by the framing
// layer's frame cap, so the parser itself needs no byte budget.
//
// Serialization stays on obs::JsonWriter — this header is the read side
// only, mirroring the tree shape of the test-suite's independent checker
// (tests/json_checker.hpp) so service tests can cross-validate both.

#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace ceta::service {

/// A malformed frame or request from a client: bad JSON, a violated
/// protocol schema, an unknown op.  Mapped to a structured "bad_request"
/// error reply — never a disconnect and never a daemon death.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

/// One parsed JSON value (tree node).  Containers sit behind shared_ptr so
/// the struct stays copyable while self-referential.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// The decoded text of a kString; for a kNumber, the literal token as
  /// it appeared on the wire, so integer fields are read exactly instead
  /// of through the (rounding) double.
  std::string string;
  std::shared_ptr<JsonArray> array;
  std::shared_ptr<JsonObject> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup; nullptr when not an object or the key is absent.
  const JsonValue* find(std::string_view key) const;
  /// Member access; throws ProtocolError when absent or not an object.
  const JsonValue& at(std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }

  /// Array elements; throws ProtocolError when not an array.
  const JsonArray& items() const;
};

/// Maximum container nesting depth accepted from the wire.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parse `text` as exactly one JSON document (trailing whitespace only).
/// Throws ProtocolError with a byte offset on malformed input or nesting
/// beyond kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

}  // namespace ceta::service
