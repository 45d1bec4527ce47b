// Minimal JSON value tree for the observability layer: building run
// reports and Chrome traces, and parsing them back in tests/tools.
//
// Deliberately small: objects preserve insertion order (reports stay
// readable), numbers are doubles with an integer tag (so counters print
// as integers), and parse() is a strict recursive-descent parser used to
// validate emitted documents.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gflink::obs {

/// Escape a string for embedding in a JSON document (quotes not included).
std::string json_escape(std::string_view s);

class Json {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double d) : type_(Type::Number), num_(d) {}
  Json(std::int64_t i) : type_(Type::Number), num_(static_cast<double>(i)), is_int_(true) {}
  Json(std::uint64_t u) : type_(Type::Number), num_(static_cast<double>(u)), is_int_(true) {}
  Json(int i) : Json(static_cast<std::int64_t>(i)) {}
  Json(std::uint32_t u) : Json(static_cast<std::uint64_t>(u)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const { return bool_; }
  double as_double() const { return num_; }
  std::int64_t as_int() const { return static_cast<std::int64_t>(num_); }
  const std::string& as_string() const { return str_; }
  const Array& items() const { return array_; }
  const Object& members() const { return object_; }

  /// Array append (converts a Null value into an empty array first).
  void push_back(Json v) {
    if (type_ == Type::Null) type_ = Type::Array;
    array_.push_back(std::move(v));
  }

  /// Object member access, inserting a Null member if absent (converts a
  /// Null value into an empty object first).
  Json& operator[](const std::string& key) {
    if (type_ == Type::Null) type_ = Type::Object;
    for (auto& [k, v] : object_) {
      if (k == key) return v;
    }
    object_.emplace_back(key, Json());
    return object_.back().second;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const {
    if (type_ != Type::Object) return nullptr;
    for (const auto& [k, v] : object_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  std::size_t size() const {
    if (type_ == Type::Array) return array_.size();
    if (type_ == Type::Object) return object_.size();
    return 0;
  }

  /// Serialize. indent < 0 is compact; otherwise pretty-print with that
  /// many spaces per level.
  std::string dump(int indent = -1) const;

  /// Strict parse of a complete JSON document; nullopt on any error
  /// (including trailing garbage).
  static std::optional<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  bool is_int_ = false;
  std::string str_;
  Array array_;
  Object object_;
};

}  // namespace gflink::obs
