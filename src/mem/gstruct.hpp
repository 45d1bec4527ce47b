// GStruct: the user-defined data layout scheme of GFlink (paper §3.5.1).
//
// A GStruct describes a C-style record: ordered primitive fields (optionally
// small arrays) with an explicit alignment cap (GStruct_4/8/16 in the
// paper's Java API). The descriptor computes byte offsets with C struct
// layout rules so the raw bytes cached in off-heap memory match the layout
// of the struct a CUDA kernel would declare — the property that lets GFlink
// skip serialization/deserialization entirely.
//
// Three physical layouts are supported for a batch of records (§2.1):
//   * AoS — array of structures (default; record-contiguous),
//   * SoA — structure of arrays (column-contiguous; coalesced GPU access),
//   * AoP — array of primitives (each field a fully separate array).
// SoA and AoP differ in *where* the arrays live: SoA keeps all columns in
// one buffer, AoP splits them into independent buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/util.hpp"

namespace gflink::mem {

enum class FieldType : std::uint8_t { U8, I8, U16, I16, U32, I32, U64, I64, F32, F64 };

constexpr std::size_t field_size(FieldType t) {
  switch (t) {
    case FieldType::U8:
    case FieldType::I8:
      return 1;
    case FieldType::U16:
    case FieldType::I16:
      return 2;
    case FieldType::U32:
    case FieldType::I32:
    case FieldType::F32:
      return 4;
    case FieldType::U64:
    case FieldType::I64:
    case FieldType::F64:
      return 8;
  }
  return 0;
}

const char* field_type_name(FieldType t);

struct FieldDesc {
  std::string name;
  FieldType type = FieldType::U8;
  std::size_t array_len = 1;  // >1 makes this field an inline array (SoA style)
  std::size_t offset = 0;     // computed byte offset within the AoS record

  std::size_t byte_size() const { return field_size(type) * array_len; }
};

/// Describes one record type. Build with StructDescBuilder.
class StructDesc {
 public:
  const std::string& name() const { return name_; }
  std::size_t alignment() const { return alignment_; }
  /// Byte size of one record in AoS layout, including tail padding.
  std::size_t stride() const { return stride_; }
  const std::vector<FieldDesc>& fields() const { return fields_; }
  const FieldDesc& field(std::size_t i) const { return fields_.at(i); }
  std::size_t field_count() const { return fields_.size(); }

  /// Index of the field with the given name; aborts if absent.
  std::size_t field_index(const std::string& name) const;

  /// Sum of raw field bytes (no padding) — the payload a kernel touches.
  std::size_t payload_bytes() const;

  /// True if this descriptor's computed offsets and stride equal the host
  /// C++ struct layout of T, given the host offsets recorded at build time.
  /// When true, AoS batches can be reinterpreted as T* directly (the
  /// "no serialization" fast path).
  template <typename T>
  bool matches_host_layout() const {
    if (sizeof(T) != stride_) return false;
    for (const auto& f : fields_) {
      if (f.offset != host_offsets_.at(&f - fields_.data())) return false;
    }
    return true;
  }

 private:
  friend class StructDescBuilder;
  std::string name_;
  std::size_t alignment_ = 8;
  std::size_t stride_ = 0;
  std::vector<FieldDesc> fields_;
  std::vector<std::size_t> host_offsets_;
};

/// Builds a StructDesc with C layout rules capped at the GStruct alignment
/// (GStruct_8 == alignment cap 8, mirroring the paper's example where
/// `Point extends GStruct_8`). Field order is declaration order, like the
/// @StructField(order = n) annotations.
class StructDescBuilder {
 public:
  StructDescBuilder(std::string name, std::size_t alignment_cap = 8);

  /// Append a field. `host_offset` is offsetof(T, field) in the mirror C++
  /// struct; pass SIZE_MAX when there is no host mirror.
  StructDescBuilder& field(std::string name, FieldType type, std::size_t array_len = 1,
                           std::size_t host_offset = static_cast<std::size_t>(-1));

  StructDesc build() const;

 private:
  std::string name_;
  std::size_t alignment_cap_;
  std::vector<FieldDesc> fields_;
  std::vector<std::size_t> host_offsets_;
};

enum class Layout : std::uint8_t { AoS, SoA, AoP };

const char* layout_name(Layout l);

namespace detail {

/// Backing check of GSTRUCT_MIRROR_CHECK: runs during static
/// initialization and aborts loudly (before any test or workload executes)
/// when the descriptor disagrees with the host mirror struct's layout.
template <typename T>
bool check_mirror(const StructDesc& (*desc_fn)(), const char* what) {
  const StructDesc& d = desc_fn();
  GFLINK_CHECK_MSG(d.matches_host_layout<T>(),
                   std::string("GStruct mirror/descriptor layout mismatch: ") + what);
  return true;
}

}  // namespace detail

}  // namespace gflink::mem

/// Declares, at namespace scope of a .cpp file, that mirror struct `T` and
/// descriptor accessor `desc_fn` (a `const StructDesc& (*)()`) must agree:
///  * compile time — T must be standard-layout and trivially copyable (the
///    preconditions for reinterpreting raw GStruct bytes as T);
///  * static-initialization time — the descriptor's computed offsets and
///    stride must equal the host layout (matches_host_layout<T>).
/// Every workload translation unit that reinterprets batch bytes as a
/// mirror struct carries one of these per (T, desc) pair. Each typed plan
/// node repeats the layout check when it is built
/// (dataflow::host_layout_desc), so a mirror struct that reaches a DataSet
/// cannot disagree with its descriptor. The anonymous namespace keeps the
/// check's linkage TU-local, so the same pair may be checked in several
/// files.
#define GSTRUCT_MIRROR_CHECK(T, desc_fn)                                                     \
  static_assert(std::is_standard_layout_v<T>, #T " must be standard-layout");                \
  static_assert(std::is_trivially_copyable_v<T>, #T " must be trivially copyable");          \
  namespace {                                                                                \
  [[maybe_unused]] const bool gflink_mirror_check_##T =                                      \
      ::gflink::mem::detail::check_mirror<T>(&desc_fn, #T " vs " #desc_fn "()");             \
  }                                                                                          \
  static_assert(true, "require a trailing semicolon")
