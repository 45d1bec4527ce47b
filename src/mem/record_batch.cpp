#include "mem/record_batch.hpp"

namespace gflink::mem {

RecordBatch::RecordBatch(const StructDesc* desc) : desc_(desc), layout_(Layout::AoS) {
  GFLINK_CHECK(desc != nullptr);
}

RecordBatch::RecordBatch(const StructDesc* desc, std::size_t count, Layout layout)
    : desc_(desc), layout_(layout), count_(count) {
  GFLINK_CHECK(desc != nullptr);
  switch (layout) {
    case Layout::AoS:
      bytes_.assign(count * desc_->stride(), std::byte{0});
      break;
    case Layout::SoA: {
      std::size_t offset = 0;
      column_offsets_.reserve(desc_->field_count());
      for (const auto& f : desc_->fields()) {
        column_offsets_.push_back(offset);
        offset += f.byte_size() * count;
      }
      bytes_.assign(offset, std::byte{0});
      break;
    }
    case Layout::AoP:
      field_bytes_.reserve(desc_->field_count());
      for (const auto& f : desc_->fields()) {
        field_bytes_.emplace_back(f.byte_size() * count, std::byte{0});
      }
      break;
  }
}

std::size_t RecordBatch::byte_size() const {
  if (layout_ == Layout::AoP) {
    std::size_t total = 0;
    for (const auto& fb : field_bytes_) total += fb.size();
    return total;
  }
  return bytes_.size();
}

void RecordBatch::reserve(std::size_t records) {
  GFLINK_CHECK_MSG(layout_ == Layout::AoS, "reserve requires AoS layout");
  bytes_.reserve(records * desc_->stride());
}

void RecordBatch::resize(std::size_t records) {
  GFLINK_CHECK_MSG(layout_ == Layout::AoS, "resize requires AoS layout");
  bytes_.resize(records * desc_->stride());
  count_ = records;
}

void RecordBatch::append_raw(const void* record_bytes) { append_raw(record_bytes, 1); }

void RecordBatch::append_raw(const void* records, std::size_t n) {
  GFLINK_CHECK_MSG(layout_ == Layout::AoS, "append requires AoS layout");
  const auto* src = static_cast<const std::byte*>(records);
  bytes_.insert(bytes_.end(), src, src + n * desc_->stride());
  count_ += n;
}

void RecordBatch::append(const RecordBatch& other) {
  GFLINK_CHECK_MSG(other.layout_ == Layout::AoS, "append requires AoS layout");
  GFLINK_CHECK_MSG(other.desc_->stride() == desc_->stride(), "append of a different stride");
  append_raw(other.bytes_.data(), other.count_);
}

const std::byte* RecordBatch::record_ptr(std::size_t i) const {
  GFLINK_CHECK(layout_ == Layout::AoS);
  GFLINK_CHECK(i < count_);
  return bytes_.data() + i * desc_->stride();
}

std::byte* RecordBatch::record_ptr(std::size_t i) {
  GFLINK_CHECK(layout_ == Layout::AoS);
  GFLINK_CHECK(i < count_);
  return bytes_.data() + i * desc_->stride();
}

std::size_t RecordBatch::column_offset(std::size_t field) const {
  GFLINK_CHECK(layout_ == Layout::SoA);
  return column_offsets_.at(field);
}

const std::byte* RecordBatch::element_ptr(std::size_t field, std::size_t record,
                                          std::size_t elem, std::size_t value_size) const {
  const FieldDesc& f = desc_->field(field);
  GFLINK_CHECK_MSG(value_size == field_size(f.type), "value type size mismatch");
  GFLINK_CHECK(record < count_);
  GFLINK_CHECK(elem < f.array_len);
  switch (layout_) {
    case Layout::AoS:
      return bytes_.data() + record * desc_->stride() + f.offset + elem * field_size(f.type);
    case Layout::SoA:
      return bytes_.data() + column_offsets_[field] +
             (record * f.array_len + elem) * field_size(f.type);
    case Layout::AoP:
      return field_bytes_[field].data() + (record * f.array_len + elem) * field_size(f.type);
  }
  GFLINK_CHECK(false);
}

RecordBatch RecordBatch::to_layout(Layout target) const {
  if (target == layout_) {
    RecordBatch copy(desc_, count_, target);
    copy.bytes_ = bytes_;
    copy.field_bytes_ = field_bytes_;
    return copy;
  }
  RecordBatch out(desc_, count_, target);
  // Element-wise shuffle through the accessor machinery: correctness first;
  // the simulated cost of a transform is charged by the caller.
  for (std::size_t fi = 0; fi < desc_->field_count(); ++fi) {
    const FieldDesc& f = desc_->field(fi);
    const std::size_t esz = field_size(f.type);
    for (std::size_t r = 0; r < count_; ++r) {
      for (std::size_t e = 0; e < f.array_len; ++e) {
        const std::byte* src = element_ptr(fi, r, e, esz);
        std::byte* dst = out.element_ptr(fi, r, e, esz);
        std::memcpy(dst, src, esz);
      }
    }
  }
  return out;
}

}  // namespace gflink::mem
