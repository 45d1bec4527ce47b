// Tests for GStruct descriptors, layout transforms, buffers and the paged
// memory manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "gpu/device.hpp"
#include "mem/buffer.hpp"
#include "mem/gstruct.hpp"
#include "mem/memory_manager.hpp"
#include "mem/record_batch.hpp"
#include "sim/simulation.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
using mem::FieldType;
using mem::Layout;
using sim::Co;
using sim::Simulation;

namespace {

// Mirror of the paper's §3.5.1 example:
//   class Point extends GStruct_8 { Unsigned32 x; Double64 y; Float32 z; }
struct PaperPoint {
  std::uint32_t x;
  double y;
  float z;
};

mem::StructDesc paper_point_desc() {
  return mem::StructDescBuilder("Point", 8)
      .field("x", FieldType::U32, 1, offsetof(PaperPoint, x))
      .field("y", FieldType::F64, 1, offsetof(PaperPoint, y))
      .field("z", FieldType::F32, 1, offsetof(PaperPoint, z))
      .build();
}

}  // namespace

TEST(GStruct, FieldSizes) {
  EXPECT_EQ(mem::field_size(FieldType::U8), 1u);
  EXPECT_EQ(mem::field_size(FieldType::I16), 2u);
  EXPECT_EQ(mem::field_size(FieldType::F32), 4u);
  EXPECT_EQ(mem::field_size(FieldType::F64), 8u);
}

TEST(GStruct, PaperPointLayoutMatchesC) {
  auto d = paper_point_desc();
  // C layout: x @ 0, pad to 8, y @ 8, z @ 16, stride 24 (align 8).
  EXPECT_EQ(d.field(0).offset, 0u);
  EXPECT_EQ(d.field(1).offset, 8u);
  EXPECT_EQ(d.field(2).offset, 16u);
  EXPECT_EQ(d.stride(), 24u);
  EXPECT_EQ(d.stride(), sizeof(PaperPoint));
  EXPECT_TRUE(d.matches_host_layout<PaperPoint>());
}

TEST(GStruct, AlignmentCapPacksTighter) {
  // GStruct_4 caps the double at 4-byte alignment: x @ 0, y @ 4, z @ 12.
  auto d = mem::StructDescBuilder("PackedPoint", 4)
               .field("x", FieldType::U32)
               .field("y", FieldType::F64)
               .field("z", FieldType::F32)
               .build();
  EXPECT_EQ(d.field(1).offset, 4u);
  EXPECT_EQ(d.field(2).offset, 12u);
  EXPECT_EQ(d.stride(), 16u);
}

TEST(GStruct, ArrayFields) {
  auto d = mem::StructDescBuilder("Vec", 8).field("v", FieldType::F32, 16).build();
  EXPECT_EQ(d.stride(), 64u);
  EXPECT_EQ(d.payload_bytes(), 64u);
}

TEST(GStruct, FieldIndexLookup) {
  auto d = paper_point_desc();
  EXPECT_EQ(d.field_index("x"), 0u);
  EXPECT_EQ(d.field_index("z"), 2u);
}

TEST(GStruct, HostLayoutMismatchDetected) {
  // Same fields but no host offsets recorded: matches_host_layout is false
  // unless the offsets happen to line up, which they cannot with SIZE_MAX.
  auto d = mem::StructDescBuilder("P", 8)
               .field("x", FieldType::U32)
               .field("y", FieldType::F64)
               .field("z", FieldType::F32)
               .build();
  EXPECT_FALSE(d.matches_host_layout<PaperPoint>());
}

TEST(RecordBatch, AppendAndTypedAccess) {
  auto d = paper_point_desc();
  mem::RecordBatch b(&d);
  for (int i = 0; i < 10; ++i) {
    PaperPoint p{static_cast<std::uint32_t>(i), i * 1.5, i * 0.5f};
    b.append_raw(&p);
  }
  EXPECT_EQ(b.count(), 10u);
  EXPECT_EQ(b.byte_size(), 240u);
  EXPECT_EQ(b.get<std::uint32_t>(0, 7), 7u);
  EXPECT_DOUBLE_EQ(b.get<double>(1, 7), 10.5);
  EXPECT_FLOAT_EQ(b.get<float>(2, 7), 3.5f);
  const PaperPoint* view = b.aos_view<PaperPoint>();
  EXPECT_EQ(view[3].x, 3u);
}

TEST(RecordBatch, BulkAppendIsByteIdenticalToPerRecordAppends) {
  auto d = paper_point_desc();
  std::vector<PaperPoint> rows;
  for (int i = 0; i < 37; ++i) {
    rows.push_back(PaperPoint{static_cast<std::uint32_t>(i), i * 2.25, i * -0.5f});
  }
  mem::RecordBatch one(&d);
  for (const PaperPoint& p : rows) one.append_raw(&p);
  mem::RecordBatch bulk(&d);
  bulk.append_raw(rows.data(), 5);
  bulk.append_raw(rows.data() + 5, rows.size() - 5);
  EXPECT_EQ(bulk.count(), one.count());
  EXPECT_EQ(bulk.bytes(), one.bytes());
}

TEST(RecordBatch, ReserveKeepsCountAndLeavesNoSlack) {
  auto d = paper_point_desc();
  mem::RecordBatch b(&d);
  b.reserve(8);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.bytes().capacity(), 8 * d.stride());
  const PaperPoint rows[8] = {};
  b.append_raw(rows, 8);
  EXPECT_EQ(b.count(), 8u);
  EXPECT_EQ(b.bytes().capacity(), b.bytes().size());
}

TEST(RecordBatchDeathTest, BulkAppendToSoABatchAborts) {
  auto d = paper_point_desc();
  mem::RecordBatch soa(&d, 2, Layout::SoA);
  const PaperPoint rows[2] = {};
  EXPECT_DEATH(soa.append_raw(rows, 2), "AoS");
  EXPECT_DEATH(soa.reserve(4), "AoS");
  mem::RecordBatch aos(&d);
  EXPECT_DEATH(aos.append(soa), "AoS");
}

TEST(RecordBatch, SetMutates) {
  auto d = paper_point_desc();
  mem::RecordBatch b(&d, 4, Layout::AoS);
  b.set<double>(1, 2, 99.0);
  EXPECT_DOUBLE_EQ(b.get<double>(1, 2), 99.0);
  EXPECT_DOUBLE_EQ(b.get<double>(1, 1), 0.0);
}

TEST(RecordBatch, LayoutRoundTripsPreserveValues) {
  auto d = mem::StructDescBuilder("Mix", 8)
               .field("id", FieldType::U64)
               .field("vals", FieldType::F32, 4)
               .field("tag", FieldType::U8)
               .build();
  mem::RecordBatch aos(&d, 6, Layout::AoS);
  for (std::size_t r = 0; r < 6; ++r) {
    aos.set<std::uint64_t>(0, r, 1000 + r);
    for (std::size_t e = 0; e < 4; ++e) {
      aos.set<float>(1, r, static_cast<float>(r * 10 + e), e);
    }
    aos.set<std::uint8_t>(2, r, static_cast<std::uint8_t>(r));
  }
  for (Layout target : {Layout::SoA, Layout::AoP}) {
    auto t = aos.to_layout(target);
    EXPECT_EQ(t.layout(), target);
    auto back = t.to_layout(Layout::AoS);
    ASSERT_EQ(back.count(), aos.count());
    EXPECT_EQ(back.bytes(), aos.bytes()) << mem::layout_name(target);
  }
}

TEST(RecordBatch, SoAColumnsAreContiguous) {
  auto d = mem::StructDescBuilder("XY", 8)
               .field("x", FieldType::F32)
               .field("y", FieldType::F32)
               .build();
  mem::RecordBatch aos(&d, 3, Layout::AoS);
  for (std::size_t r = 0; r < 3; ++r) {
    aos.set<float>(0, r, static_cast<float>(r));
    aos.set<float>(1, r, static_cast<float>(100 + r));
  }
  auto soa = aos.to_layout(Layout::SoA);
  // Column 0 = [0,1,2], column 1 = [100,101,102], back to back.
  const float* data = reinterpret_cast<const float*>(soa.bytes().data());
  EXPECT_EQ(soa.column_offset(0), 0u);
  EXPECT_EQ(soa.column_offset(1), 12u);
  EXPECT_FLOAT_EQ(data[0], 0.f);
  EXPECT_FLOAT_EQ(data[2], 2.f);
  EXPECT_FLOAT_EQ(data[3], 100.f);
  EXPECT_FLOAT_EQ(data[5], 102.f);
}

TEST(RecordBatch, AoPFieldsSeparateBuffers) {
  auto d = mem::StructDescBuilder("XY", 8)
               .field("x", FieldType::F32)
               .field("y", FieldType::F64)
               .build();
  mem::RecordBatch aos(&d, 5, Layout::AoS);
  auto aop = aos.to_layout(Layout::AoP);
  ASSERT_EQ(aop.field_bytes().size(), 2u);
  EXPECT_EQ(aop.field_bytes()[0].size(), 20u);
  EXPECT_EQ(aop.field_bytes()[1].size(), 40u);
  // AoP drops AoS padding: payload only.
  EXPECT_EQ(aop.byte_size(), 60u);
}

TEST(HBuffer, ReadWriteAndFlags) {
  mem::AddressSpace as;
  mem::HBuffer b(128, as.allocate(128));
  EXPECT_TRUE(b.off_heap());
  EXPECT_FALSE(b.pinned());
  b.set_pinned(true);
  EXPECT_TRUE(b.pinned());
  std::uint64_t v = 0xdeadbeef;
  b.write(16, &v, sizeof(v));
  std::uint64_t r = 0;
  b.read(16, &r, sizeof(r));
  EXPECT_EQ(r, v);
}

TEST(AddressSpace, UniquePageAlignedAddresses) {
  mem::AddressSpace as;
  auto a = as.allocate(100);
  auto b = as.allocate(5000);
  auto c = as.allocate(1);
  EXPECT_EQ(a % 4096, 0u);
  EXPECT_EQ(b % 4096, 0u);
  EXPECT_GT(b, a);
  EXPECT_GT(c, b);
  EXPECT_GE(c - b, 4096u * 2);  // 5000 bytes spans two pages
}

TEST(MemoryManager, PagesForRoundsUp) {
  Simulation s;
  mem::MemoryManager mm(s, 1024, 16);
  EXPECT_EQ(mm.pages_for(1), 1u);
  EXPECT_EQ(mm.pages_for(1024), 1u);
  EXPECT_EQ(mm.pages_for(1025), 2u);
}

TEST(MemoryManager, BudgetBackpressure) {
  Simulation s;
  mem::MemoryManager mm(s, 1024, 4);
  std::vector<sim::Time> alloc_times;
  s.spawn([](Simulation& sm, mem::MemoryManager& m, std::vector<sim::Time>& at) -> Co<void> {
    auto b1 = co_await m.allocate(4 * 1024);  // takes the whole budget
    at.push_back(sm.now());
    co_await sm.delay(100);
    b1.reset();  // release pages at t=100
    co_await sm.delay(1000);
  }(s, mm, alloc_times));
  s.spawn([](Simulation& sm, mem::MemoryManager& m, std::vector<sim::Time>& at) -> Co<void> {
    co_await sm.delay(1);
    auto b2 = co_await m.allocate(1024);  // must wait for the release
    at.push_back(sm.now());
  }(s, mm, alloc_times));
  s.run();
  ASSERT_EQ(alloc_times.size(), 2u);
  EXPECT_EQ(alloc_times[0], 0);
  EXPECT_EQ(alloc_times[1], 100);
  EXPECT_EQ(mm.pages_available(), 4u);
}

TEST(MemoryManager, TryAllocateRespectsBudget) {
  Simulation s;
  mem::MemoryManager mm(s, 1024, 2);
  auto a = mm.try_allocate(2048);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(mm.try_allocate(1), nullptr);
  a.reset();
  EXPECT_NE(mm.try_allocate(1), nullptr);
}

TEST(MemoryManager, ViewChargesItsBudgetAndAliasesTheOwnersBytes) {
  Simulation s;
  mem::MemoryManager mm(s, 1024, 8);
  gflink::gpu::GpuDevice dev(s, "gpu0", gflink::gpu::DeviceSpec::c2050());
  std::vector<std::byte> owner(4096);
  for (std::size_t i = 0; i < owner.size(); ++i) owner[i] = static_cast<std::byte>(i * 7);
  std::vector<std::byte> on_device;
  s.spawn([](mem::MemoryManager& m, gflink::gpu::GpuDevice& d, std::vector<std::byte>& bytes,
             std::vector<std::byte>& seen) -> Co<void> {
    // 1000 bytes at offset 100, charged like a 2500-byte block: 3 pages.
    mem::HBufferPtr in = co_await m.view(bytes.data() + 100, 1000, 2500);
    EXPECT_EQ(m.pages_available(), 5u);
    EXPECT_EQ(in->data(), bytes.data() + 100);
    EXPECT_EQ(in->size(), 1000u);
    EXPECT_TRUE(in->pinned());
    // An output view of 1000 bytes at offset 2000: 1 page.
    mem::HBufferPtr out = co_await m.view(bytes.data() + 2000, 1000, 1000);
    EXPECT_EQ(m.pages_available(), 4u);
    const auto p = d.memory().allocate(1000);
    co_await d.copy_h2d(*in, 0, p, 1000);  // reads the owner's bytes
    const std::byte* shadow = d.memory().shadow(p, 1000);
    seen.assign(shadow, shadow + 1000);
    co_await d.copy_d2h(p, *out, 0, 1000);  // writes the owner's bytes in place
    d.memory().free(p);
    in.reset();
    EXPECT_EQ(m.pages_available(), 7u);
    out.reset();
    EXPECT_EQ(m.pages_available(), 8u);
  }(mm, dev, owner, on_device));
  s.run();
  ASSERT_EQ(on_device.size(), 1000u);
  EXPECT_TRUE(std::equal(on_device.begin(), on_device.end(), owner.begin() + 100));
  EXPECT_TRUE(std::equal(owner.begin() + 2000, owner.begin() + 3000, owner.begin() + 100));
  EXPECT_EQ(mm.pages_available(), 8u);
}

// Property sweep: every (alignment cap, field mix) produces offsets that
// are within stride, properly aligned, and non-overlapping.
class GStructLayoutProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GStructLayoutProperty, OffsetsAlignedAndDisjoint) {
  const std::size_t cap = GetParam();
  auto d = mem::StructDescBuilder("P", cap)
               .field("a", FieldType::U8)
               .field("b", FieldType::F64)
               .field("c", FieldType::U16)
               .field("d", FieldType::F32, 3)
               .field("e", FieldType::U8)
               .field("f", FieldType::I64, 2)
               .build();
  std::size_t prev_end = 0;
  for (const auto& f : d.fields()) {
    std::size_t align = std::min(mem::field_size(f.type), cap);
    EXPECT_EQ(f.offset % align, 0u) << f.name;
    EXPECT_GE(f.offset, prev_end) << f.name;
    prev_end = f.offset + f.byte_size();
  }
  EXPECT_LE(prev_end, d.stride());
  EXPECT_EQ(d.stride() % std::min<std::size_t>(8, cap), 0u);
}

INSTANTIATE_TEST_SUITE_P(AlignmentCaps, GStructLayoutProperty,
                         ::testing::Values(1, 2, 4, 8, 16));
