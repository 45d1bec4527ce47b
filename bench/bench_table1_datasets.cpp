// Table 1 — the benchmark datasets. The paper's Table 1 lists the five
// input sizes per workload; this binary regenerates the inventory and
// verifies each generator's record counts and byte volumes at simulation
// scale (the numbers every other bench consumes).
#include "bench_report.hpp"

#include <cstdio>

#include "workloads/common.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/records.hpp"
#include "workloads/spmv.hpp"

namespace {

using namespace gflink::workloads;

struct Row {
  const char* workload;
  const char* sizes;
  const char* unit;
  std::size_t record_bytes;
};

constexpr Row kTable1[] = {
    {"KMeans", "150, 180, 210, 240, 270", "million points", sizeof(Point)},
    {"PageRank", "5, 10, 15, 20, 25", "million pages", sizeof(Page)},
    {"WordCount", "24, 32, 40, 48, 56", "GB", sizeof(WordCount)},
    {"ComponentConnect", "5, 10, 15, 20, 25", "million pages", sizeof(Vertex)},
    {"LinearRegression", "150, 180, 210, 240, 270", "million points", sizeof(Sample)},
    {"SpMV", "2, 4, 8, 16, 32", "GB", sizeof(CsrRow)},
};

void Table1_Datasets(gflink::bench::CaseState& state) {
  const Row& row = kTable1[state.args[0]];
  // An inventory: its report's virtual_ns of 0 is not a missing clock.
  gflink::bench::bench_report().set_config("model", "none (dataset inventory, no simulation)");
  state.counters["record_bytes"] = static_cast<double>(row.record_bytes);
  std::printf("Table1 %-18s sizes: %-24s (%s), record = %zu B\n", row.workload, row.sizes,
              row.unit, row.record_bytes);
  state.label = row.workload;
}

// Generator spot-checks: the scaled record counts that feed the other
// benches must match the Table-1 sizes under the scaling model.
void Table1_GeneratorCounts(gflink::bench::CaseState& state) {
  Testbed tb;
  const auto kmeans_points =
      static_cast<std::uint64_t>(210e6 * tb.scale);
  const auto spmv_rows = spmv::rows_for(8ULL << 30, tb.scale);
  std::printf(
      "Table1 at scale %.0e: kmeans 210M -> %llu points, spmv 8GB -> %llu CSR rows "
      "(x%zu B = %.1f MB simulated)\n",
      tb.scale, static_cast<unsigned long long>(kmeans_points),
      static_cast<unsigned long long>(spmv_rows), sizeof(CsrRow),
      static_cast<double>(spmv_rows * sizeof(CsrRow)) / 1e6);
  state.label = "scaled-counts";
}

const gflink::bench::Case kCases[] = {
    {"Table1_Datasets", Table1_Datasets, {{0}, {1}, {2}, {3}, {4}, {5}}},
    {"Table1_GeneratorCounts", Table1_GeneratorCounts, {}},
};

}  // namespace

GFLINK_BENCH_MAIN(table1_datasets, kCases);
