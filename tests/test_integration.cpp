// End-to-end integration tests: the paper's headline claims, asserted at a
// reduced simulation scale so they run inside the unit-test budget. These
// are the regression guards for the calibration in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "workloads/concomp.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/linreg.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/spmv.hpp"
#include "workloads/wordcount.hpp"

namespace sim = gflink::sim;
namespace wl = gflink::workloads;

namespace {

/// Full paper testbed, quarter-scale data so each run is a few ms real.
template <typename ConfigT, typename ResultT>
double speedup(wl::Driver<ConfigT, ResultT> driver, const ConfigT& config) {
  const wl::Testbed tb;  // 10 workers x 2 C2050, scale 1e-3
  return sim::to_seconds(wl::run(driver, tb, wl::Mode::Cpu, config).run.total) /
         sim::to_seconds(wl::run(driver, tb, wl::Mode::Gpu, config).run.total);
}

}  // namespace

// Each workload's overall GFlink speedup must stay in a band around the
// paper's reported factor (paper value, +-40% tolerance: the band is wide
// enough to survive small model changes but catches broken calibration).
TEST(PaperHeadlines, KMeansSpeedupBand) {
  wl::kmeans::Config cfg;  // defaults = the paper's setup at 210 M points
  const double s = speedup(&wl::kmeans::run, cfg);
  EXPECT_GT(s, 3.5) << "paper: ~5x";
  EXPECT_LT(s, 7.0);
}

TEST(PaperHeadlines, LinRegSpeedupBand) {
  wl::linreg::Config cfg;
  const double s = speedup(&wl::linreg::run, cfg);
  EXPECT_GT(s, 6.5) << "paper: ~9.2x";
  EXPECT_LT(s, 13.0);
}

TEST(PaperHeadlines, SpmvSpeedupBand) {
  wl::spmv::Config cfg;
  cfg.matrix_bytes = 8ULL << 30;
  const double s = speedup(&wl::spmv::run, cfg);
  EXPECT_GT(s, 4.5) << "paper: ~6.3x";
  EXPECT_LT(s, 9.0);
}

TEST(PaperHeadlines, PageRankSpeedupBand) {
  wl::pagerank::Config cfg;
  cfg.pages = 15'000'000;
  const double s = speedup(&wl::pagerank::run, cfg);
  EXPECT_GT(s, 2.4) << "paper: ~3.5x";
  EXPECT_LT(s, 5.0);
}

TEST(PaperHeadlines, ConComponentsSpeedupBand) {
  wl::concomp::Config cfg;
  cfg.vertices = 15'000'000;
  const double s = speedup(&wl::concomp::run, cfg);
  EXPECT_GT(s, 3.4) << "paper: ~4.8x";
  EXPECT_LT(s, 6.7);
}

TEST(PaperHeadlines, WordCountSpeedupBand) {
  wl::wordcount::Config cfg;
  cfg.text_bytes = 40ULL << 30;
  const double s = speedup(&wl::wordcount::run, cfg);
  EXPECT_GT(s, 0.95) << "paper: ~1.1x";
  EXPECT_LT(s, 1.6);
}

TEST(PaperHeadlines, SpeedupOrderingMatchesPaper) {
  // LinReg > SpMV > KMeans > ConComp > PageRank > WordCount.
  wl::kmeans::Config km;
  wl::linreg::Config lr;
  wl::spmv::Config sp;
  sp.matrix_bytes = 8ULL << 30;
  wl::pagerank::Config pr;
  pr.pages = 15'000'000;
  wl::concomp::Config cc;
  cc.vertices = 15'000'000;
  wl::wordcount::Config wc;
  wc.text_bytes = 40ULL << 30;

  const double s_km = speedup(&wl::kmeans::run, km);
  const double s_lr = speedup(&wl::linreg::run, lr);
  const double s_sp = speedup(&wl::spmv::run, sp);
  const double s_pr = speedup(&wl::pagerank::run, pr);
  const double s_cc = speedup(&wl::concomp::run, cc);
  const double s_wc = speedup(&wl::wordcount::run, wc);

  EXPECT_GT(s_lr, s_sp);
  EXPECT_GT(s_sp, s_km);
  EXPECT_GT(s_km, s_cc);
  EXPECT_GT(s_cc, s_pr);
  EXPECT_GT(s_pr, s_wc);
}
