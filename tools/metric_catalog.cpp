// Prints the EXPERIMENTS.md metric catalog rendered from the metric family
// table (src/obs/metric_families.hpp). tools/gen_metric_catalog.py splices
// the output between the metric-catalog markers, or checks it for drift.
#include <iostream>

#include "obs/metric_families.hpp"

int main() {
  std::cout << gflink::obs::render_metric_catalog();
  return 0;
}
