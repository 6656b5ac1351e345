// Reproduces Fig. 7: miss rate (a) and I/O time (b) versus the number of
// sampled camera positions in Omega, across the four Table I datasets, on a
// random path with 10-15 degree view-direction changes.
//
// Expected shape (paper): miss rate falls monotonically with more samples;
// I/O time is U-shaped — the 25,920-sample table wins, larger tables lose
// to lookup overhead.

#include <iostream>

#include "common.hpp"

using namespace vizcache;
using namespace vizcache::bench;

namespace {

struct Lattice {
  OmegaSamplingSpec omega;
  usize total() const { return omega.total_positions(); }
};

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("fig7_sampling", argc, argv);
  env.banner(
      "Fig. 7: miss rate & I/O time vs #sampling positions (random path, "
      "10-15 deg)");

  // Position-count ladder up to the paper's exact values: 36x72x10 = 25,920
  // (the paper's optimum) and beyond it the over-dense lattices where
  // lookup overhead wins (the paper's 72k/108k points).
  std::vector<Lattice> lattices{
      {{6, 12, 2, 2.5, 3.5}},     // 144
      {{9, 18, 3, 2.5, 3.5}},     // 486
      {{12, 24, 5, 2.5, 3.5}},    // 1,440
      {{18, 36, 5, 2.5, 3.5}},    // 3,240
      {{24, 48, 9, 2.5, 3.5}},    // 10,368
      {{36, 72, 10, 2.5, 3.5}},   // 25,920
  };
  // The over-dense tail is expensive to build; by default it runs on
  // 3d_ball only (pass full=1 to sweep it on every dataset).
  std::vector<Lattice> tail{
      {{48, 96, 15, 2.5, 3.5}},   // 69,120
      {{60, 120, 14, 2.5, 3.5}},  // 100,800
  };
  bool full = env.cfg.get_bool("full", false);
  if (env.quick) {
    lattices.resize(3);
    tail.clear();
  }

  std::vector<DatasetId> datasets = all_datasets();
  if (env.quick) datasets = {DatasetId::kBall3d};

  TablePrinter table(
      {"dataset", "#samples", "miss_rate", "io_time(s)", "lookup(s)",
       "io+lookup(s)"});
  CsvWriter csv = env.open_csv({"dataset", "samples", "miss_rate", "io_time_s",
                                 "lookup_time_s", "io_plus_lookup_s"});

  for (DatasetId id : datasets) {
    WorkbenchSpec spec;
    spec.dataset = id;
    spec.scale = env.scale;
    spec.target_blocks = 512;
    spec.path_step_deg = 12.5;
    spec.vicinal_samples = 6;
    spec.omega = lattices.front().omega;
    Workbench wb(spec);

    CameraPath path = random_path(10.0, 15.0, env.positions, env.seed);

    std::vector<Lattice> sweep = lattices;
    if (full || id == DatasetId::kBall3d) {
      sweep.insert(sweep.end(), tail.begin(), tail.end());
    }
    for (const Lattice& lat : sweep) {
      wb.rebuild_table(lat.omega, std::nullopt);
      RunResult r = wb.run_app_aware(path);
      table.row({dataset_name(id), std::to_string(lat.total()),
                 TablePrinter::fmt(r.fast_miss_rate, 4),
                 TablePrinter::fmt(r.io_time, 3),
                 TablePrinter::fmt(r.lookup_time, 3),
                 TablePrinter::fmt(r.io_plus_lookup(), 3)});
      csv.row({dataset_name(id),
               CsvWriter::to_cell(static_cast<u64>(lat.total())),
               CsvWriter::to_cell(r.fast_miss_rate),
               CsvWriter::to_cell(r.io_time),
               CsvWriter::to_cell(r.lookup_time),
               CsvWriter::to_cell(r.io_plus_lookup())});
    }
  }

  table.print("Fig. 7 — sampling-position sweep");
  std::cout << "(miss rate should fall with #samples; io+lookup should be "
               "U-shaped with the minimum near 25,920)\n";
  return 0;
}
