// Reproduces Fig. 9 (a)-(n): miss rate versus block division for FIFO, LRU
// and our application-aware method (OPT), on spherical paths of
// {1,5,10,15,20,25,30,45} degrees per position and random paths of
// {0-5,...,30-35} degree changes.
//
// Expected shape (paper): OPT below FIFO/LRU at every division; small
// degree changes favor smaller blocks; the 1024-4096 total-block range is
// the sweet spot; at large degree changes the division matters little.

#include <iostream>

#include "common.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("fig9_blocksize", argc, argv);
  env.banner("Fig. 9: miss rate vs block division (FIFO / LRU / OPT)");

  // The paper divides the 1024^3 ball into 16384..512 blocks (block sizes
  // 32x32x64 .. 128^3); at bench scale we sweep the same division ratios.
  std::vector<usize> divisions{4096, 2048, 1024, 512, 256, 128};
  std::vector<double> spherical_degs{1, 5, 10, 15, 20, 25, 30, 45};
  std::vector<std::pair<double, double>> random_ranges{
      {0, 5}, {5, 10}, {10, 15}, {15, 20}, {20, 25}, {25, 30}, {30, 35}};
  if (env.quick) {
    divisions = {1024, 256};
    spherical_degs = {5, 20};
    random_ranges = {{10, 15}};
  }

  TablePrinter table({"path", "degrees", "blocks", "FIFO", "LRU", "OPT"});
  CsvWriter csv = env.open_csv({"path_kind", "degrees", "blocks", "fifo_miss",
                                 "lru_miss", "opt_miss"});

  auto run_point = [&](Workbench& wb, const std::string& kind,
                       const std::string& label, const CameraPath& path,
                       usize blocks) {
    double fifo = wb.run_baseline(PolicyKind::kFifo, path).fast_miss_rate;
    double lru = wb.run_baseline(PolicyKind::kLru, path).fast_miss_rate;
    double opt = wb.run_app_aware(path).fast_miss_rate;
    table.row({kind, label, std::to_string(blocks),
               TablePrinter::fmt(fifo, 4), TablePrinter::fmt(lru, 4),
               TablePrinter::fmt(opt, 4)});
    csv.row({kind, label, CsvWriter::to_cell(static_cast<u64>(blocks)),
             CsvWriter::to_cell(fifo), CsvWriter::to_cell(lru),
             CsvWriter::to_cell(opt)});
  };

  for (usize blocks : divisions) {
    WorkbenchSpec spec;
    spec.dataset = DatasetId::kBall3d;
    spec.scale = env.scale;
    spec.target_blocks = blocks;
    spec.omega = {6, 12, 2, 2.5, 3.5};  // small table: this figure sweeps
                                        // divisions, not lattice density
    spec.vicinal_samples = 6;
    Workbench wb(spec);

    for (double deg : spherical_degs) {
      wb.set_path_step_deg(deg);
      run_point(wb, "spherical", TablePrinter::fmt(deg, 0),
                spherical_path(deg, env.positions), blocks);
    }
    for (auto [lo, hi] : random_ranges) {
      wb.set_path_step_deg(0.5 * (lo + hi));
      run_point(wb, "random", degree_range_label(lo, hi),
                random_path(lo, hi, env.positions, env.seed), blocks);
    }
  }

  table.print("Fig. 9 — miss rate by block division");
  std::cout << "(OPT should undercut FIFO/LRU broadly; mid divisions should "
               "be the sweet spot at small degree changes)\n";
  return 0;
}
