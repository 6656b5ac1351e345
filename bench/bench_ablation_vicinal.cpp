// Ablation A3 (ours): vicinal-ball construction sensitivity (paper Section
// IV-B's under-/over-prediction discussion). Sweeps (a) the number of
// sampled points v' per vicinal ball and (b) fixed radii spanning
// under-prediction to over-prediction, reporting prediction size and the
// resulting miss rate / prefetch cost.

#include <iostream>

#include "common.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("ablation_vicinal", argc, argv);
  env.banner("Ablation: vicinal sample count and radius sensitivity");

  CameraPath path = random_path(5.0, 10.0, env.positions, env.seed);

  TablePrinter table({"sweep", "value", "mean_entry", "miss_rate", "io(s)",
                      "prefetch(s)"});
  CsvWriter csv = env.open_csv({"sweep", "value", "mean_entry_blocks",
                                 "miss_rate", "io_s", "prefetch_s"});

  auto report = [&](Workbench& wb, const std::string& sweep,
                    const std::string& value) {
    RunResult r = wb.run_app_aware(path);
    table.row({sweep, value, TablePrinter::fmt(wb.table().mean_entry_size(), 1),
               TablePrinter::fmt(r.fast_miss_rate, 4),
               TablePrinter::fmt(r.io_time, 3),
               TablePrinter::fmt(r.prefetch_time, 3)});
    csv.row({sweep, value, CsvWriter::to_cell(wb.table().mean_entry_size()),
             CsvWriter::to_cell(r.fast_miss_rate),
             CsvWriter::to_cell(r.io_time),
             CsvWriter::to_cell(r.prefetch_time)});
  };

  // (a) vicinal sample count.
  std::vector<usize> counts{1, 2, 4, 8, 16, 32};
  if (env.quick) counts = {2, 8};
  for (usize count : counts) {
    WorkbenchSpec spec;
    spec.dataset = DatasetId::kBall3d;
    spec.scale = env.scale;
    spec.target_blocks = 512;
    spec.vicinal_samples = count;
    spec.omega = {12, 24, 3, 2.5, 3.5};
    spec.path_step_deg = 7.5;
    Workbench wb(spec);
    report(wb, "vicinal_samples", std::to_string(count));
  }

  // (b) fixed radius from severe under- to severe over-prediction.
  std::vector<double> radii{0.005, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8};
  if (env.quick) radii = {0.02, 0.2};
  for (double r : radii) {
    WorkbenchSpec spec;
    spec.dataset = DatasetId::kBall3d;
    spec.scale = env.scale;
    spec.target_blocks = 512;
    spec.vicinal_samples = 6;
    spec.omega = {12, 24, 3, 2.5, 3.5};
    spec.fixed_radius = r;
    Workbench wb(spec);
    report(wb, "fixed_radius", TablePrinter::fmt(r, 3));
  }

  table.print("Ablation — vicinal construction");
  std::cout << "(tiny radii under-predict (higher miss), huge radii "
               "over-predict (entropy-trimmed entries, more prefetch I/O))\n";
  return 0;
}
