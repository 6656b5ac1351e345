// Ablation A1 (ours): the entropy threshold sigma. Algorithm 1 gates both
// preloading (line 7) and prefetching (line 22) on entropy > sigma. This
// sweep sets sigma so that a target fraction of blocks qualifies and
// reports the resulting miss rate and time split — quantifying the
// trade-off the paper leaves implicit: low sigma prefetches ambient blocks
// (wasted bandwidth), high sigma starves the prefetcher.

#include <iostream>

#include "common.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("ablation_sigma", argc, argv);
  env.banner("Ablation: entropy threshold sigma (fraction of blocks above)");

  std::vector<double> fractions{0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
  if (env.quick) fractions = {0.25, 0.75};

  TablePrinter table({"dataset", "fraction>sigma", "sigma(bits)", "miss_rate",
                      "prefetched/step", "io(s)", "prefetch(s)", "total(s)"});
  CsvWriter csv = env.open_csv(
      {"dataset", "fraction", "sigma_bits", "miss_rate", "prefetched_per_step",
       "io_s", "prefetch_s", "total_s"});

  for (DatasetId id : {DatasetId::kBall3d, DatasetId::kLiftedMixFrac}) {
    for (double fraction : fractions) {
      WorkbenchSpec spec;
      spec.dataset = id;
      spec.scale = env.scale;
      spec.target_blocks = 512;
      spec.sigma_fraction = fraction;
      spec.omega = {12, 24, 3, 2.5, 3.5};
      spec.vicinal_samples = 6;
      spec.path_step_deg = 7.5;
      Workbench wb(spec);

      CameraPath path = random_path(5.0, 10.0, env.positions, env.seed);
      RunResult r = wb.run_app_aware(path);
      double prefetched = 0;
      for (const StepResult& s : r.steps) {
        prefetched += static_cast<double>(s.prefetched);
      }
      prefetched /= static_cast<double>(r.steps.size());

      table.row({dataset_name(id), TablePrinter::fmt(fraction, 2),
                 TablePrinter::fmt(wb.sigma_bits(), 3),
                 TablePrinter::fmt(r.fast_miss_rate, 4),
                 TablePrinter::fmt(prefetched, 1),
                 TablePrinter::fmt(r.io_time, 3),
                 TablePrinter::fmt(r.prefetch_time, 3),
                 TablePrinter::fmt(r.total_time, 3)});
      csv.row({dataset_name(id), CsvWriter::to_cell(fraction),
               CsvWriter::to_cell(wb.sigma_bits()),
               CsvWriter::to_cell(r.fast_miss_rate),
               CsvWriter::to_cell(prefetched), CsvWriter::to_cell(r.io_time),
               CsvWriter::to_cell(r.prefetch_time),
               CsvWriter::to_cell(r.total_time)});
    }
  }

  table.print("Ablation — sigma sweep");
  return 0;
}
