// Ablation A9 (ours): the block-importance metric. The paper selects
// Shannon entropy (Section IV-C); this sweep swaps in mean gradient
// magnitude and a random ranking while keeping everything else identical
// (preload, entry trimming, prefetch filter) — quantifying how much of
// OPT's win comes from the specific metric vs from having *any*
// application-derived importance signal.

#include <iostream>

#include "common.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("ablation_importance", argc, argv);
  env.banner("Ablation: importance metric (entropy / gradient / random)");

  struct Metric {
    const char* name;
    WorkbenchSpec::ImportanceMetric metric;
  };
  const Metric metrics[] = {
      {"entropy (paper)", WorkbenchSpec::ImportanceMetric::kEntropy},
      {"gradient", WorkbenchSpec::ImportanceMetric::kGradient},
      {"random", WorkbenchSpec::ImportanceMetric::kRandom},
  };

  TablePrinter table({"dataset", "metric", "miss_rate", "io(s)",
                      "prefetch(s)", "total(s)"});
  CsvWriter csv = env.open_csv({"dataset", "metric", "miss_rate", "io_s",
                                 "prefetch_s", "total_s"});

  for (DatasetId id : {DatasetId::kBall3d, DatasetId::kLiftedMixFrac}) {
    CameraPath path = random_path(5.0, 10.0, env.positions, env.seed);
    for (const Metric& m : metrics) {
      WorkbenchSpec spec;
      spec.dataset = id;
      spec.scale = env.scale;
      spec.target_blocks = 512;
      spec.omega = {12, 24, 3, 2.5, 3.5};
      spec.path_step_deg = 7.5;
      spec.importance_metric = m.metric;
      Workbench wb(spec);

      RunResult r = wb.run_app_aware(path);
      table.row({dataset_name(id), m.name,
                 TablePrinter::fmt(r.fast_miss_rate, 4),
                 TablePrinter::fmt(r.io_time, 3),
                 TablePrinter::fmt(r.prefetch_time, 3),
                 TablePrinter::fmt(r.total_time, 3)});
      csv.row({dataset_name(id), m.name, CsvWriter::to_cell(r.fast_miss_rate),
               CsvWriter::to_cell(r.io_time),
               CsvWriter::to_cell(r.prefetch_time),
               CsvWriter::to_cell(r.total_time)});
    }
    // Reference: LRU needs no importance at all.
    WorkbenchSpec spec;
    spec.dataset = id;
    spec.scale = env.scale;
    spec.target_blocks = 512;
    spec.omega = {12, 24, 3, 2.5, 3.5};
    Workbench wb(spec);
    RunResult lru = wb.run_baseline(PolicyKind::kLru, path);
    table.row({dataset_name(id), "(LRU baseline)",
               TablePrinter::fmt(lru.fast_miss_rate, 4),
               TablePrinter::fmt(lru.io_time, 3), "0.000",
               TablePrinter::fmt(lru.total_time, 3)});
    csv.row({dataset_name(id), "lru_baseline",
             CsvWriter::to_cell(lru.fast_miss_rate),
             CsvWriter::to_cell(lru.io_time), CsvWriter::to_cell(0.0),
             CsvWriter::to_cell(lru.total_time)});
  }

  table.print("Ablation — importance metric");
  std::cout << "(entropy and gradient rank the same structures on these "
               "datasets; random importance wastes the preload and prefetch "
               "filter)\n";
  return 0;
}
