// Ablation A2 (ours): the full replacement-policy zoo against the
// application-aware method, including ARC (the related-work policy of
// Megiddo & Modha cited by the paper) and Belady's offline-optimal MIN as
// the demand-fetch lower bound. Shows where OPT's advantage comes from:
// even the optimal pure-replacement policy cannot beat prediction +
// overlap, because it cannot fetch before the demand arrives.

#include <iostream>

#include "common.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("ablation_policies", argc, argv);
  env.banner("Ablation: replacement-policy zoo vs the app-aware method");

  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = env.scale;
  spec.target_blocks = 1024;
  spec.omega = {12, 24, 3, 2.5, 3.5};
  spec.vicinal_samples = 6;
  Workbench wb(spec);

  std::vector<std::pair<double, double>> ranges{{0, 5}, {10, 15}, {25, 30}};
  if (env.quick) ranges = {{5, 10}};

  TablePrinter table({"degrees", "policy", "miss_rate", "io(s)", "total(s)"});
  CsvWriter csv = env.open_csv(
      {"degrees", "policy", "miss_rate", "io_s", "total_s"});

  auto report = [&](const std::string& degrees, const std::string& name,
                    const RunResult& r) {
    table.row({degrees, name, TablePrinter::fmt(r.fast_miss_rate, 4),
               TablePrinter::fmt(r.io_time, 3),
               TablePrinter::fmt(r.total_time, 3)});
    csv.row({degrees, name, CsvWriter::to_cell(r.fast_miss_rate),
             CsvWriter::to_cell(r.io_time), CsvWriter::to_cell(r.total_time)});
  };

  for (auto [lo, hi] : ranges) {
    wb.set_path_step_deg(0.5 * (lo + hi));
    CameraPath path = random_path(lo, hi, env.positions, env.seed);
    std::string label = degree_range_label(lo, hi);
    for (PolicyKind kind :
         {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kMru,
          PolicyKind::kClock, PolicyKind::kLfu, PolicyKind::kArc,
          PolicyKind::kTwoQ}) {
      report(label, policy_kind_name(kind), wb.run_baseline(kind, path));
    }
    report(label, "BELADY(oracle)", wb.run_belady(path));
    report(label, "OPT(app-aware)", wb.run_app_aware(path));
  }

  table.print("Ablation — policy zoo");
  std::cout << "(BELADY lower-bounds the demand-only policies; OPT can beat "
               "even it on io/total time thanks to prefetch overlap)\n";
  return 0;
}
