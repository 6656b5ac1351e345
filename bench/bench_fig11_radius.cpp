// Reproduces Fig. 11: total I/O + prefetching time over a 400-position
// camera path on lifted_rr (1024 blocks), comparing the vicinal radius
// computed by the Eq. 6 model against the pre-defined radii
// {0.1, 0.075, 0.05, 0.025} (relative to the normalized volume edge 2).
//
// Expected shape (paper): the model radius achieves the lowest total
// I/O + prefetch time — and adapts automatically when d changes (zoom).

#include <iostream>

#include "common.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("fig11_radius", argc, argv);
  env.banner(
      "Fig. 11: I/O + prefetch time, Eq. 6 model radius vs fixed radii "
      "(lifted_rr, 1024 blocks)");

  WorkbenchSpec spec;
  spec.dataset = DatasetId::kLiftedRr;
  spec.scale = env.scale;
  spec.target_blocks = 1024;
  spec.omega = {12, 24, 3, 2.5, 3.5};
  spec.vicinal_samples = 6;
  spec.path_step_deg = 5.0;
  Workbench wb(spec);

  // Zoom-in/zoom-out path: the distance varies, which is exactly the case
  // where the model's d-dependent radius should win.
  RandomPathSpec rp;
  rp.step_min_deg = 4.0;
  rp.step_max_deg = 6.0;
  rp.distance_min = 2.5;
  rp.distance_max = 3.5;
  rp.positions = env.positions;
  rp.seed = env.seed;
  CameraPath path = make_random_path(rp);

  TablePrinter table(
      {"radius", "io(s)", "prefetch(s)", "io+prefetch(s)", "miss_rate"});
  CsvWriter csv = env.open_csv(
      {"radius", "io_s", "prefetch_s", "io_plus_prefetch_s", "miss_rate"});

  auto report = [&](const std::string& label, const RunResult& r) {
    table.row({label, TablePrinter::fmt(r.io_time, 3),
               TablePrinter::fmt(r.prefetch_time, 3),
               TablePrinter::fmt(r.io_time + r.prefetch_time, 3),
               TablePrinter::fmt(r.fast_miss_rate, 4)});
    csv.row({label, CsvWriter::to_cell(r.io_time),
             CsvWriter::to_cell(r.prefetch_time),
             CsvWriter::to_cell(r.io_time + r.prefetch_time),
             CsvWriter::to_cell(r.fast_miss_rate)});
  };

  // Model-computed radius (Eq. 6, evaluated per sample distance d).
  wb.rebuild_table(spec.omega, std::nullopt);
  report("model (Eq.6)", wb.run_app_aware(path));

  for (double r : {0.1, 0.075, 0.05, 0.025}) {
    wb.rebuild_table(spec.omega, r);
    report(TablePrinter::fmt(r, 3), wb.run_app_aware(path));
  }

  table.print("Fig. 11 — vicinal radius comparison");
  std::cout << "(the model row should have the lowest io+prefetch total)\n";
  return 0;
}
