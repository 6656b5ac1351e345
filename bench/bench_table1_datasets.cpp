// Reproduces Table I: the experimental datasets. Generates each dataset (at
// the configured scale), reports name / description / resolution /
// #variables / size, and the full-resolution figures from the paper for
// reference. Also reports the entropy skew each generator produces, since
// that is the property the importance table exploits.

#include <iostream>
#include <sstream>

#include "common.hpp"
#include "core/importance.hpp"
#include "util/units.hpp"
#include "volume/datasets.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("table1_datasets", argc, argv);
  env.banner("Table I: datasets used in the experimental study");

  TablePrinter table({"name", "description", "resolution(scaled)",
                      "resolution(paper)", "#vars", "size(scaled)",
                      "size(paper)", "entropy min/mean/max (bits)"});
  CsvWriter csv = env.open_csv(
      {"name", "scaled_resolution", "paper_resolution", "variables",
       "scaled_bytes", "paper_bytes", "entropy_min", "entropy_mean",
       "entropy_max"});

  for (DatasetId id : all_datasets()) {
    SyntheticVolume vol = make_dataset(id, env.scale);
    VolumeDesc paper = vol.desc;
    paper.dims = paper_dims(id);
    paper.variables = paper_variables(id);

    BlockGrid grid = BlockGrid::with_target_block_count(vol.desc.dims, 256);
    SyntheticBlockStore store(vol, grid.block_dims());
    ImportanceTable imp = ImportanceTable::build(store, 128);

    std::ostringstream entropy;
    entropy.precision(2);
    entropy << std::fixed << imp.min_entropy() << " / " << imp.mean_entropy()
            << " / " << imp.max_entropy();

    table.row({vol.desc.name, vol.desc.description, vol.desc.dims.to_string(),
               paper.dims.to_string(), std::to_string(paper.variables),
               format_bytes(vol.desc.total_bytes()),
               format_bytes(paper.field_bytes() * paper.variables),
               entropy.str()});
    csv.row({vol.desc.name, vol.desc.dims.to_string(), paper.dims.to_string(),
             CsvWriter::to_cell(static_cast<u64>(paper.variables)),
             CsvWriter::to_cell(vol.desc.total_bytes()),
             CsvWriter::to_cell(paper.field_bytes() * paper.variables),
             CsvWriter::to_cell(imp.min_entropy()),
             CsvWriter::to_cell(imp.mean_entropy()),
             CsvWriter::to_cell(imp.max_entropy())});
  }

  table.print("Table I — experimental datasets");
  std::cout << "(paper sizes are per-timestep across all variables; scaled "
               "datasets are the procedural stand-ins described in DESIGN.md)\n";
  return 0;
}
