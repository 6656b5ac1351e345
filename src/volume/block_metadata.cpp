#include "volume/block_metadata.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "util/error.hpp"

namespace vizcache {

BlockMetadataTable BlockMetadataTable::build(const BlockStore& store,
                                             usize variables, usize timestep,
                                             ThreadPool* pool) {
  if (variables == 0) variables = store.desc().variables;
  VIZ_REQUIRE(variables <= store.desc().variables,
              "more variables requested than the dataset has");

  BlockMetadataTable table;
  table.blocks_ = store.grid().block_count();
  table.variables_ = variables;
  table.entries_.resize(table.blocks_ * variables);

  for (usize var = 0; var < variables; ++var) {
    parallel_for(pool, 0, table.blocks_, 1, [&](usize id_lo, usize id_hi) {
      for (usize id = id_lo; id < id_hi; ++id) {
        std::vector<float> payload =
            store.read_block(static_cast<BlockId>(id), var, timestep);
        Entry e;
        e.min = std::numeric_limits<float>::infinity();
        e.max = -std::numeric_limits<float>::infinity();
        double sum = 0.0;
        for (float v : payload) {
          e.min = std::min(e.min, v);
          e.max = std::max(e.max, v);
          sum += static_cast<double>(v);
        }
        e.mean = payload.empty() ? 0.0f
                                 : static_cast<float>(
                                       sum / static_cast<double>(payload.size()));
        table.entries_[var * table.blocks_ + id] = e;
      }
    });
  }
  return table;
}

const BlockMetadataTable::Entry& BlockMetadataTable::entry(BlockId id,
                                                           usize var) const {
  VIZ_REQUIRE(id < blocks_, "block id out of range");
  VIZ_REQUIRE(var < variables_, "variable out of range");
  return entries_[var * blocks_ + id];
}

bool BlockMetadataTable::intersects_range(BlockId id, usize var, float lo,
                                          float hi) const {
  const Entry& e = entry(id, var);
  return e.min <= hi && e.max >= lo;
}

std::vector<BlockId> BlockMetadataTable::blocks_in_range(usize var, float lo,
                                                         float hi) const {
  VIZ_REQUIRE(lo <= hi, "inverted value range");
  std::vector<BlockId> out;
  for (BlockId id = 0; id < blocks_; ++id) {
    if (intersects_range(id, var, lo, hi)) out.push_back(id);
  }
  return out;
}

std::pair<float, float> BlockMetadataTable::variable_range(usize var) const {
  VIZ_REQUIRE(var < variables_, "variable out of range");
  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  for (BlockId id = 0; id < blocks_; ++id) {
    const Entry& e = entry(id, var);
    lo = std::min(lo, e.min);
    hi = std::max(hi, e.max);
  }
  if (lo > hi) lo = hi = 0.0f;  // no blocks, or only empty ones
  return {lo, hi};
}

void BlockMetadataTable::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open metadata table for writing: " + path);
  u64 header[2] = {blocks_, variables_};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(entries_.data()),
            static_cast<std::streamsize>(entries_.size() * sizeof(Entry)));
  if (!out) throw IoError("metadata table write failed: " + path);
}

BlockMetadataTable BlockMetadataTable::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open metadata table: " + path);
  u64 header[2] = {0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  BlockMetadataTable table;
  table.blocks_ = header[0];
  table.variables_ = header[1];
  table.entries_.resize(table.blocks_ * table.variables_);
  in.read(reinterpret_cast<char*>(table.entries_.data()),
          static_cast<std::streamsize>(table.entries_.size() * sizeof(Entry)));
  if (!in) throw IoError("metadata table read failed: " + path);
  return table;
}

}  // namespace vizcache
