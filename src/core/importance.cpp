#include "core/importance.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>

#include "util/error.hpp"
#include "util/histogram.hpp"

namespace vizcache {

ImportanceTable ImportanceTable::build(const BlockStore& store, usize bins,
                                       usize var, usize timestep,
                                       ThreadPool* pool) {
  return build(store, BlockMetadataTable::build(store, var + 1, timestep, pool),
               bins, var, timestep, pool);
}

ImportanceTable ImportanceTable::build(const BlockStore& store,
                                       const BlockMetadataTable& metadata,
                                       usize bins, usize var, usize timestep,
                                       ThreadPool* pool) {
  const usize n = store.grid().block_count();
  VIZ_REQUIRE(n > 0, "empty block grid");
  VIZ_REQUIRE(metadata.block_count() == n, "metadata/grid block count mismatch");
  VIZ_REQUIRE(var < metadata.variable_count(), "variable out of range");

  // Global value range so entropies are comparable across blocks.
  const std::pair<float, float> range = metadata.variable_range(var);
  const float lo = range.first;
  const float hi = lo < range.second ? range.second : lo + 1.0f;  // constant

  // Per-block entropy (each block writes only its own slot).
  ImportanceTable table;
  table.entropy_bits_.resize(n);
  parallel_for(pool, 0, n, 1, [&](usize id_lo, usize id_hi) {
    for (usize id = id_lo; id < id_hi; ++id) {
      std::vector<float> payload =
          store.read_block(static_cast<BlockId>(id), var, timestep);
      Histogram h(bins, static_cast<double>(lo), static_cast<double>(hi));
      h.add(std::span<const float>(payload));
      table.entropy_bits_[id] = h.entropy_bits();
    }
  });
  table.build_ranking();
  return table;
}

ImportanceTable ImportanceTable::build_gradient(const BlockStore& store,
                                                usize var, usize timestep,
                                                ThreadPool* pool) {
  const BlockGrid& grid = store.grid();
  const usize n = grid.block_count();
  VIZ_REQUIRE(n > 0, "empty block grid");

  ImportanceTable table;
  table.entropy_bits_.resize(n);
  auto score_block = [&](BlockId id) {
    std::vector<float> payload = store.read_block(id, var, timestep);
    Dims3 e = grid.block_voxel_extent(id);
    auto at = [&](usize x, usize y, usize z) {
      return static_cast<double>(payload[(z * e.y + y) * e.x + x]);
    };
    double sum = 0.0;
    u64 samples = 0;
    for (usize z = 0; z < e.z; ++z) {
      for (usize y = 0; y < e.y; ++y) {
        for (usize x = 0; x < e.x; ++x) {
          // One-sided differences at brick faces, central inside.
          double gx = e.x > 1 ? (at(std::min(x + 1, e.x - 1), y, z) -
                                 at(x > 0 ? x - 1 : 0, y, z))
                              : 0.0;
          double gy = e.y > 1 ? (at(x, std::min(y + 1, e.y - 1), z) -
                                 at(x, y > 0 ? y - 1 : 0, z))
                              : 0.0;
          double gz = e.z > 1 ? (at(x, y, std::min(z + 1, e.z - 1)) -
                                 at(x, y, z > 0 ? z - 1 : 0))
                              : 0.0;
          sum += std::sqrt(gx * gx + gy * gy + gz * gz);
          ++samples;
        }
      }
    }
    table.entropy_bits_[id] =
        samples ? sum / static_cast<double>(samples) : 0.0;
  };
  parallel_for(pool, 0, n, 1, [&](usize id_lo, usize id_hi) {
    for (usize id = id_lo; id < id_hi; ++id) {
      score_block(static_cast<BlockId>(id));
    }
  });
  table.build_ranking();
  return table;
}

ImportanceTable ImportanceTable::build_random(usize block_count, u64 seed) {
  VIZ_REQUIRE(block_count > 0, "empty block grid");
  ImportanceTable table;
  table.entropy_bits_.resize(block_count);
  u64 state = seed;
  for (usize i = 0; i < block_count; ++i) {
    // SplitMix64 step inline: self-contained and deterministic.
    u64 z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    table.entropy_bits_[i] =
        static_cast<double>(z >> 11) * 0x1.0p-53 * 0.99 + 0.005;
  }
  table.build_ranking();
  return table;
}

ImportanceTable ImportanceTable::from_scores(std::vector<double> scores) {
  VIZ_REQUIRE(!scores.empty(), "empty score table");
  ImportanceTable table;
  table.entropy_bits_ = std::move(scores);
  table.build_ranking();
  return table;
}

void ImportanceTable::build_ranking() {
  ranked_.resize(entropy_bits_.size());
  std::iota(ranked_.begin(), ranked_.end(), 0);
  std::stable_sort(ranked_.begin(), ranked_.end(),
                   [this](BlockId a, BlockId b) {
                     if (entropy_bits_[a] != entropy_bits_[b])
                       return entropy_bits_[a] > entropy_bits_[b];
                     return a < b;
                   });
}

double ImportanceTable::entropy(BlockId id) const {
  VIZ_REQUIRE(id < entropy_bits_.size(), "block id out of range");
  return entropy_bits_[id];
}

std::vector<BlockId> ImportanceTable::top_k(usize k) const {
  k = std::min(k, ranked_.size());
  return {ranked_.begin(), ranked_.begin() + static_cast<std::ptrdiff_t>(k)};
}

std::vector<BlockId> ImportanceTable::above_threshold(double sigma_bits) const {
  std::vector<BlockId> out;
  for (BlockId id : ranked_) {
    if (entropy_bits_[id] > sigma_bits) {
      out.push_back(id);
    } else {
      break;  // ranked descending
    }
  }
  return out;
}

double ImportanceTable::threshold_for_fraction(double fraction) const {
  VIZ_REQUIRE(fraction >= 0.0 && fraction <= 1.0, "fraction out of [0,1]");
  if (ranked_.empty()) return -1.0;
  if (fraction <= 0.0) return entropy_bits_[ranked_.front()];  // nothing above
  if (fraction >= 1.0) return -1.0;                            // everything above
  auto cutoff = static_cast<usize>(fraction * static_cast<double>(ranked_.size()));
  cutoff = std::min(cutoff, ranked_.size() - 1);
  // Sigma just below the cutoff block's entropy keeps ~fraction blocks above.
  return entropy_bits_[ranked_[cutoff]];
}

double ImportanceTable::min_entropy() const {
  return ranked_.empty() ? 0.0 : entropy_bits_[ranked_.back()];
}

double ImportanceTable::max_entropy() const {
  return ranked_.empty() ? 0.0 : entropy_bits_[ranked_.front()];
}

double ImportanceTable::mean_entropy() const {
  if (entropy_bits_.empty()) return 0.0;
  double sum = 0.0;
  for (double e : entropy_bits_) sum += e;
  return sum / static_cast<double>(entropy_bits_.size());
}

void ImportanceTable::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open importance table for writing: " + path);
  u64 n = entropy_bits_.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(entropy_bits_.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
  if (!out) throw IoError("importance table write failed: " + path);
}

usize preload_ranked(const ImportanceTable& importance, double sigma_bits,
                     u64 budget_bytes,
                     const std::function<u64(BlockId)>& bytes_of,
                     const std::function<void(BlockId)>& preload) {
  const std::vector<BlockId>& ranked = importance.ranked();
  // Suffix minima of the ranked blocks' sizes: once the budget drops below
  // the smallest block still ahead, no candidate can fit and the scan stops
  // instead of walking the rest of the ranking doing entropy lookups.
  std::vector<u64> min_bytes_ahead(ranked.size() + 1,
                                   std::numeric_limits<u64>::max());
  for (usize i = ranked.size(); i-- > 0;) {
    min_bytes_ahead[i] = std::min(min_bytes_ahead[i + 1], bytes_of(ranked[i]));
  }
  usize scanned = 0;
  for (usize i = 0; i < ranked.size(); ++i) {
    if (budget_bytes < min_bytes_ahead[i]) break;  // nothing ahead can fit
    ++scanned;
    const BlockId id = ranked[i];
    if (importance.entropy(id) <= sigma_bits) break;
    const u64 bytes = bytes_of(id);
    if (bytes > budget_bytes) continue;  // a smaller block may still fit
    preload(id);
    budget_bytes -= bytes;
  }
  return scanned;
}

std::vector<BlockId> rank_prefetch(
    const ImportanceTable& importance, double sigma_bits,
    std::span<const BlockId> predicted,
    const std::function<bool(BlockId)>& resident_fast,
    const std::function<bool(BlockId)>& keep) {
  std::vector<BlockId> candidates;
  candidates.reserve(predicted.size());
  for (BlockId id : predicted) {
    if (importance.entropy(id) <= sigma_bits) continue;
    if (keep && !keep(id)) continue;
    if (resident_fast(id)) continue;
    // analyze: allow(hot-path-alloc): per-call buffer, reserved to the
    // prediction size above; it must stay local — BlockService::step calls
    // this concurrently across sessions, so a shared scratch would race.
    candidates.push_back(id);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&importance](BlockId a, BlockId b) {
              return importance.entropy(a) > importance.entropy(b);
            });
  return candidates;
}

usize spend_prefetch(std::span<const BlockId> ordered, u64& budget_bytes,
                     const std::function<u64(BlockId)>& bytes_of,
                     const std::function<bool(BlockId)>& issue) {
  usize issued = 0;
  for (BlockId id : ordered) {
    const u64 bytes = bytes_of(id);
    if (bytes > budget_bytes) break;  // DRAM is full: the pass ends here
    if (!issue(id)) continue;         // shed or skipped: nothing spent
    budget_bytes -= bytes;
    ++issued;
  }
  return issued;
}

SamplingMask make_sampling_mask(const ImportanceTable& table,
                                double sigma_bits, u8 coarse_stride) {
  VIZ_REQUIRE(
      coarse_stride == 1 || coarse_stride == 2 || coarse_stride == 4,
      "adaptive sampling stride must be 1, 2, or 4");
  SamplingMask mask;
  mask.stride.resize(table.block_count());
  for (usize id = 0; id < mask.stride.size(); ++id) {
    mask.stride[id] =
        table.entropy(static_cast<BlockId>(id)) > sigma_bits ? u8{1}
                                                             : coarse_stride;
  }
  return mask;
}

ImportanceTable ImportanceTable::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open importance table: " + path);
  u64 n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  ImportanceTable table;
  table.entropy_bits_.resize(n);
  in.read(reinterpret_cast<char*>(table.entropy_bits_.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  if (!in) throw IoError("importance table read failed: " + path);
  table.build_ranking();
  return table;
}

}  // namespace vizcache
