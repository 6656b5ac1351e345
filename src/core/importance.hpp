#pragma once

#include <functional>
#include <string>
#include <vector>

#include "render/sampling_mask.hpp"
#include "util/thread_pool.hpp"
#include "volume/block_metadata.hpp"
#include "volume/block_store.hpp"

namespace vizcache {

/// T_important (paper Section IV-C): per-block Shannon entropy over a
/// binning of the dataset's global value range, plus the descending-entropy
/// ranking used for preloading and prediction trimming. High-entropy blocks
/// carry the scientifically interesting structure; near-constant ambient
/// blocks score ~0.
class ImportanceTable {
 public:
  /// Per-block histogram entropies of (var, timestep), with `bins` equal
  /// bins over the variable's global value range. The range comes from a
  /// BlockMetadataTable scan of variables 0..var, then one more pass reads
  /// every block for its histogram. Both passes chunk across `pool` when one is given (per-block
  /// results in preallocated slots, serial reductions — the table is
  /// identical regardless of pool size); `store.read_block` must then be
  /// const-thread-safe, which every BlockStore in the repo is.
  static ImportanceTable build(const BlockStore& store, usize bins = 256,
                               usize var = 0, usize timestep = 0,
                               ThreadPool* pool = nullptr);

  /// As above, with the global range taken from `metadata`, which must hold
  /// `var` of the same store at the same `timestep`: each block is read once
  /// here instead of twice.
  static ImportanceTable build(const BlockStore& store,
                               const BlockMetadataTable& metadata,
                               usize bins = 256, usize var = 0,
                               usize timestep = 0, ThreadPool* pool = nullptr);

  /// Alternative metric: mean gradient magnitude per block (central
  /// differences inside the brick). High-gradient blocks carry surfaces and
  /// fronts; used by the importance-metric ablation to probe the paper's
  /// choice of Shannon entropy. Scores land in the same table type so every
  /// consumer (preload, trimming, prefetch filter) works unchanged.
  /// Chunks across `pool` like build().
  static ImportanceTable build_gradient(const BlockStore& store,
                                        usize var = 0, usize timestep = 0,
                                        ThreadPool* pool = nullptr);

  /// Degenerate baseline: a deterministic pseudo-random ranking (scores in
  /// (0, 1)). Importance-blind control for ablations.
  static ImportanceTable build_random(usize block_count, u64 seed = 1);

  /// Table with explicitly given per-block scores (scores[id] = entropy of
  /// block id, in bits). For tests and ablations that need a handcrafted
  /// ranking without scanning a dataset.
  static ImportanceTable from_scores(std::vector<double> scores);

  usize block_count() const { return entropy_bits_.size(); }

  /// Entropy of one block in bits.
  double entropy(BlockId id) const;

  /// Block ids sorted by descending entropy (ties by ascending id).
  const std::vector<BlockId>& ranked() const { return ranked_; }

  /// The `k` highest-entropy blocks.
  std::vector<BlockId> top_k(usize k) const;

  /// All blocks with entropy strictly above `sigma_bits`.
  std::vector<BlockId> above_threshold(double sigma_bits) const;

  /// Threshold sigma such that about `fraction` of blocks lie above it
  /// (fraction in [0, 1]; 0 keeps everything with sigma = -inf sentinel -1).
  double threshold_for_fraction(double fraction) const;

  double min_entropy() const;
  double max_entropy() const;
  double mean_entropy() const;

  /// Binary serialization for reuse across runs (the paper computes the
  /// table once as pre-processing).
  void save(const std::string& path) const;
  static ImportanceTable load(const std::string& path);

 private:
  std::vector<double> entropy_bits_;
  std::vector<BlockId> ranked_;

  void build_ranking();
};

/// Algorithm 1 line 7's importance preload: walk `importance.ranked()` most
/// important first and call `preload(id)` for every block with entropy above
/// `sigma_bits` that fits what is left of `budget_bytes`. A block too large
/// for the remaining budget is skipped, not a stop: a smaller, less
/// important block may still fit. The walk ends at the first block at or
/// below sigma, or once no block ahead is small enough for the budget.
/// Returns the number of ranked entries examined.
usize preload_ranked(const ImportanceTable& importance, double sigma_bits,
                     u64 budget_bytes,
                     const std::function<u64(BlockId)>& bytes_of,
                     const std::function<void(BlockId)>& preload);

/// Importance-masked adaptive sampling wiring: blocks whose entropy exceeds
/// `sigma_bits` keep the full sampling rate (stride 1), everything else is
/// integrated at `coarse_stride` (2 or 4 — the packet ray-caster's exact
/// opacity-rescale strides; 1 yields a no-op mask). Pair with
/// `table.threshold_for_fraction(f)` to keep the top f of blocks at full
/// rate. Consumed by `raycast_packet` (render/raycaster.hpp).
SamplingMask make_sampling_mask(const ImportanceTable& table,
                                double sigma_bits, u8 coarse_stride = 4);

}  // namespace vizcache
