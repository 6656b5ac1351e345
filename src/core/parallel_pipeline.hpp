#pragma once

#include "core/partitioner.hpp"
#include "core/pipeline.hpp"

namespace vizcache {

/// Per-worker aggregate of a parallel run.
struct WorkerStats {
  u64 blocks_fetched = 0;
  SimSeconds io_time = 0.0;
  SimSeconds prefetch_time = 0.0;
  double entropy_load = 0.0;  ///< summed entropy of demand-fetched blocks
};

/// Whole-run result of a parallel exploration. Its RunTotals sum the
/// per-step makespans (a step's io and prefetch time are its slowest
/// worker's).
struct ParallelRunResult : RunTotals {
  std::vector<StepResult> steps;
  std::vector<WorkerStats> workers;
  StepTimeline timeline;          ///< per-worker spans on the simulated clock
  MetricsSnapshot metrics;        ///< registry snapshot taken at run end
  double fast_miss_rate = 0.0;

  /// Ratio of the summed single-worker work to the makespan-time — the
  /// effective parallel speedup achieved by the partitioning.
  double fetch_speedup = 1.0;
};

/// Parallel fetch/render simulation (the paper's future work, Section VI):
/// N workers each own a partition of the blocks, hold their own slice of
/// the memory hierarchy (capacity split evenly), and fetch/render their
/// share of every view concurrently. A step's I/O time is the *makespan* —
/// the slowest worker — so balance of the per-view working set across
/// workers is what determines parallel efficiency.
///
/// Thread-safety: run() is a deterministic discrete-event simulation driven
/// from the calling thread; per-worker state (hierarchies_) is sharded by
/// worker index so a future real-thread execution of the fetch loop needs no
/// locking beyond a join barrier per step. Concurrent run() calls on one
/// instance are not supported (hierarchies_ is reset per run).
class ParallelPipeline {
 public:
  /// The app-aware variant needs `table` + `importance` (as VizPipeline).
  ParallelPipeline(const BlockGrid& grid, Partition partition,
                   PipelineConfig config, double cache_ratio,
                   const VisibilityTable* table = nullptr,
                   const ImportanceTable* importance = nullptr);

  ParallelRunResult run(const CameraPath& path);

  usize worker_count() const { return partition_.worker_count(); }

  /// Worker `w`'s slice of the hierarchy (tests inspect per-worker caches).
  MemoryHierarchy& worker_hierarchy(usize w);

  /// The pipeline's metric registry. Every worker hierarchy binds to it
  /// under the same prefix, so counters aggregate across workers; reset at
  /// the start of every run(); ParallelRunResult::metrics is its end-of-run
  /// snapshot.
  MetricsRegistry& metrics() { return *metrics_; }

 private:
  const BlockGrid& grid_;
  Partition partition_;
  PipelineConfig config_;
  const ImportanceTable* importance_;
  const VisibilityTable* table_;
  BlockBoundsIndex bounds_;
  std::vector<MemoryHierarchy> hierarchies_;  ///< one per worker
  /// Heap-owned for movability (see VizPipeline::metrics_).
  std::unique_ptr<MetricsRegistry> metrics_;
};

}  // namespace vizcache
