#include "service/block_service.hpp"

#include <algorithm>
#include <limits>

#include "core/pipeline.hpp"
#include "util/error.hpp"

namespace vizcache {

BlockService::BlockService(const BlockGrid& grid, MemoryHierarchy hierarchy,
                           ServiceConfig config, const VisibilityTable* table,
                           const ImportanceTable* importance)
    : grid_(grid),
      config_(config),
      table_(table),
      importance_(importance),
      bounds_(grid),
      shared_(std::move(hierarchy), config.leader_pace_seconds),
      timeline_(kTimelineCapacity) {
  if (config_.app_aware) {
    VIZ_REQUIRE(table_ != nullptr, "app-aware service needs T_visible");
    VIZ_REQUIRE(importance_ != nullptr, "app-aware service needs T_important");
  }
  shared_.bind_metrics(&metrics_, "service.hierarchy");
  ins_.opened = &metrics_.counter("service.sessions.opened");
  ins_.closed = &metrics_.counter("service.sessions.closed");
  ins_.rejected = &metrics_.counter("service.sessions.rejected");
  ins_.active = &metrics_.gauge("service.sessions.active");
  ins_.steps = &metrics_.counter("service.steps");
  ins_.demand_requests = &metrics_.counter("service.demand.requests");
  ins_.coalesced_hits = &metrics_.counter("service.demand.coalesced_hits");
  ins_.fast_misses = &metrics_.counter("service.demand.fast_misses");
  ins_.prefetched = &metrics_.counter("service.prefetch.blocks");
  ins_.prefetch_shed = &metrics_.counter("service.prefetch.shed");
  ins_.prefetch_suppressed = &metrics_.counter("service.prefetch.suppressed");
  ins_.step_seconds = &metrics_.histogram("service.step.sim_seconds",
                                          latency_seconds_bounds());

  // Service-wide analogue of Algorithm 1 line 7: warm the SHARED fast level
  // once, most important blocks first, before any session arrives.
  if (config_.app_aware && config_.preload_important) {
    MetricCounter& scanned = metrics_.counter("service.preload.scanned");
    MetricCounter& preloaded = metrics_.counter("service.preload.blocks");
    scanned.inc(preload_ranked(
        *importance_, config_.sigma_bits, shared_.fast_capacity_bytes(),
        [this](BlockId id) { return grid_.block_bytes(id); },
        [&](BlockId id) {
          shared_.preload(id);
          preloaded.inc();
        }));
  }
}

std::optional<SessionId> BlockService::open_session() {
  MutexLock lock(mutex_);
  if (sessions_.size() >= config_.max_sessions) {
    ins_.rejected->inc();
    return std::nullopt;
  }
  // After next_session_ (u32) wraps, the next candidate id can belong to a
  // still-open long-lived session; aliasing it would hand two viewers one
  // SessionState. Skip live ids — the map holds at most max_sessions
  // entries, so this terminates long before the counter laps itself.
  SessionId id = next_session_++;
  while (sessions_.find(id) != sessions_.end()) id = next_session_++;
  SessionState state;
  state.summary.id = id;
  const bool inserted = sessions_.emplace(id, state).second;
  VIZ_CHECK(inserted, "open_session raced an id it just probed as free");
  ins_.opened->inc();
  ins_.active->set(static_cast<double>(sessions_.size()));
  return id;
}

void BlockService::set_next_session_id(SessionId next) {
  MutexLock lock(mutex_);
  next_session_ = next;
}

BlockService::BlockFetch BlockService::fetch_block(SessionId session,
                                                   BlockId id) {
  VIZ_REQUIRE(id < grid_.block_count(), "fetch_block: block id out of range");
  {
    MutexLock lock(mutex_);
    VIZ_REQUIRE(sessions_.find(session) != sessions_.end(),
                "fetch_block on a closed or unknown session");
  }
  // Epoch-bracketed exactly like a step so the shared eviction protection
  // covers the read; no service lock is held across the hierarchy call.
  const u64 epoch = shared_.begin_step();
  BlockFetch result;
  result.fetch = shared_.fetch(id, epoch);
  result.bytes = grid_.block_bytes(id);
  shared_.end_step(epoch);

  ins_.demand_requests->inc();
  if (result.fetch.coalesced) ins_.coalesced_hits->inc();
  if (!result.fetch.fast_hit) ins_.fast_misses->inc();
  {
    MutexLock lock(mutex_);
    auto it = sessions_.find(session);
    VIZ_REQUIRE(it != sessions_.end(), "session closed during fetch_block");
    SessionSummary& sum = it->second.summary;
    sum.demand_requests += 1;
    if (result.fetch.coalesced) sum.coalesced_hits += 1;
    if (!result.fetch.fast_hit) sum.fast_misses += 1;
  }
  return result;
}

SessionStepResult BlockService::step(SessionId session, const Camera& camera) {
  SessionStepResult sr;
  u64 prefetch_share = std::numeric_limits<u64>::max();
  {
    MutexLock lock(mutex_);
    auto it = sessions_.find(session);
    VIZ_REQUIRE(it != sessions_.end(), "step on a closed or unknown session");
    sr.step = ++it->second.summary.steps;
    // Fairness: the aggregate prefetch budget is split evenly over the
    // sessions active RIGHT NOW, so one session's appetite cannot consume
    // another's share. Recomputed every step as sessions come and go.
    if (config_.aggregate_prefetch_budget_bytes > 0) {
      prefetch_share = config_.aggregate_prefetch_budget_bytes /
                       std::max<usize>(usize{1}, sessions_.size());
    }
  }

  // From here to the final bookkeeping block the service holds NO lock of
  // its own — every shared_ call manages the hierarchy leaf lock internally,
  // and the coalescer may block this thread while other sessions proceed.
  const u64 epoch = shared_.begin_step();

  const std::vector<BlockId> visible = bounds_.visible_blocks(camera);
  sr.visible_blocks = visible.size();
  for (BlockId id : visible) {
    const SharedHierarchy::FetchResult fr = shared_.fetch(id, epoch);
    sr.io_time += fr.seconds;
    if (fr.coalesced) ++sr.coalesced_hits;
    if (!fr.fast_hit) ++sr.fast_misses;
  }

  sr.render_time = config_.render_model.frame_time(visible.size());

  if (config_.app_aware) {
    sr.lookup_time = table_->lookup_time(config_.lookup_cost);

    u64 visible_bytes = 0;
    for (BlockId id : visible) visible_bytes += grid_.block_bytes(id);
    const u64 capacity = shared_.fast_capacity_bytes();
    u64 dram_budget = capacity > visible_bytes ? capacity - visible_bytes : 0;

    const std::vector<BlockId> candidates = rank_prefetch(
        *importance_, config_.sigma_bits, table_->query(camera.position()),
        [this](BlockId id) { return shared_.resident_fast(id); });
    // DRAM-budget exhaustion ends the pass (Algorithm 1's rule, inside
    // spend_prefetch); a shed or suppressed block spends none of it.
    sr.prefetched = spend_prefetch(
        candidates, dram_budget,
        [this](BlockId id) { return grid_.block_bytes(id); },
        [&](BlockId id) {
          // Blowing the session's fair share only sheds THIS block: a
          // smaller candidate may still fit the share, and demand fetches
          // are untouched either way.
          const u64 bytes = grid_.block_bytes(id);
          if (bytes > prefetch_share) {
            ++sr.prefetch_shed;
            return false;
          }
          const SharedHierarchy::PrefetchResult pr =
              shared_.prefetch(id, epoch);
          if (pr.suppressed) {
            ++sr.prefetch_suppressed;
            return false;  // in flight elsewhere: budget not consumed
          }
          prefetch_share -= bytes;
          sr.prefetch_time += pr.seconds;
          return true;
        });
  }
  sr.total_time = overlapped_step_time(sr.io_time, sr.render_time,
                                       sr.lookup_time, sr.prefetch_time);

  shared_.end_step(epoch);

  ins_.steps->inc();
  ins_.demand_requests->inc(sr.visible_blocks);
  ins_.coalesced_hits->inc(sr.coalesced_hits);
  ins_.fast_misses->inc(sr.fast_misses);
  ins_.prefetched->inc(sr.prefetched);
  ins_.prefetch_shed->inc(sr.prefetch_shed);
  ins_.prefetch_suppressed->inc(sr.prefetch_suppressed);
  ins_.step_seconds->observe(sr.total_time);

  {
    MutexLock lock(mutex_);
    auto it = sessions_.find(session);
    VIZ_REQUIRE(it != sessions_.end(), "session closed during its own step");
    SessionState& state = it->second;
    SessionSummary& sum = state.summary;
    sum.demand_requests += sr.visible_blocks;
    sum.fast_misses += sr.fast_misses;
    sum.coalesced_hits += sr.coalesced_hits;
    sum.prefetched += sr.prefetched;
    sum.prefetch_shed += sr.prefetch_shed;
    sum.prefetch_suppressed += sr.prefetch_suppressed;
    sum.sim_time += sr.total_time;

    // Per-session timeline lane (worker == SessionId) on the session's own
    // simulated clock, in VizPipeline::run's span layout.
    record_step_spans(timeline_, sr, static_cast<u32>(session), state.clock,
                      config_.app_aware);
    state.clock += sr.total_time;
  }
  return sr;
}

SessionSummary BlockService::close_session(SessionId session) {
  MutexLock lock(mutex_);
  auto it = sessions_.find(session);
  VIZ_REQUIRE(it != sessions_.end(), "close of a closed or unknown session");
  const SessionSummary summary = it->second.summary;
  sessions_.erase(it);
  ins_.closed->inc();
  ins_.active->set(static_cast<double>(sessions_.size()));
  return summary;
}

usize BlockService::active_sessions() const {
  MutexLock lock(mutex_);
  return sessions_.size();
}

StepTimeline BlockService::timeline() const {
  MutexLock lock(mutex_);
  return timeline_;
}

}  // namespace vizcache
