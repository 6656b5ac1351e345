// Algorithm 1 line 22's prefetch plan, shared by every pipeline and the
// block service:
// rank_prefetch filters and orders the predicted blocks, spend_prefetch
// walks them against the DRAM budget.

#include <gtest/gtest.h>

#include <vector>

#include "core/importance.hpp"

namespace vizcache {
namespace {

/// Block id i has (i + 1) * 100 bytes.
u64 bytes_of(BlockId id) { return (static_cast<u64>(id) + 1) * 100; }

TEST(PrefetchPlan, RankKeepsImportantNonResidentKeptBlocksMostImportantFirst) {
  // Entropies: 0 is below sigma, 1 is resident, 4 fails `keep`.
  const ImportanceTable importance =
      ImportanceTable::from_scores({0.5, 9.0, 3.0, 7.0, 8.0, 5.0});
  const std::vector<BlockId> predicted{0, 1, 2, 3, 4, 5};
  const std::vector<BlockId> ranked = rank_prefetch(
      importance, 1.0, predicted, [](BlockId id) { return id == 1; },
      [](BlockId id) { return id != 4; });
  EXPECT_EQ(ranked, (std::vector<BlockId>{3, 5, 2}));
}

TEST(PrefetchPlan, OversizeCandidateEndsThePassEvenIfASmallerOneFollows) {
  // 300 B is issued, 500 B no longer fits the 250 B left, and 100 B, which
  // would fit, is never reached.
  const std::vector<BlockId> ordered{2, 4, 0};
  u64 budget = 550;
  std::vector<BlockId> issued;
  spend_prefetch(ordered, budget, bytes_of, [&](BlockId id) {
    issued.push_back(id);
    return true;
  });
  EXPECT_EQ(issued, (std::vector<BlockId>{2}));
}

TEST(PrefetchPlan, DeclinedIssueSpendsNothingAndThePassGoesOn) {
  // Block 2 (300 B) is shed by the caller; the 300 B it would have spent
  // still pay for block 1 (200 B) and block 0 (100 B).
  const std::vector<BlockId> ordered{2, 1, 0};
  u64 budget = 300;
  std::vector<BlockId> issued;
  spend_prefetch(ordered, budget, bytes_of, [&](BlockId id) {
    if (id == 2) return false;
    issued.push_back(id);
    return true;
  });
  EXPECT_EQ(issued, (std::vector<BlockId>{1, 0}));
}

TEST(PrefetchPlan, ZeroBudgetIssuesNothing) {
  const std::vector<BlockId> ordered{0, 1, 2};
  u64 budget = 0;
  usize calls = 0;
  spend_prefetch(ordered, budget, bytes_of, [&](BlockId) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace vizcache
