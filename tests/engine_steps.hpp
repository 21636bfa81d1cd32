// Drives one FrontierEngine level by level on the calling thread, the way
// analyze_depth drives each root's engine minus the budget and the
// thread pool: partition, expand every chunk, merge, commit.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/frontier.hpp"

namespace topocon::test_support {

/// Expands the next level with `chunk_states` per chunk (0 = one chunk).
/// Returns false, and marks the engine truncated, when the merged level
/// overflows max_states.
inline bool advance_level(FrontierEngine& engine,
                          std::size_t chunk_states = 0) {
  std::vector<PendingFrontier> expansions;
  for (const FrontierChunk& chunk : engine.partition(chunk_states)) {
    expansions.push_back(engine.expand(chunk));
  }
  PendingFrontier level = engine.merge(std::move(expansions));
  if (level.overflow) {
    engine.mark_truncated();
    return false;
  }
  engine.commit(std::move(level));
  return true;
}

}  // namespace topocon::test_support
