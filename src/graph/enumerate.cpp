#include "graph/enumerate.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/scc.hpp"

namespace topocon {

namespace {

// Enumerates off-diagonal edge subsets as bitmasks over n(n-1) positions;
// position index for (p, q), p != q, counts row-major skipping the diagonal.
Digraph graph_from_offdiag_mask(int n, std::uint32_t mask) {
  Digraph g(n);
  int bit = 0;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      if (p == q) continue;
      if ((mask >> bit) & 1u) g.add_edge(p, q);
      ++bit;
    }
  }
  return g;
}

// Edge masks are uint32 over n(n-1) positions, so n <= 6 is the hard
// representable limit; callers with a smaller tractable limit pass it.
void check_process_count(const char* what, int n, int max_n) {
  if (n < 1 || n > max_n) {
    throw std::invalid_argument(std::string(what) + ": n must be in [1, " +
                                std::to_string(max_n) + "] (got " +
                                std::to_string(n) + ")");
  }
}

}  // namespace

std::vector<Digraph> all_graphs(int n) {
  check_process_count("all_graphs", n, 4);
  const int positions = n * (n - 1);
  std::vector<Digraph> graphs;
  graphs.reserve(std::size_t{1} << positions);
  for (std::uint32_t mask = 0; mask < (1u << positions); ++mask) {
    graphs.push_back(graph_from_offdiag_mask(n, mask));
  }
  return graphs;
}

std::vector<Digraph> graphs_with_max_omissions(int n, int max_omissions) {
  check_process_count("graphs_with_max_omissions", n, 6);
  std::vector<Digraph> graphs;
  if (max_omissions < 0) return graphs;
  // Walks only the masks with at most max_omissions cleared bits, deciding
  // bits from the highest position down and trying "omitted" before
  // "present": the masks come out in ascending order -- the order of a
  // plain scan over every mask, which fixes the letter order -- without
  // visiting the 2^(n(n-1)) masks a scan needs (2^30 at n = 6).
  const auto walk = [&](const auto& self, int bit, std::uint32_t mask,
                        int omissions_left) -> void {
    if (bit < 0) {
      graphs.push_back(graph_from_offdiag_mask(n, mask));
      return;
    }
    if (omissions_left > 0) self(self, bit - 1, mask, omissions_left - 1);
    self(self, bit - 1, mask | (1u << bit), omissions_left);
  };
  walk(walk, n * (n - 1) - 1, 0, max_omissions);
  return graphs;
}

std::vector<Digraph> rooted_graphs(int n) {
  std::vector<Digraph> graphs;
  for (const Digraph& g : all_graphs(n)) {
    if (is_rooted(g)) graphs.push_back(g);
  }
  return graphs;
}

std::vector<Digraph> lossy_link_graphs() {
  return {
      Digraph::from_edges(2, {{1, 0}}),          // LEFT  "<-"
      Digraph::from_edges(2, {{0, 1}}),          // RIGHT "->"
      Digraph::from_edges(2, {{0, 1}, {1, 0}}),  // BOTH  "<->"
  };
}

const char* lossy_link_name(int index) {
  switch (index) {
    case 0: return "<-";
    case 1: return "->";
    case 2: return "<->";
    default: return "?";
  }
}

}  // namespace topocon
