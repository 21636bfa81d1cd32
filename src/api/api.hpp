// topocon::api -- the unified solver surface.
//
// Everything this library can compute about a message adversary is
// reachable through two types:
//
//   api::Query    WHAT to compute: a tagged union over one adversary
//                 grid point (FamilyPoint), pure serializable data.
//   api::Session  HOW it runs: owns the thread pool and the outcome
//                 history for its lifetime, and streams progress to an
//                 api::Observer.
//
// How each query variant maps onto the paper
// (Nowak, Schmid, Winkler, PODC 2019):
//
//   api::solvability(point, options)
//     The full characterization pipeline. For t = 1, 2, ...:
//       1. build the depth-t epsilon-approximation of the space of
//          admissible sequences, epsilon = 2^-t (Definition 6.2): the
//          finite prefix space deduplicated by process views, with
//          eps-chain connectivity as adjacency;
//       2. check whether the epsilon-components separate the valence
//          regions (Corollary 5.6; for compact adversaries separation at
//          some finite depth is equivalent to consensus solvability by
//          Theorem 6.6).
//     Verdicts: SOLVABLE with a certifying depth, NOT-SEPARATED at the
//     depth bound (impossibility evidence for compact adversaries;
//     expected-permanent for non-compact ones, Section 6.3), or
//     RESOURCE-LIMIT. When build_table is set, the SOLVABLE certificate
//     is constructive: the universal algorithm of Theorem 5.5.
//
//   api::depth_series(point, options)
//     Step 1 alone, depth by depth, continuing past separation: the
//     convergence curves of Section 6.2 / Figure 4 (how components
//     refine as epsilon shrinks), including the non-compact closure
//     curves of Section 6.3 that stay merged forever.
//
//   api::decision_table(point, options)
//     The constructive content of Theorem 5.5 as the artifact of
//     interest: run the solvability pipeline, extract the decision table
//     -- process p decides value v in round t as soon as every
//     admissible sequence compatible with its view lies in the decision
//     set PS(v) -- and record its shape: total (round, process, view)
//     entries, the worst-case decision round, and the per-round entry
//     counts (the integer form of the early-decision profile).
//
// Grid points are not limited to the hand-written families: a
// FamilyPoint whose family string is "composed:" + a canonical spec
// JSON (adversary/compose.hpp) names an algebraic composition --
// products, unions, and window constraints over compact families --
// and flows through every query variant, checkpoint, and renderer
// unchanged. Its label is the spec itself, so any result row can be
// replayed by pasting the label back into a point (the seeded fuzzer
// behind `topocon fuzz` and the fuzz-composed scenario relies on
// exactly this).
//
// One session, any mix of queries:
//
//   topocon::api::Session session;                 // owns the pool
//   auto outcomes = session.run("demo", {
//       topocon::api::solvability({"omission", 3, 1}, options),
//       topocon::api::depth_series({"lossy_link", 2, 0b111}, series),
//       topocon::api::decision_table({"lossy_link", 2, 0b011}),
//   });
//   session.write_json(std::cout);                 // topocon-sweep-v1
//
// Queries round-trip through JSON (query_to_json / query_from_json), so
// checkpoints carry the full job description and sweeps can be replayed
// from their artifacts alone. Results are bit-identical at every thread
// count and chunk size (SessionOptions::chunk_states) and independent
// of session history. An api::Observer streams job/depth/chunk progress
// while a run executes; observers can never change results.
#pragma once

#include "api/query.hpp"    // IWYU pragma: export
#include "api/session.hpp"  // IWYU pragma: export
