// Executes a SearchSpec: resolves the algorithm and the objective from the
// registries, roots the canonical refinement tree at the spec's box and
// drives search::run_bnb, wrapping the outcome into the search-certificate
// artifact.
//
// The certificate depends only on the spec: it is byte-identical at any
// --max-shards value and byte-identical whether the search ran in one go
// or across checkpoint/resume cycles — the same guarantee the campaign
// runner gives for summaries, extended to branch-and-bound.
#pragma once

#include "exp/scenario.hpp"
#include "search/bnb.hpp"
#include "support/json.hpp"

namespace aurv::exp {

/// The search driver's options are the branch-and-bound's own; run_search
/// fills in `fingerprint` and `dim_names` from the spec.
using SearchOptions = search::BnbOptions;

struct SearchRunResult {
  search::BnbResult bnb;

  /// The certificate artifact:
  ///   { "schema": 1, "kind": "search-certificate",
  ///     "scenario": <spec>, "search": <incumbent/stats/frontier residual> }
  [[nodiscard]] support::Json certificate(const SearchSpec& spec) const;
};

/// Runs (or resumes) the search described by `spec`. Throws
/// std::invalid_argument for spec/option/checkpoint mismatches and
/// support::JsonError for unreadable artifacts.
[[nodiscard]] SearchRunResult run_search(const SearchSpec& spec,
                                         const SearchOptions& options = {});

}  // namespace aurv::exp
