#include "exp/search_driver.hpp"

#include "exp/registry.hpp"
#include "search/objective.hpp"
#include "support/jsonl.hpp"

namespace aurv::exp {

using support::Json;

Json SearchRunResult::certificate(const SearchSpec& spec) const {
  Json json = Json::object();
  json.set("schema", Json(std::uint64_t{1}));
  json.set("kind", Json("search-certificate"));
  json.set("scenario", spec.to_json());
  json.set("search", bnb.to_json());
  return json;
}

SearchRunResult run_search(const SearchSpec& spec, const SearchOptions& options) {
  const std::unique_ptr<search::Objective> objective = search::make_objective(
      spec.objective, spec.space, search_algorithm_resolver(spec), spec.engine);

  search::BnbOptions bnb_options = options;
  bnb_options.fingerprint = support::fingerprint_hex(spec.fingerprint());
  bnb_options.dim_names = spec.space.dim_names;

  SearchRunResult result;
  result.bnb = search::run_bnb(spec.root_box(), *objective, spec.limits, bnb_options);
  return result;
}

}  // namespace aurv::exp
