#include "bundle/generator.h"

#include "bundle/candidates.h"
#include "bundle/greedy_cover.h"
#include "bundle/grid_cover.h"
#include "bundle/sweep_cover.h"
#include "support/require.h"

namespace bc::bundle {

std::string_view to_string(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::kGrid:
      return "grid";
    case GeneratorKind::kGreedy:
      return "greedy";
    case GeneratorKind::kExact:
      return "exact";
    case GeneratorKind::kSweep:
      return "sweep";
  }
  return "unknown";
}

std::vector<Bundle> generate_bundles(const net::Deployment& deployment,
                                     double r,
                                     const GeneratorOptions& options,
                                     support::BudgetMeter* meter) {
  support::require(r > 0.0, "bundle generation radius must be positive");
  switch (options.kind) {
    case GeneratorKind::kGrid:
      return grid_bundles(deployment, r, meter);
    case GeneratorKind::kGreedy:
      return greedy_bundles(deployment, r, meter);
    case GeneratorKind::kExact: {
      const std::vector<Bundle> candidates =
          enumerate_candidates(deployment, r, meter);
      auto exact =
          exact_cover_anytime(deployment, candidates, options.exact, meter);
      if (exact.has_value()) return std::move(exact.value().bundles);
      // Budget already exhausted on entry: the cheap greedy cover (with
      // singleton completion) still yields a feasible partition.
      return greedy_cover(deployment, candidates, meter);
    }
    case GeneratorKind::kSweep:
      return sweep_bundles(deployment, r, tsp::SolverOptions{}, meter);
  }
  support::ensure(false, "unreachable generator kind");
  return {};
}

}  // namespace bc::bundle
