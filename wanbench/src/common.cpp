#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "bench.h"

namespace wanbench {

using namespace wanplace;

void Outcome::operation(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double weight = rank - static_cast<double>(lo);
  return values[lo] + weight * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

bool same_bound(double a, double b, double tolerance) {
  return std::abs(a - b) <= tolerance * std::max(1.0, std::abs(b));
}

service::DaemonOptions daemon_options(const WorkloadSpec& spec,
                                      double tlat_ms,
                                      std::size_t parallelism) {
  service::DaemonOptions options;
  options.spec = mcperf::classes::general();
  options.tlat_ms = tlat_ms;
  options.bounds.parallelism = parallelism;
  // A join adds the node's create/store blocks to the LP for good (a leave
  // only fixes them to zero): churn's join grows the 3914-row model by ~480
  // rows, and the limit rises with it to keep the whole run on the simplex
  // path the workload is about.
  if (spec.feed == Feed::OnBatch) options.bounds.simplex_row_limit = 5000;
  return options;
}

core::SelectorOptions selector_options(std::size_t parallelism) {
  core::SelectorOptions options;
  options.bounds.solver = bounds::BoundOptions::Solver::Simplex;
  options.bounds.parallelism = parallelism;
  options.parallelism = parallelism;
  return options;
}

namespace {

std::string check_class(const bounds::ClassBound& bound) {
  if (!bound.achievable) return {};  // the class cannot reach the goal
  std::ostringstream problem;
  if (bound.status != lp::SolveStatus::Optimal)
    problem << bound.class_name << " ended "
            << static_cast<int>(bound.status) << "; ";
  if (bound.rounded_feasible &&
      bound.lower_bound > bound.rounded_cost +
                              1e-7 * std::max(1.0, bound.rounded_cost))
    problem << bound.class_name << " bound " << bound.lower_bound
            << " above rounded cost " << bound.rounded_cost << "; ";
  return problem.str();
}

}  // namespace

std::string check_selection(const core::SelectionReport& report) {
  std::string problems = check_class(report.general);
  if (!report.general.achievable) problems += "general class unachievable; ";
  for (const auto& bound : report.classes) problems += check_class(bound);
  return problems;
}

}  // namespace wanbench
