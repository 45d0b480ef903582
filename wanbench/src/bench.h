// Shared pieces of the benchmark binary: run configuration, the result
// record every run prints, and the solver settings all runs use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bounds/engine.h"
#include "core/selector.h"
#include "inputs.h"
#include "service/daemon.h"

namespace wanbench {

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  /// Worker threads of every solve and of the selector fan-out.
  std::size_t parallelism = 1;
  /// Directory the traced run writes its span file into.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: metrics plus the operation/check tally.
struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// First few check failures, for stderr.
  std::vector<std::string> failures;
  /// Human-readable notes printed above the result line.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count one operation; `ok` is the AND of all its output checks.
  void operation(bool ok, const std::string& what);
};

/// Linear-interpolated quantile (p in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Two bounds agree to `tolerance` (default 1e-7), relative to max(1, |b|).
bool same_bound(double a, double b, double tolerance = 1e-7);

/// Daemon settings shared by both run modes.
wanplace::service::DaemonOptions daemon_options(const WorkloadSpec& spec,
                                                double tlat_ms,
                                                std::size_t parallelism);

/// Selector settings: the six default classes (general first), exact
/// simplex for every class so each solve can end Optimal without a time
/// limit, fan-out over `parallelism` workers.
wanplace::core::SelectorOptions selector_options(std::size_t parallelism);

/// Output checks of one selector report: every achievable class solved to
/// Optimal and its LP bound is at most its rounded cost. Empty when fine.
std::string check_selection(const wanplace::core::SelectionReport& report);

/// Untraced run: the end-to-end metrics.
Outcome run_end_to_end(const RunConfig& config);

/// Traced run: the same stream through the layers' public functions, with
/// spans around each call; the per-layer metrics.
Outcome run_traced(const RunConfig& config);

}  // namespace wanbench
