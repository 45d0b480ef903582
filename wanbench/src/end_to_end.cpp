// Untraced run: drive the daemon as a `serve` user would and time the calls
// from outside; output checks run between calls, outside the timed region.
#include <sys/resource.h>

#include <algorithm>
#include <sstream>

#include "bench.h"
#include "service/audit.h"
#include "util/stopwatch.h"

namespace wanbench {

using namespace wanplace;

namespace {

/// Set-up repeats at least kSetupMinReps times and until kSetupMinSeconds
/// are spent (at most kSetupMaxReps), so a fast set-up still gets a steady
/// median.
constexpr std::size_t kSetupMinReps = 5;
constexpr std::size_t kSetupMaxReps = 200;
constexpr double kSetupMinSeconds = 1.0;
/// Cold starts and selector runs are spread over the stream (one every
/// kStartEvery / kSelectEvery calls), so a few seconds of interference from
/// the host cannot hit every sample of a run.
constexpr std::size_t kStartReps = 9;  // the stream's own start included
constexpr std::size_t kStartEvery = 11;
constexpr std::size_t kSelectReps = 2;
constexpr std::size_t kSelectEvery = 50;
/// Calls a run makes at least, so ten or more samples lie beyond p90.
constexpr std::size_t kMinCalls = 100;
/// Call time after which a run stops even short of kMinCalls (at least
/// three times --seconds), so a slow host still ends within its limit.
constexpr double kSlowHostSeconds = 100;
/// A cold compute_bound re-derives the daemon's bound every this many
/// calls and after the last one.
constexpr std::size_t kColdCheckEvery = 50;
/// rounding_gap averages the first this many feasible candidates, so it
/// does not depend on how many calls fit the time budget.
constexpr std::size_t kGapCandidates = 100;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Checks of one daemon outcome that need no re-solve.
std::string check_outcome(const service::EventOutcome& out, bool malformed,
                          const service::PlacementDaemon& daemon,
                          const mcperf::ClassSpec& spec) {
  std::ostringstream problem;
  if (out.rejected != malformed)
    problem << (malformed ? "malformed call accepted" : "valid call rejected: ")
            << out.error << "; ";
  if (out.rejected) return problem.str();
  if (out.status != lp::SolveStatus::Optimal)
    problem << "solve ended " << static_cast<int>(out.status) << "; ";
  if (out.published &&
      !service::audit_incumbent(daemon.instance(), spec, daemon.plan())
           .feasible())
    problem << "published plan fails its re-audit; ";
  return problem.str();
}

/// A cold rebuild + solve of the daemon's current instance must reach the
/// bound the daemon reported for it: to 1e-7 on the exact simplex path. Above
/// simplex_row_limit both bounds are PDHG certificates, which stop at a
/// relative gap of PdhgOptions::tolerance (1e-4). The delta-patched LP lays
/// out appended rows and columns differently from a rebuild (4198 vs 4191
/// rows after 100 wide-drift events), so PDHG takes a different path on it
/// and the two certificates agree only to that tolerance (seen 1.2e-7
/// apart); the check uses it.
std::string cold_check(const service::PlacementDaemon& daemon,
                       const service::DaemonOptions& options,
                       double daemon_bound) {
  const auto cold =
      bounds::compute_bound(daemon.instance(), options.spec, options.bounds);
  const bool exact = cold.lp_rows <= options.bounds.simplex_row_limit;
  std::ostringstream problem;
  if (cold.status != lp::SolveStatus::Optimal)
    problem << "cold re-solve ended " << static_cast<int>(cold.status) << "; ";
  if (!same_bound(daemon_bound, cold.lower_bound,
                  exact ? 1e-7 : options.bounds.pdhg.tolerance)) {
    problem.precision(12);
    problem << "daemon bound " << daemon_bound << " vs cold "
            << cold.lower_bound << "; ";
  }
  return problem.str();
}

}  // namespace

Outcome run_end_to_end(const RunConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  Outcome result;

  std::vector<double> setup_s;
  double setup_total_s = 0;
  Inputs inputs;
  while (setup_s.size() < kSetupMinReps ||
         (setup_total_s < kSetupMinSeconds && setup_s.size() < kSetupMaxReps)) {
    Stopwatch watch;
    inputs = make_inputs(spec, config.seed);
    setup_s.push_back(watch.elapsed_seconds());
    setup_total_s += setup_s.back();
  }
  const auto options =
      daemon_options(spec, inputs.tlat_ms, config.parallelism);

  // Cold start of a daemon on the workload's instance.
  std::vector<double> start_s;
  const auto cold_start = [&](service::PlacementDaemon& daemon) {
    Stopwatch watch;
    const auto out = daemon.start();
    start_s.push_back(watch.elapsed_seconds());
    std::string problem = check_outcome(out, false, daemon, options.spec);
    if (!out.published) problem += "start published no plan; ";
    result.operation(problem.empty(), "start: " + problem);
    return out;
  };
  // The selector over the six default classes.
  std::vector<double> select_s;
  const core::HeuristicSelector selector(selector_options(config.parallelism));
  const mcperf::Instance select_input = selector_instance();
  const auto select = [&] {
    Stopwatch watch;
    const auto report = selector.select(select_input);
    select_s.push_back(watch.elapsed_seconds());
    const std::string problem = check_selection(report);
    result.operation(problem.empty(), "select: " + problem);
  };

  std::vector<double> gaps;
  service::PlacementDaemon daemon(inputs.instance, options);
  {
    const auto out = cold_start(daemon);
    if (out.candidate_feasible)
      gaps.push_back((out.candidate_cost - out.lower_bound) /
                     std::max(out.lower_bound, 1.0));
  }

  // The closed loop: one client, the next call only after the previous one
  // returned. The budget counts call time only, so checks do not shorten it.
  std::vector<double> call_s;
  double busy_s = 0;
  std::size_t events = 0;
  std::size_t pending_cold_check = 0;  // calls since the last cold check
  const auto done = [&] {
    return (busy_s >= config.seconds && call_s.size() >= kMinCalls) ||
           busy_s >= std::max(3 * config.seconds, kSlowHostSeconds);
  };
  for (std::size_t c = 0; c < inputs.calls.size() && !done(); ++c) {
    const Call& call = inputs.calls[c];
    Stopwatch watch;
    const auto out = spec.feed == Feed::OnBatch
                         ? daemon.on_batch(call.events)
                         : daemon.on_event(call.events.front());
    const double seconds = watch.elapsed_seconds();
    call_s.push_back(seconds);
    busy_s += seconds;
    events += call.events.size();

    std::string problem =
        check_outcome(out, call.malformed, daemon, options.spec);
    if (!out.rejected) {
      ++pending_cold_check;
      if (pending_cold_check >= kColdCheckEvery || done() ||
          c + 1 == inputs.calls.size()) {
        problem += cold_check(daemon, options, out.lower_bound);
        pending_cold_check = 0;
      }
      if (out.candidate_feasible && gaps.size() < kGapCandidates)
        gaps.push_back((out.candidate_cost - out.lower_bound) /
                       std::max(out.lower_bound, 1.0));
    }
    result.operation(problem.empty(),
                     "call " + std::to_string(c + 1) + ": " + problem);

    if (call_s.size() % kStartEvery == 0 && start_s.size() < kStartReps) {
      service::PlacementDaemon fresh(inputs.instance, options);
      cold_start(fresh);
    }
    if (call_s.size() % kSelectEvery == 0 && select_s.size() < kSelectReps)
      select();
  }
  while (start_s.size() < kStartReps) {  // a stream shorter than planned
    service::PlacementDaemon fresh(inputs.instance, options);
    cold_start(fresh);
  }
  while (select_s.size() < kSelectReps) select();
  if (pending_cold_check > 0) {
    // The loop ended on a rejected call: re-check the standing bound.
    const double bound = daemon.status().lower_bound;
    const std::string problem = cold_check(daemon, options, bound);
    result.operation(problem.empty(), "final cold check: " + problem);
  }

  const double p90 = quantile(call_s, 0.9);
  std::size_t beyond = 0;
  for (const double s : call_s) beyond += s > p90 ? 1 : 0;
  result.notes.push_back("calls " + std::to_string(call_s.size()) +
                         " (events " + std::to_string(events) +
                         "), samples beyond event_p90_s " +
                         std::to_string(beyond));

  result.add("setup_s", median(setup_s), "s");
  result.add("cold_start_s", median(start_s), "s");
  result.add("event_p50_s", median(call_s), "s");
  result.add("event_p90_s", p90, "s");
  result.add("events_per_s", static_cast<double>(events) / busy_s, "1/s");
  result.add("select_s", median(select_s), "s");
  result.add("rounding_gap", mean(gaps), "ratio");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace wanbench
