// Traced run: the daemon's stream driven a second time, call by call,
// through the layers' public functions in the daemon's order (validate ->
// patch -> achievability -> LP solve -> rounding -> audit -> policy), with
// a span around every call into a layer. The untraced daemon processes each
// call first; the layered replay must then reach the daemon's bound and
// publish decision exactly, so the per-layer times describe the same work
// the end-to-end metrics time.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "lp/lu.h"
#include "lp/pdhg.h"
#include "lp/simplex.h"
#include "mcperf/achievability.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "service/audit.h"
#include "service/delta.h"
#include "service/policy.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace wanbench {

using namespace wanplace;

namespace {

/// LU probes run after every this many replayed calls (and after start).
constexpr std::size_t kLuProbeEvery = 10;
/// The traced selector replay runs once; the daemon loop gets the rest of
/// the time budget.
constexpr double kLoopShare = 0.75;

// --- Spans ----------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::uint32_t thread = 0;
  double start_s = 0;
  double dur_s = 0;
  std::vector<std::pair<std::string, double>> attrs;
  std::vector<std::pair<std::string, std::string>> labels;
};

/// In-memory span store, written out when the run ends. Thread-safe: the
/// selector fan-out records from pool workers.
class SpanLog {
 public:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  std::uint64_t next_id() { return ++last_id_; }
  std::uint32_t thread_ordinal() {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto ordinal = static_cast<std::uint32_t>(threads_.size());
    return threads_.try_emplace(std::this_thread::get_id(), ordinal)
        .first->second;
  }
  void add(SpanRecord record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
  }

  /// validate_trace.py schema v2: meta line, then spans by start time.
  void write_jsonl(const std::string& path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::sort(records_.begin(), records_.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.start_s != b.start_s ? a.start_s < b.start_s
                                              : a.id < b.id;
              });
    std::ofstream out(path);
    WANPLACE_REQUIRE(out.good(), "cannot open span file " + path);
    using obs::detail::json_number;
    using obs::detail::json_string;
    out << "{\"type\":\"meta\",\"version\":2,\"spans\":" << records_.size()
        << ",\"samples\":0}\n";
    for (const auto& r : records_) {
      out << "{\"type\":\"span\",\"id\":" << r.id << ",\"parent\":" << r.parent
          << ",\"name\":" << json_string(r.name) << ",\"thread\":" << r.thread
          << ",\"start_s\":" << json_number(r.start_s)
          << ",\"dur_s\":" << json_number(r.dur_s) << ",\"attrs\":{";
      bool first = true;
      for (const auto& [key, value] : r.attrs) {
        out << (first ? "" : ",") << json_string(key) << ":"
            << json_number(value);
        first = false;
      }
      for (const auto& [key, value] : r.labels) {
        out << (first ? "" : ",") << json_string(key) << ":"
            << json_string(value);
        first = false;
      }
      out << "}}\n";
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> last_id_{0};
  std::mutex mutex_;  // guards records_ and threads_
  std::vector<SpanRecord> records_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// RAII span: stamps start on construction, records on destruction and
/// adds its duration to `*sink` when given.
class Span {
 public:
  Span(SpanLog& log, const char* name, std::uint64_t parent,
       double* sink = nullptr)
      : log_(log), sink_(sink) {
    record_.id = log.next_id();
    record_.parent = parent;
    record_.name = name;
    record_.thread = log.thread_ordinal();
    record_.start_s = log.now();
  }
  ~Span() {
    record_.dur_s = log_.now() - record_.start_s;
    if (sink_ != nullptr) *sink_ += record_.dur_s;
    log_.add(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }
  double elapsed() const { return log_.now() - record_.start_s; }
  void attr(const char* key, double value) {
    record_.attrs.emplace_back(key, value);
  }
  void label(const char* key, std::string value) {
    record_.labels.emplace_back(key, std::move(value));
  }

 private:
  SpanLog& log_;
  double* sink_;
  SpanRecord record_;
};

// --- The layered replay ---------------------------------------------------

/// Per-call seconds by layer (sums of the root's child spans).
struct CallTrace {
  double wall = 0;
  double validate = 0, patch = 0, achievability = 0, solve = 0, rounding = 0,
         audit = 0, policy = 0, other = 0;
  bool rejected = false;
  bool audited = false;
  double layers() const {
    return validate + patch + achievability + solve + rounding + audit +
           policy;
  }
};

/// Counts the per-layer ratios are built from.
struct Tally {
  std::size_t rejected_events = 0;
  std::size_t advances = 0, incremental = 0, rebuilds = 0;
  std::vector<double> simplex_s, pdhg_s;
  std::size_t simplex_pivots = 0, simplex_warm = 0, simplex_zero = 0,
              simplex_refactorizations = 0;
  std::size_t pdhg_iterations = 0;
  std::size_t roundings = 0, rounding_feasible = 0;
  std::size_t decisions = 0, publishes = 0;
  std::size_t mismatches = 0;
};

/// What the replay computed for one call, to compare with the daemon.
struct ReplayResult {
  bool rejected = false;
  lp::SolveStatus status = lp::SolveStatus::IterationLimit;
  double lower_bound = 0;
  bool candidate_feasible = false;
  double candidate_cost = 0;
  bool published = false;
};

/// The daemon's state, kept by the replay through public functions only.
class LayeredReplay {
 public:
  LayeredReplay(mcperf::Instance instance, service::DaemonOptions options,
                SpanLog& log, Tally& tally)
      : instance_(std::move(instance)),
        options_(std::move(options)),
        log_(log),
        tally_(tally) {}

  ReplayResult start(CallTrace& trace) {
    Span root(log_, "service.event", 0, &trace.wall);
    root.attr("event", 0);
    root.label("kind", "start");
    {
      Span span(log_, "patch.build_lp", root.id(), &trace.patch);
      state_.built = mcperf::build_lp(instance_, options_.spec);
    }
    return resolve_and_finish(root, trace, /*join=*/false);
  }

  ReplayResult on_event(const workload::Event& event, std::size_t index,
                        CallTrace& trace) {
    Span root(log_, "service.event", 0, &trace.wall);
    root.attr("event", static_cast<double>(index));
    root.label("kind", workload::event_kind(event));
    bool pre_supported = false;
    {
      Span span(log_, "patch.delta_supported", root.id(), &trace.patch);
      pre_supported = mcperf::delta_supported(instance_, options_.spec, event);
    }
    {
      Span span(log_, "validate.apply_delta", root.id(), &trace.validate);
      try {
        instance_.apply_delta(event, options_.tlat_ms);
      } catch (const InvalidArgument&) {
        trace.rejected = true;
      }
    }
    if (trace.rejected) {
      ++tally_.rejected_events;
      return {.rejected = true};
    }
    {
      Span span(log_, "patch.advance_model", root.id(), &trace.patch);
      note_advance(service::advance_model(instance_, options_.spec, event,
                                          state_, pre_supported));
    }
    return resolve_and_finish(
        root, trace, std::holds_alternative<workload::NodeJoinEvent>(event));
  }

  ReplayResult on_batch(const workload::EventBatch& batch, std::size_t index,
                        CallTrace& trace) {
    Span root(log_, "service.event", 0, &trace.wall);
    root.attr("event", static_cast<double>(index));
    root.attr("batch", static_cast<double>(batch.size()));
    root.label("kind", "batch[" + std::to_string(batch.size()) + "]");
    {
      // The daemon's atomic dry run: every event on a scratch copy first.
      Span span(log_, "validate.dry_run", root.id(), &trace.validate);
      mcperf::Instance scratch = instance_;
      try {
        for (const auto& event : batch)
          scratch.apply_delta(event, options_.tlat_ms);
      } catch (const InvalidArgument&) {
        trace.rejected = true;
      }
    }
    if (trace.rejected) {
      tally_.rejected_events += batch.size();
      return {.rejected = true};
    }
    for (const auto& event : batch) {
      bool pre_supported = false;
      {
        Span span(log_, "patch.delta_supported", root.id(), &trace.patch);
        pre_supported =
            mcperf::delta_supported(instance_, options_.spec, event);
      }
      {
        Span span(log_, "patch.apply_delta", root.id(), &trace.patch);
        instance_.apply_delta(event, options_.tlat_ms);
      }
      {
        Span span(log_, "patch.advance_model", root.id(), &trace.patch);
        note_advance(service::advance_model(instance_, options_.spec, event,
                                            state_, pre_supported));
      }
      if (incumbent_ &&
          std::holds_alternative<workload::NodeJoinEvent>(event)) {
        Span span(log_, "other.grow_plan", root.id(), &trace.other);
        incumbent_->grow_x(instance_.node_count());
      }
    }
    return resolve_and_finish(root, trace, /*join=*/false);
  }

  /// Time BasisLu::factorize on the all-slack basis and on the carried
  /// warm basis of the current model (either may be absent: 0 then).
  void probe_lu(std::vector<double>& slack_s, std::vector<double>& warm_s) {
    const lp::LpModel& model = state_.built.model;
    const std::size_t n = model.variable_count();
    const std::size_t m = model.row_count();
    if (m == 0) return;
    std::vector<std::vector<lp::BasisLu::Entry>> columns(m);
    for (std::size_t p = 0; p < m; ++p)
      columns[p].push_back({static_cast<std::uint32_t>(p), 1.0});
    const auto factorize = [&](const char* name, std::vector<double>& sink) {
      lp::BasisLu lu;
      bool ok = false;
      {
        Span span(log_, name, 0);
        span.attr("rows", static_cast<double>(m));
        Stopwatch watch;
        ok = lu.factorize(m, columns,
                          options_.bounds.simplex.lu_pivot_threshold,
                          lp::BasisLu::UpdateMode::ForrestTomlin);
        sink.push_back(watch.elapsed_seconds());
      }
      if (!ok) ++tally_.mismatches;  // a basis the solver used must factorize
    };
    factorize("lu.factorize_slack", slack_s);

    const lp::BasisSnapshot& basis = state_.basis;
    if (!basis.compatible(n, m)) return;
    std::vector<std::vector<lp::BasisLu::Entry>> structural(n);
    for (std::size_t r = 0; r < m; ++r) {
      const auto& row = model.row(r);
      for (std::size_t t = 0; t < row.cols.size(); ++t)
        if (row.coeffs[t] != 0)
          structural[row.cols[t]].push_back(
              {static_cast<std::uint32_t>(r), row.coeffs[t]});
    }
    for (std::size_t p = 0; p < m; ++p) {
      const std::uint32_t column = basis.basis[p];
      if (column < n)
        columns[p] = structural[column];
      else if (column != lp::BasisSnapshot::kArtificialBasic)
        columns[p] = {{static_cast<std::uint32_t>(column - n), 1.0}};
      else
        columns[p] = {{static_cast<std::uint32_t>(p), 1.0}};
    }
    factorize("lu.factorize_warm", warm_s);
  }

 private:
  void note_advance(bool incremental) {
    ++tally_.advances;
    if (incremental)
      ++tally_.incremental;
    else
      ++tally_.rebuilds;
  }

  /// bounds::compute_bound_built's pipeline on the carried model, then the
  /// daemon's finish(): state carry, audit, publish decision.
  ReplayResult resolve_and_finish(Span& root, CallTrace& trace, bool join) {
    ReplayResult result;
    const auto& spec = options_.spec;
    const auto& bound_options = options_.bounds;
    bool achievable = false;
    {
      Span span(log_, "achievability.max_achievable_qos", root.id(),
                &trace.achievability);
      const double tqos = std::get<mcperf::QosGoal>(instance_.goal).tqos;
      achievable =
          mcperf::max_achievable_qos(instance_, spec).achievable(tqos);
    }
    lp::LpSolution solution;
    bounds::RoundingResult rounding;
    if (achievable) {
      const auto& model = state_.built.model;
      const std::size_t rows = model.row_count();
      const bool use_simplex =
          bound_options.solver == bounds::BoundOptions::Solver::Simplex ||
          (bound_options.solver == bounds::BoundOptions::Solver::Auto &&
           rows <= bound_options.simplex_row_limit);
      if (use_simplex) {
        lp::SimplexOptions simplex = bound_options.simplex;
        simplex.parallelism = bound_options.parallelism;
        const bool warm = state_.basis.compatible(model.variable_count(), rows);
        if (warm) {
          simplex.warm_start = &state_.basis;
          simplex.method = lp::SimplexOptions::Method::Dual;
        }
        {
          Span span(log_, "lp.solve_simplex", root.id(), &trace.solve);
          span.attr("rows", static_cast<double>(rows));
          solution = lp::solve_simplex(model, simplex);
          span.attr("pivots", static_cast<double>(solution.iterations));
          tally_.simplex_s.push_back(span.elapsed());
        }
        tally_.simplex_pivots += solution.iterations;
        tally_.simplex_zero += solution.iterations == 0 ? 1 : 0;
        tally_.simplex_warm += warm ? 1 : 0;
        tally_.simplex_refactorizations += solution.refactorizations;
      } else {
        lp::PdhgOptions pdhg = bound_options.pdhg;
        if (pdhg.infeasibility_threshold == lp::kInfinity)
          pdhg.infeasibility_threshold = 2 * instance_.max_possible_cost() + 1;
        pdhg.parallelism = bound_options.parallelism;
        Span span(log_, "lp.solve_pdhg", root.id(), &trace.solve);
        span.attr("rows", static_cast<double>(rows));
        solution = lp::solve_pdhg(model, pdhg);
        span.attr("iterations", static_cast<double>(solution.iterations));
        tally_.pdhg_s.push_back(span.elapsed());
        tally_.pdhg_iterations += solution.iterations;
      }
      result.status = solution.status;
      if (solution.status != lp::SolveStatus::Infeasible) {
        result.lower_bound = std::max(0.0, solution.dual_bound);
        Span span(log_, "rounding.round_solution", root.id(), &trace.rounding);
        rounding = bounds::round_solution(instance_, spec, state_.built,
                                          solution.x, bound_options.rounding);
        ++tally_.roundings;
        tally_.rounding_feasible += rounding.feasible ? 1 : 0;
        result.candidate_feasible = rounding.feasible;
        if (rounding.feasible)
          result.candidate_cost = rounding.evaluation.cost;
      }
    } else {
      result.status = lp::SolveStatus::Infeasible;
    }

    {
      Span span(log_, "other.carry_state", root.id(), &trace.other);
      if (join && incumbent_) incumbent_->grow_x(instance_.node_count());
      state_.valid = state_.built.model.variable_count() > 0;
      if (!solution.basis.empty()) {
        state_.basis = std::move(solution.basis);
      } else if (!state_.basis.compatible(state_.built.model.variable_count(),
                                          state_.built.model.row_count())) {
        state_.basis = {};
      }
    }

    service::IncumbentPlan incumbent;
    if (incumbent_) {
      Span span(log_, "audit.audit_incumbent", root.id(), &trace.audit);
      const auto audit = service::audit_incumbent(instance_, spec, *incumbent_);
      incumbent = {true, audit.feasible(), audit.cost};
      trace.audited = true;
    }
    service::PublishDecision decision;
    {
      Span span(log_, "policy.decide", root.id(), &trace.policy);
      decision = service::decide(
          options_.policy, incumbent,
          {result.candidate_feasible, result.candidate_cost});
    }
    ++tally_.decisions;
    if (decision.publish) {
      Span span(log_, "other.publish", root.id(), &trace.other);
      incumbent_ = std::move(rounding.placement);
      ++tally_.publishes;
    }
    result.published = decision.publish;
    return result;
  }

  mcperf::Instance instance_;
  service::DaemonOptions options_;
  SpanLog& log_;
  Tally& tally_;
  service::ModelState state_;
  std::optional<bounds::Placement> incumbent_;
};

bool same_outcome(const ReplayResult& replay,
                  const service::EventOutcome& daemon) {
  if (replay.rejected != daemon.rejected) return false;
  if (replay.rejected) return true;
  return replay.status == daemon.status &&
         same_bound(replay.lower_bound, daemon.lower_bound) &&
         replay.candidate_feasible == daemon.candidate_feasible &&
         replay.published == daemon.published;
}

// --- Selector -------------------------------------------------------------

struct SelectorTrace {
  double general_s = 0;
  double class_max_s = 0;
  double fanout_efficiency = 0;
};

/// HeuristicSelector::select's work through compute_bound_detail: the
/// general class first, then every class warm-seeded from it over a pool.
/// Mismatches against the selector's own report land in `tally`.
SelectorTrace trace_selector(const mcperf::Instance& instance,
                             std::size_t parallelism, SpanLog& log,
                             Tally& tally, Outcome& result) {
  const auto options = selector_options(parallelism);
  const auto report = core::HeuristicSelector(options).select(instance);
  const std::string problem = check_selection(report);
  result.operation(problem.empty(), "select: " + problem);

  SelectorTrace out;
  const auto classes = core::HeuristicSelector::default_classes();
  Span root(log, "core.select", 0);
  root.attr("classes", static_cast<double>(classes.size()));
  bounds::BoundDetail general;
  {
    Span span(log, "core.compute_bound_detail", root.id(), &out.general_s);
    span.label("class", "general");
    general = bounds::compute_bound_detail(
        instance, mcperf::classes::general(), options.bounds);
  }
  bounds::BoundOptions class_options = options.bounds;
  class_options.warm.seed = &general;
  class_options.parallelism = 1;  // the fan-out holds the threads
  std::vector<double> class_s(classes.size(), 0.0);
  std::vector<bounds::ClassBound> class_bounds(classes.size());
  double fanout_s = 0;
  {
    Span fanout(log, "core.fanout", root.id(), &fanout_s);
    util::ThreadPool pool(std::min(parallelism, classes.size()));
    std::vector<std::future<void>> futures;
    for (std::size_t c = 0; c < classes.size(); ++c)
      futures.push_back(pool.submit([&, c] {
        Span span(log, "core.compute_bound_detail", fanout.id(), &class_s[c]);
        span.label("class", classes[c].name);
        class_bounds[c] =
            bounds::compute_bound_detail(instance, classes[c], class_options)
                .bound;
      }));
    for (auto& future : futures) future.get();
  }
  if (!same_bound(general.bound.lower_bound, report.general.lower_bound) ||
      general.bound.status != report.general.status)
    ++tally.mismatches;
  double class_sum = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (!same_bound(class_bounds[c].lower_bound,
                    report.classes[c].lower_bound) ||
        class_bounds[c].status != report.classes[c].status)
      ++tally.mismatches;
    class_sum += class_s[c];
    out.class_max_s = std::max(out.class_max_s, class_s[c]);
  }
  out.fanout_efficiency =
      class_sum / (static_cast<double>(parallelism) * fanout_s);
  return out;
}

double p50_of(const std::vector<CallTrace>& calls,
              double CallTrace::*member, bool (*keep)(const CallTrace&)) {
  std::vector<double> values;
  for (const auto& call : calls)
    if (keep(call)) values.push_back(call.*member);
  return median(values);
}

}  // namespace

Outcome run_traced(const RunConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  Outcome result;
  const Inputs inputs = make_inputs(spec, config.seed);
  const auto options =
      daemon_options(spec, inputs.tlat_ms, config.parallelism);
  SpanLog log;
  Tally tally;
  Stopwatch run_watch;

  // Selector first: its replay is a fixed amount of work.
  const SelectorTrace selector =
      trace_selector(selector_instance(), config.parallelism, log, tally,
                     result);

  service::PlacementDaemon daemon(inputs.instance, options);
  LayeredReplay replay(inputs.instance, options, log, tally);
  std::vector<double> lu_slack_s, lu_warm_s;
  {
    const auto out = daemon.start();
    CallTrace trace;
    const auto mirrored = replay.start(trace);
    if (!same_outcome(mirrored, out)) ++tally.mismatches;
    result.operation(out.status == lp::SolveStatus::Optimal,
                     "start: solve did not end Optimal");
    replay.probe_lu(lu_slack_s, lu_warm_s);
  }
  // Per-layer figures describe drift calls: drop the cold start's counts.
  const std::size_t selector_mismatches = tally.mismatches;
  tally = Tally{};
  tally.mismatches = selector_mismatches;
  obs::Registry::global().reset();

  // Each call: the untraced daemon, then the layered replay of the same
  // call; the loop gets the share of the budget the selector left.
  std::vector<CallTrace> calls;
  double daemon_s = 0;
  const double budget = std::max(config.seconds * kLoopShare,
                                 config.seconds - run_watch.elapsed_seconds());
  Stopwatch loop_watch;
  for (std::size_t c = 0;
       c < inputs.calls.size() && loop_watch.elapsed_seconds() < budget; ++c) {
    const Call& call = inputs.calls[c];
    // The daemon's own counters (simplex.dual.fallbacks, pdhg.warm_starts)
    // are recorded around its calls only, so they describe the program,
    // not the replay.
    obs::Registry::global().enable(true);
    Stopwatch watch;
    const auto out = spec.feed == Feed::OnBatch
                         ? daemon.on_batch(call.events)
                         : daemon.on_event(call.events.front());
    daemon_s += watch.elapsed_seconds();
    obs::Registry::global().enable(false);

    CallTrace trace;
    const auto mirrored =
        spec.feed == Feed::OnBatch
            ? replay.on_batch(call.events, out.index, trace)
            : replay.on_event(call.events.front(), out.index, trace);
    calls.push_back(trace);
    if (!same_outcome(mirrored, out)) ++tally.mismatches;
    const bool ok = out.rejected == call.malformed &&
                    (out.rejected || out.status == lp::SolveStatus::Optimal);
    result.operation(ok, "call " + std::to_string(c + 1) +
                             ": unexpected rejection or non-optimal solve");
    if ((c + 1) % kLuProbeEvery == 0) replay.probe_lu(lu_slack_s, lu_warm_s);
  }

  std::filesystem::create_directories(config.out_dir);
  log.write_jsonl(config.out_dir + "/spans-" + spec.name + "-" +
                  std::to_string(config.seed) + ".jsonl");

  double wall = 0, covered = 0;
  std::vector<double> other_s;
  for (const auto& call : calls) {
    wall += call.wall;
    covered += call.layers() + call.other;
    other_s.push_back(call.wall - call.layers());
  }
  const double stage_sum_ratio = wall > 0 ? covered / wall : 0;
  result.operation(stage_sum_ratio >= 0.95 && stage_sum_ratio <= 1.05,
                   "stage_sum_ratio " + std::to_string(stage_sum_ratio) +
                       " outside 0.95-1.05");
  result.operation(tally.mismatches == 0,
                   std::to_string(tally.mismatches) +
                       " layered-replay mismatches against the daemon");

  const auto all = [](const CallTrace&) { return true; };
  const auto applied = [](const CallTrace& t) { return !t.rejected; };
  const auto audited = [](const CallTrace& t) { return t.audited; };
  const auto ratio = [](std::size_t part, std::size_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  const std::size_t simplex_solves = tally.simplex_s.size();
  const std::size_t pdhg_solves = tally.pdhg_s.size();
  std::vector<double> solve_s = tally.simplex_s;
  solve_s.insert(solve_s.end(), tally.pdhg_s.begin(), tally.pdhg_s.end());
  double simplex_total_s = 0;
  for (const double s : tally.simplex_s) simplex_total_s += s;
  const auto snapshot = obs::Registry::global().snapshot();
  const auto daemon_count = [&](const char* name) {
    const auto it = snapshot.find(name);
    return it != snapshot.end() ? it->second.sum : 0.0;
  };

  result.notes.push_back("traced calls " + std::to_string(calls.size()) +
                         ", simplex solves " + std::to_string(simplex_solves) +
                         ", PDHG solves " + std::to_string(pdhg_solves) +
                         ", LU probes " + std::to_string(lu_slack_s.size()));
  result.add("validate.p50_s", p50_of(calls, &CallTrace::validate, all), "s");
  result.add("validate.rejected", static_cast<double>(tally.rejected_events),
             "count");
  result.add("patch.p50_s", p50_of(calls, &CallTrace::patch, applied), "s");
  result.add("patch.incremental_ratio",
             ratio(tally.incremental, tally.advances), "ratio");
  result.add("patch.rebuilds", static_cast<double>(tally.rebuilds), "count");
  result.add("achievability.p50_s",
             p50_of(calls, &CallTrace::achievability, applied), "s");
  result.add("lp.solve.p50_s", median(solve_s), "s");
  result.add("lp.solve.p90_s", quantile(solve_s, 0.9), "s");
  result.add("lp.simplex.pivots_per_solve",
             ratio(tally.simplex_pivots, simplex_solves), "count");
  result.add("lp.warm_ratio", ratio(tally.simplex_warm, simplex_solves),
             "ratio");
  result.add("lp.zero_pivot_ratio", ratio(tally.simplex_zero, simplex_solves),
             "ratio");
  result.add("lp.refactorizations_per_solve",
             ratio(tally.simplex_refactorizations, simplex_solves), "count");
  result.add("lp.dual_fallbacks", daemon_count("simplex.dual.fallbacks"),
             "count");
  result.add("lp.us_per_pivot",
             tally.simplex_pivots > 0
                 ? simplex_total_s * 1e6 /
                       static_cast<double>(tally.simplex_pivots)
                 : 0.0,
             "us");
  result.add("lu.factorize_slack_s", median(lu_slack_s), "s");
  result.add("lu.factorize_warm_s", median(lu_warm_s), "s");
  result.add("lp.pdhg.iterations_per_solve",
             ratio(tally.pdhg_iterations, pdhg_solves), "count");
  const double daemon_pdhg_solves = daemon_count("pdhg.solves");
  result.add("lp.pdhg.warm_ratio",
             daemon_pdhg_solves > 0
                 ? daemon_count("pdhg.warm_starts") / daemon_pdhg_solves
                 : 0.0,
             "ratio");
  result.add("rounding.p50_s", p50_of(calls, &CallTrace::rounding, applied),
             "s");
  result.add("rounding.feasible_ratio",
             ratio(tally.rounding_feasible, tally.roundings), "ratio");
  result.add("audit.p50_s", p50_of(calls, &CallTrace::audit, audited), "s");
  result.add("policy.publish_ratio", ratio(tally.publishes, tally.decisions),
             "ratio");
  result.add("select.general_s", selector.general_s, "s");
  result.add("select.class_max_s", selector.class_max_s, "s");
  result.add("select.fanout_efficiency", selector.fanout_efficiency, "ratio");
  result.add("layer_replay.mismatches", static_cast<double>(tally.mismatches),
             "count");
  result.add("other.p50_s", median(other_s), "s");
  result.add("stage_sum_ratio", stage_sum_ratio, "ratio");
  result.add("trace.overhead_pct",
             daemon_s > 0 ? (wall - daemon_s) / daemon_s * 100 : 0.0, "%");
  result.add("trace.calls", static_cast<double>(calls.size()), "count");
  result.add("error_rate",
             ratio(result.failed, std::max<std::size_t>(result.attempted, 1)),
             "ratio");
  return result;
}

}  // namespace wanbench
