#include "inputs.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>

#include "core/case_study.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "graph/shortest_paths.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/demand.h"
#include "workload/generators.h"

namespace wanbench {

using namespace wanplace;

namespace {

constexpr double kTqos = 0.9;
constexpr double kTlatMs = 150;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs{
      {"q90-drift", false, Feed::OnEvent, 600},
      {"q90-churn", false, Feed::OnBatch, 400},
      {"wide-drift", true, Feed::OnEvent, 400},
  };
  return specs;
}

/// The ~3900-row case-study LP of bench/lp_solvers (8 nodes x 8 intervals
/// x 60 objects, WEB workload) at tqos 0.9.
mcperf::Instance q90_instance() {
  core::CaseStudyConfig config;
  config.node_count = 8;
  config.interval_count = 8;
  config.object_count = 60;
  config.web_requests = 16'000;
  config.web_head_count = 6;
  return core::make_case_study(config).web_instance(kTqos);
}

/// A `wanplace_cli gen-example`-style instance (AS-like topology, WEB trace
/// over a diurnal day, per-user QoS) whose general LP has 4190 rows: just
/// above the engine's simplex_row_limit of 4000, so the daemon takes the
/// PDHG path on every event. The generator seed is fixed so the row count
/// never dips under the limit; the run seed drives the stream.
mcperf::Instance wide_instance() {
  Rng rng(42);
  graph::AsLikeParams topology_params;
  topology_params.node_count = 10;
  const auto topology = graph::as_like(topology_params, rng);
  workload::WebParams web;
  web.shape.node_count = topology.node_count();
  web.shape.object_count = 30;
  web.shape.request_count = 20'000;
  web.shape.interval_weights = workload::diurnal_interval_weights(24);
  const auto trace = workload::generate_web(web, rng);
  mcperf::Instance instance;
  instance.latencies = graph::all_pairs_latencies(topology);
  instance.demand = workload::aggregate(trace, 8);
  instance.dist = graph::within_threshold(instance.latencies, kTlatMs);
  instance.goal = mcperf::QosGoal{kTqos, mcperf::QosScope::PerUser};
  instance.origin = 0;
  return instance;
}

bool live(const mcperf::Instance& instance, std::size_t node) {
  return instance.dist(node, node) != 0;
}

graph::NodeId random_live_node(const mcperf::Instance& instance, Rng& rng) {
  for (;;) {
    const auto node = rng.uniform_index(instance.node_count());
    if (live(instance, node)) return static_cast<graph::NodeId>(node);
  }
}

/// Stationary demand drift. Each event either bumps a cell that has no
/// standing bump or reverts the oldest standing bump exactly; at most
/// kMaxBumps stand at once. The instance thus stays within a few cells of
/// its base, and every seed sees the same event statistics however long
/// the run. A q90 bump adds 2-20 reads to a cell that already has reads
/// (writes +0-5 with probability 0.3): about three quarters of those events
/// make zero pivots, the rest a few. A wide bump is gen-example's: +0.5-4
/// reads on any cell, writes +0-1 with probability 0.3.
///
/// Apart from that stream, raise_unread() bumps a cell with no reads and
/// lower_unread() takes it back to exactly zero reads. Demand vanishing
/// from a cell costs the warm dual simplex ~500 pivots on more than half
/// of such events; q90-drift schedules these pairs at fixed calls, so
/// their share is the same on every seed.
class DemandDrift {
 public:
  DemandDrift(bool wide, std::size_t nodes) : wide_(wide), nodes_(nodes) {}

  workload::DemandDeltaEvent next(const mcperf::Instance& instance, Rng& rng) {
    if (!standing_.empty() &&
        (standing_.size() == kMaxBumps || rng.bernoulli(0.5))) {
      auto revert = standing_.front();
      standing_.pop_front();
      revert.read_delta = -revert.read_delta;
      revert.write_delta = -revert.write_delta;
      return revert;
    }
    workload::DemandDeltaEvent bump;
    const auto unread = [&] {
      return instance.demand.read(static_cast<std::size_t>(bump.node),
                                  bump.interval,
                                  static_cast<std::size_t>(bump.object)) <= 0;
    };
    do {
      bump.node = static_cast<graph::NodeId>(rng.uniform_index(nodes_));
      bump.interval = rng.uniform_index(instance.interval_count());
      bump.object = static_cast<workload::ObjectId>(
          rng.uniform_index(instance.object_count()));
    } while (standing(bump) || (!wide_ && unread()));
    if (wide_) {
      bump.read_delta = rng.uniform(0.5, 4.0);
      bump.write_delta = rng.bernoulli(0.3) ? rng.uniform(0.0, 1.0) : 0.0;
    } else {
      bump.read_delta = rng.uniform(2.0, 20.0);
      if (rng.bernoulli(0.3)) bump.write_delta = rng.uniform(0.0, 5.0);
    }
    standing_.push_back(bump);
    return bump;
  }

  /// Reads onto a cell that has none (no writes, so the way back is exact).
  workload::DemandDeltaEvent raise_unread(const mcperf::Instance& instance,
                                          Rng& rng) {
    WANPLACE_CHECK(!raised_, "a raised cell is still standing");
    workload::DemandDeltaEvent bump;
    do {
      bump.node = static_cast<graph::NodeId>(rng.uniform_index(nodes_));
      bump.interval = rng.uniform_index(instance.interval_count());
      bump.object = static_cast<workload::ObjectId>(
          rng.uniform_index(instance.object_count()));
    } while (instance.demand.read(static_cast<std::size_t>(bump.node),
                                  bump.interval,
                                  static_cast<std::size_t>(bump.object)) != 0);
    bump.read_delta = rng.uniform(2.0, 20.0);
    raised_ = bump;
    return bump;
  }

  /// The raised cell back to exactly zero reads (x + -x is exactly 0).
  workload::DemandDeltaEvent lower_unread() {
    WANPLACE_CHECK(raised_.has_value(), "no raised cell to lower");
    auto revert = *raised_;
    raised_.reset();
    revert.read_delta = -revert.read_delta;
    return revert;
  }

 private:
  static constexpr std::size_t kMaxBumps = 8;

  static bool same_cell(const workload::DemandDeltaEvent& a,
                        const workload::DemandDeltaEvent& b) {
    return a.node == b.node && a.interval == b.interval && a.object == b.object;
  }
  bool standing(const workload::DemandDeltaEvent& cell) const {
    return (raised_ && same_cell(*raised_, cell)) ||
           std::any_of(standing_.begin(), standing_.end(),
                       [&](const workload::DemandDeltaEvent& other) {
                         return same_cell(other, cell);
                       });
  }

  bool wide_;
  std::size_t nodes_;  // bumps land on nodes [0, nodes_), which never leave
  std::deque<workload::DemandDeltaEvent> standing_;
  std::optional<workload::DemandDeltaEvent> raised_;  // by raise_unread()
};

/// An event that parses but that Instance::apply_delta must reject.
workload::Event malformed_event(const mcperf::Instance& instance, Rng& rng) {
  const auto nodes = static_cast<graph::NodeId>(instance.node_count());
  workload::DemandDeltaEvent demand;
  demand.node = random_live_node(instance, rng);
  demand.interval = rng.uniform_index(instance.interval_count());
  demand.object = static_cast<workload::ObjectId>(
      rng.uniform_index(instance.object_count()));
  switch (rng.uniform_index(4)) {
    case 0:
      demand.node = nodes + 3;  // unknown node
      demand.read_delta = 1.0;
      return demand;
    case 1:
      return workload::NodeLeaveEvent{*instance.origin};
    case 2:
      return workload::LatencyUpdateEvent{demand.node, demand.node, 90.0};
    default:
      demand.read_delta = -1e9;  // drives the count negative
      return demand;
  }
}

/// On q90-drift, call c % kVanishEvery == kRaiseAt raises an unread cell
/// and call c % kVanishEvery == kLowerAt returns it to zero reads: a fixed
/// 5% of calls make demand vanish, and the costly ones lie beyond p90. The
/// wide stream has no such schedule (its bumps land on unread cells too).
constexpr std::size_t kVanishEvery = 20;
constexpr std::size_t kRaiseAt = 9;
constexpr std::size_t kLowerAt = 19;

/// Single demand deltas, one per on_event call.
std::vector<Call> drift_stream(mcperf::Instance scratch, bool wide,
                               std::size_t calls, Rng& rng) {
  DemandDrift drift(wide, scratch.node_count());
  std::vector<Call> stream(calls);
  for (std::size_t c = 0; c < calls; ++c) {
    Call& call = stream[c];
    const std::size_t phase = wide ? kVanishEvery : c % kVanishEvery;
    const workload::Event event =
        phase == kRaiseAt   ? drift.raise_unread(scratch, rng)
        : phase == kLowerAt ? drift.lower_unread()
                            : drift.next(scratch, rng);
    scratch.apply_delta(event, kTlatMs);
    call.events.push_back(event);
  }
  return stream;
}

/// Bursts of 1-8 mixed events for on_batch: demand drift and latency
/// re-measurements (the pair's original latency jittered by -20%..+25%, so
/// reachability flips only near Tlat and the topology never drifts far),
/// plus one node that joins at call kJoinCall and leaves again at
/// kLeaveCall. The schedule is fixed so every seed grows the LP the same
/// way: a join adds the node's column/row blocks for good, a leave only
/// tombstones them. Every eighth burst carries one malformed event at a
/// random position; the daemon rejects that burst whole, so none of its
/// events reach the generator's scratch copy.
std::vector<Call> churn_stream(mcperf::Instance scratch, std::size_t calls,
                               Rng& rng) {
  constexpr std::size_t kJoinCall = 10;
  constexpr std::size_t kLeaveCall = 50;
  constexpr std::size_t kMalformedEvery = 8;
  static_assert(kJoinCall % kMalformedEvery != kMalformedEvery - 1 &&
                kLeaveCall % kMalformedEvery != kMalformedEvery - 1);
  const std::size_t original_nodes = scratch.node_count();
  const auto base_latency = scratch.latencies;
  DemandDrift drift(false, original_nodes);
  std::vector<Call> stream(calls);
  for (std::size_t c = 0; c < calls; ++c) {
    Call& call = stream[c];
    call.malformed = c % kMalformedEvery == kMalformedEvery - 1;
    mcperf::Instance work = scratch;
    DemandDrift work_drift = drift;
    const auto add = [&](const workload::Event& event) {
      work.apply_delta(event, kTlatMs);
      call.events.push_back(event);
    };
    if (c == kJoinCall) {
      workload::NodeJoinEvent join;
      join.default_latency_ms = rng.uniform(80.0, 200.0);
      join.latency_overrides.emplace_back(random_live_node(work, rng),
                                          rng.uniform(60.0, 140.0));
      add(join);
    } else if (c == kLeaveCall) {
      add(workload::NodeLeaveEvent{
          static_cast<graph::NodeId>(original_nodes)});
    }
    const std::size_t burst = 1 + rng.uniform_index(8);
    while (call.events.size() < burst) {
      if (rng.bernoulli(0.15)) {
        const auto a = rng.uniform_index(original_nodes);
        auto b = rng.uniform_index(original_nodes);
        while (b == a) b = rng.uniform_index(original_nodes);
        add(workload::LatencyUpdateEvent{
            static_cast<graph::NodeId>(a), static_cast<graph::NodeId>(b),
            base_latency(a, b) * rng.uniform(0.8, 1.25)});
      } else {
        add(work_drift.next(work, rng));
      }
    }
    if (call.malformed) {
      const auto at = rng.uniform_index(call.events.size() + 1);
      call.events.insert(call.events.begin() + static_cast<std::ptrdiff_t>(at),
                         malformed_event(work, rng));
    } else {
      scratch = std::move(work);
      drift = std::move(work_drift);
    }
  }
  return stream;
}

}  // namespace

const WorkloadSpec& workload_by_name(const std::string& name) {
  for (const auto& spec : workloads())
    if (spec.name == name) return spec;
  throw InvalidArgument("unknown workload '" + name + "'");
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& spec : workloads()) names.push_back(spec.name);
  return names;
}

mcperf::Instance selector_instance() { return q90_instance(); }

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  inputs.instance = spec.wide ? wide_instance() : q90_instance();
  inputs.tlat_ms = kTlatMs;
  // FNV-1a of the workload name keeps streams of different workloads
  // apart under one seed.
  std::uint64_t salt = 0xCBF29CE484222325ULL;
  for (const char c : spec.name)
    salt = (salt ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL ^ salt);
  const auto generated =
      spec.feed == Feed::OnBatch
          ? churn_stream(inputs.instance, spec.calls, rng)
          : drift_stream(inputs.instance, spec.wide, spec.calls, rng);

  // The daemon parses exactly what a `serve` user would feed it.
  std::vector<workload::Event> flat;
  for (const auto& call : generated)
    flat.insert(flat.end(), call.events.begin(), call.events.end());
  std::stringstream text;
  workload::save_events(flat, text);
  const auto loaded = workload::load_events(text, spec.name + ".events");
  WANPLACE_CHECK(loaded.size() == flat.size(), "event round trip lost events");

  std::size_t next = 0;
  inputs.calls.reserve(generated.size());
  for (const auto& call : generated) {
    Call parsed;
    parsed.malformed = call.malformed;
    const auto first = loaded.begin() + static_cast<std::ptrdiff_t>(next);
    next += call.events.size();
    parsed.events.assign(first,
                         loaded.begin() + static_cast<std::ptrdiff_t>(next));
    inputs.calls.push_back(std::move(parsed));
  }
  return inputs;
}

}  // namespace wanbench
