#include "service/audit.h"

#include <algorithm>
#include <vector>

#include "mcperf/builder.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace wanplace::service {

using mcperf::ClassSpec;
using mcperf::Instance;

// Independent evaluation path: where bounds::evaluate_placement scans
// reader-major with a first-provider break, the auditor precomputes each
// reader's provider reach list once and sweeps interval-major over a
// per-(i,k) provider mask. Same semantics, different traversal — so a bug
// in either implementation trips the 1e-7 differential shard instead of
// cancelling out.
RegretAudit audit_incumbent(const Instance& instance, const ClassSpec& spec,
                            const bounds::Placement& placement) {
  instance.validate();
  WANPLACE_REQUIRE(std::holds_alternative<mcperf::QosGoal>(instance.goal),
                   "audit_incumbent supports the QoS metric");
  WANPLACE_REQUIRE(
      instance.storage_scale.empty() || (!spec.storage && !spec.replicas),
      "storage_scale is incompatible with provisioned-capacity classes");
  const std::size_t n_count = instance.node_count();
  const std::size_t i_count = instance.interval_count();
  const std::size_t k_count = instance.object_count();
  WANPLACE_REQUIRE(placement.dim_x() == n_count &&
                       placement.dim_y() == i_count &&
                       placement.dim_z() == k_count,
                   "placement dimensions mismatch");

  const BoolMatrix fetch = mcperf::compute_fetch(instance, spec);
  const BoolCube allowed = mcperf::compute_create_allowed(instance, spec);
  const auto& goal = std::get<mcperf::QosGoal>(instance.goal);

  RegretAudit audit;
  audit.exists = true;
  audit.create_valid = true;

  // Each reader's providers: nodes it may fetch from within Tlat under the
  // class's routing restriction.
  std::vector<std::vector<std::size_t>> reach(n_count);
  for (std::size_t n = 0; n < n_count; ++n)
    for (std::size_t m = 0; m < n_count; ++m)
      if (instance.dist(n, m) && fetch(n, m)) reach[n].push_back(m);

  const mcperf::QosGroups groups(instance, goal.scope);
  std::vector<double> covered(groups.count(), 0.0);
  std::vector<char> provider(n_count, 0);
  std::vector<double> node_peak(n_count, 0.0);
  std::vector<double> object_peak(k_count, 0.0);
  std::vector<double> node_used(n_count, 0.0);
  double stored_cells = 0, creations = 0, scaled_storage = 0, updates = 0;

  for (std::size_t i = 0; i < i_count; ++i) {
    std::fill(node_used.begin(), node_used.end(), 0.0);
    for (std::size_t k = 0; k < k_count; ++k) {
      double replicas = 0;
      for (std::size_t m = 0; m < n_count; ++m) {
        const bool origin = instance.is_origin(m);
        const bool placed = !origin && placement(m, i, k);
        provider[m] = origin || placed;
        if (!placed) continue;
        replicas += 1;
        node_used[m] += 1;
        stored_cells += 1;
        scaled_storage += instance.storage_alpha(m);
        if (i == 0 || !placement(m, i - 1, k)) {
          creations += 1;
          if (!allowed(m, i, k)) audit.create_valid = false;
        }
      }
      object_peak[k] = std::max(object_peak[k], replicas);

      double writes_ik = 0;
      for (std::size_t n = 0; n < n_count; ++n) {
        writes_ik += instance.demand.write(n, i, k);
        const double reads = instance.demand.read(n, i, k);
        if (reads <= 0) continue;
        for (const std::size_t m : reach[n]) {
          if (provider[m]) {
            covered[groups.group_of(n, k)] += reads;
            break;
          }
        }
      }
      if (writes_ik > 0) updates += writes_ik * replicas;
    }
    for (std::size_t n = 0; n < n_count; ++n)
      node_peak[n] = std::max(node_peak[n], node_used[n]);
  }

  audit.min_qos = 1.0;
  audit.goal_met = true;
  audit.group_qos.assign(groups.count(), 1.0);
  for (std::size_t group = 0; group < groups.count(); ++group) {
    const double total = groups.total_reads(group);
    if (total <= 0) continue;
    const double qos = covered[group] / total;
    audit.group_qos[group] = qos;
    audit.min_qos = std::min(audit.min_qos, qos);
    if (qos < goal.tqos - 1e-9) audit.goal_met = false;
  }
  audit.qos_slack = audit.min_qos - goal.tqos;

  // Cost under class semantics — the same branches as the LP objective.
  const auto& costs = instance.costs;
  const std::size_t open_nodes =
      n_count - (instance.origin.has_value() ? 1 : 0);
  const auto intervals = static_cast<double>(i_count);
  if (spec.storage) {
    double global_peak = 0;
    for (std::size_t n = 0; n < n_count; ++n)
      global_peak = std::max(global_peak, node_peak[n]);
    if (*spec.storage == mcperf::StorageConstraint::PerSystem) {
      audit.storage_cost = costs.alpha * global_peak *
                           static_cast<double>(open_nodes) * intervals;
      // Provisioned capacity gets filled at least once: pad creations up to
      // the system-wide peak on every node (Fig. 5 tail).
      double padding = 0;
      for (std::size_t n = 0; n < n_count; ++n) {
        if (instance.is_origin(n)) continue;
        padding += global_peak - node_peak[n];
      }
      audit.creation_cost = costs.beta * (creations + padding);
    } else {
      double storage = 0;
      for (std::size_t n = 0; n < n_count; ++n) {
        if (instance.is_origin(n)) continue;
        storage += node_peak[n];
      }
      audit.storage_cost = costs.alpha * storage * intervals;
      audit.creation_cost = costs.beta * creations;
    }
  } else if (spec.replicas) {
    double global_peak = 0;
    for (std::size_t k = 0; k < k_count; ++k)
      global_peak = std::max(global_peak, object_peak[k]);
    if (*spec.replicas == mcperf::ReplicaConstraint::PerSystem) {
      audit.storage_cost = costs.alpha * global_peak *
                           static_cast<double>(k_count) * intervals;
      double padding = 0;
      for (std::size_t k = 0; k < k_count; ++k)
        padding += global_peak - object_peak[k];
      audit.creation_cost = costs.beta * (creations + padding);
    } else {
      double storage = 0;
      for (std::size_t k = 0; k < k_count; ++k) storage += object_peak[k];
      audit.storage_cost = costs.alpha * storage * intervals;
      audit.creation_cost = costs.beta * creations;
    }
  } else {
    audit.storage_cost = instance.storage_scale.empty()
                             ? costs.alpha * stored_cells
                             : scaled_storage;
    audit.creation_cost = costs.beta * creations;
  }
  if (costs.delta > 0) audit.write_cost = costs.delta * updates;
  audit.cost = audit.storage_cost + audit.creation_cost + audit.write_cost;
  return audit;
}

void publish_audit_metrics(const RegretAudit& audit) {
  if (!obs::metrics_enabled() || !audit.exists) return;
  obs::gauge_set("service.regret.cost", audit.cost);
  obs::gauge_set("service.regret.min_qos", audit.min_qos);
  obs::gauge_set("service.regret.qos_slack", audit.qos_slack);
  obs::gauge_set("service.regret.feasible", audit.feasible() ? 1 : 0);
  obs::gauge_set("service.regret.staleness",
                 static_cast<double>(audit.events_since_publish));
  obs::histogram_record("service.regret.qos_slack.dist", audit.qos_slack);
  obs::histogram_record("service.regret.staleness.dist",
                        static_cast<double>(audit.events_since_publish));
  if (!audit.bound_certified) return;
  obs::gauge_set("service.regret.bound", audit.lower_bound);
  if (!audit.has_regret()) return;
  obs::gauge_set("service.regret.abs", audit.regret);
  obs::gauge_set("service.regret.rel", audit.relative_regret);
  obs::histogram_record("service.regret.rel.dist", audit.relative_regret);
}

}  // namespace wanplace::service
