// QoS regret auditor for the continuous re-placement daemon.
//
// After every ingested event the daemon's standing incumbent placement is
// one step staler: the instance drifted, the certified bound moved, and the
// incumbent's *achieved* QoS and cost may have degraded even though the
// publish policy held it. The auditor measures exactly that — the
// continuous-operation regret the ROADMAP asks for: achieved per-group QoS
// of the incumbent against the drifted instance, its cost under class
// semantics, the gap to the freshly certified lower bound, and how many
// events have passed since the last publish.
//
// `audit_incumbent` is a deliberately *independent* re-implementation of
// `bounds::evaluate_placement` (provider-mask, interval-major sweep instead
// of the reader-major first-provider scan) so the two can cross-check each
// other: DeltaDifferential.RegretAuditMatchesColdEvaluation asserts they
// agree to 1e-7 after every event of the fuzzed sequences. The daemon uses
// the audit result both for its policy decision and for the
// `service.regret.*` gauges/histograms in the metrics registry.
#pragma once

#include <cstdint>
#include <vector>

#include "bounds/feasible.h"
#include "mcperf/heuristic_class.h"
#include "mcperf/instance.h"

namespace wanplace::service {

struct RegretAudit {
  /// False when the daemon has no incumbent yet; all other fields are then
  /// meaningless.
  bool exists = false;

  // Achieved state of the incumbent against the drifted instance.
  bool create_valid = false;  // every up-transition still permitted
  bool goal_met = false;      // QoS goal still satisfied
  double min_qos = 0;         // worst per-group covered fraction
  double qos_slack = 0;       // min_qos - tqos (negative = violated)
  std::vector<double> group_qos;  // covered fraction per QoS group

  // Incumbent cost under class semantics (same decomposition as
  // bounds::Evaluation).
  double cost = 0;
  double storage_cost = 0;
  double creation_cost = 0;
  double write_cost = 0;

  // Regret against the freshly certified bound; filled by the daemon after
  // the warm re-solve (audit_incumbent leaves them zero).
  double lower_bound = 0;
  bool bound_certified = false;  // re-solve reached optimality
  double regret = 0;             // cost - lower_bound (when has_regret())
  double relative_regret = 0;    // regret / max(lower_bound, 1)
  std::uint64_t events_since_publish = 0;

  bool feasible() const { return exists && create_valid && goal_met; }
  /// Regret means something only for a feasible incumbent against a
  /// certified bound: an infeasible plan can sit below the drifted bound,
  /// and that negative "regret" says the plan is broken, not that it beats
  /// the optimum.
  bool has_regret() const { return bound_certified && feasible(); }
};

/// Evaluate `placement` against (instance, spec): achieved QoS per group,
/// feasibility and cost. QoS-metric instances only (same restriction as
/// bounds::evaluate_placement).
RegretAudit audit_incumbent(const mcperf::Instance& instance,
                            const mcperf::ClassSpec& spec,
                            const bounds::Placement& placement);

/// Publish the audit as service.regret.* gauges (current values) and
/// histograms (distribution over the run). No-op while metrics are
/// disabled; never touches solver state.
void publish_audit_metrics(const RegretAudit& audit);

}  // namespace wanplace::service
