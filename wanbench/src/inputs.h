// Seeded inputs of the benchmark workloads: the MC-PERF instance the daemon
// starts from and the drift stream it is fed, already split into daemon
// calls (one event per on_event, or one burst per on_batch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcperf/instance.h"
#include "workload/trace.h"

namespace wanbench {

/// How a workload feeds its stream to the daemon.
enum class Feed { OnEvent, OnBatch };

struct WorkloadSpec {
  std::string name;
  /// True: the gen-example-style instance above simplex_row_limit.
  /// False: the 8x8x60 WEB case study at tqos 0.9.
  bool wide = false;
  Feed feed = Feed::OnEvent;
  /// Events generated per run; a run stops at its time budget first.
  std::size_t calls = 0;
};

/// The workloads the benchmark knows; throws InvalidArgument for an
/// unknown name.
const WorkloadSpec& workload_by_name(const std::string& name);
std::vector<std::string> workload_names();

/// One daemon call of the stream: a single event (OnEvent) or a burst
/// (OnBatch). `malformed` marks a burst that holds one deliberately invalid
/// event, which the daemon must reject whole.
struct Call {
  wanplace::workload::EventBatch events;
  bool malformed = false;
};

struct Inputs {
  wanplace::mcperf::Instance instance;
  double tlat_ms = 150;
  std::vector<Call> calls;
};

/// Generate the workload's instance and stream from `seed`, then round-trip
/// the events through workload::save_events / load_events so the daemon
/// sees exactly what a `wanplace_cli serve` user would feed it.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// The instance every workload's selector runs use: the 8x8x60 WEB case
/// study at tqos 0.9, whose six class LPs all solve exactly in seconds.
wanplace::mcperf::Instance selector_instance();

}  // namespace wanbench
