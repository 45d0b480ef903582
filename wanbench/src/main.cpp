// wanbench — the wanplace benchmark binary.
//
//   wanbench --workload NAME --seed N --seconds S --trace 0|1
//            [--out-dir DIR] [--commit ID] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// replays the same stream through the layers' public functions with spans
// around each call and reports the per-layer metrics (spans land in
// DIR/spans-<workload>-<seed>.jsonl). Stdout ends with one line: the run
// record (schema, host, build, settings) precedes the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Exit code 0 whenever a result was printed; 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/json_util.h"
#include "util/log.h"

namespace {

using namespace wanbench;

/// Solver and selector fan-out threads: fixed, and never above the host's
/// core count.
constexpr std::size_t kParallelism = 2;

#ifndef WANBENCH_COMPILER
#define WANBENCH_COMPILER "unknown"
#endif
#ifndef WANBENCH_BUILD_TYPE
#define WANBENCH_BUILD_TYPE "unknown"
#endif

using wanplace::obs::detail::json_number;
using wanplace::obs::detail::json_string;

int usage(const std::string& problem) {
  std::cerr << "wanbench: " << problem
            << "\nusage: wanbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit ID] "
               "[--source-digest HEX]\nworkloads:";
  for (const auto& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
      return usage("bad argument '" + flag + "'");
    args[flag.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"})
    if (!args.count(required))
      return usage(std::string("missing --") + required);

  RunConfig config;
  try {
    config.spec = &workload_by_name(args["workload"]);
    config.seed = std::stoull(args["seed"]);
    config.seconds = std::stod(args["seconds"]);
  } catch (const std::exception& error) {
    return usage(error.what());
  }
  const bool traced = args["trace"] == "1";
  if (!traced && args["trace"] != "0") return usage("--trace takes 0 or 1");
  if (!(config.seconds > 0)) return usage("--seconds must be positive");
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  config.parallelism = std::min(kParallelism, nproc);
  const auto optional = [&](const std::string& flag) {
    const auto it = args.find(flag);
    return it != args.end() ? it->second : std::string("unknown");
  };
  config.out_dir = args.count("out-dir") ? args["out-dir"] : ".";

  // Deliberately malformed events are part of the churn stream; their
  // rejections are checked, not logged.
  wanplace::set_log_level(wanplace::LogLevel::Off);

  Outcome result = traced ? run_traced(config) : run_end_to_end(config);
  for (const auto& metric : result.metrics)
    if (!std::isfinite(metric.value))
      result.operation(false, metric.name + " is not finite");

  for (const auto& note : result.notes) std::cout << "# " << note << "\n";
  for (const auto& metric : result.metrics)
    std::cout << "# " << metric.name << " = " << json_number(metric.value)
              << " " << metric.unit << "\n";
  for (const auto& failure : result.failures)
    std::cerr << "wanbench: check failed: " << failure << "\n";

  std::cout << "{\"schema\":\"wanbench-run v1\",\"workload\":"
            << json_string(config.spec->name) << ",\"seed\":" << config.seed
            << ",\"seconds\":" << json_number(config.seconds)
            << ",\"trace\":" << (traced ? 1 : 0)
            << ",\"parallelism\":" << config.parallelism
            << ",\"nproc\":" << nproc
            << ",\"compiler\":" << json_string(WANBENCH_COMPILER)
            << ",\"build_type\":" << json_string(WANBENCH_BUILD_TYPE)
            << ",\"commit\":" << json_string(optional("commit"))
            << ",\"source_digest\":" << json_string(optional("source-digest"))
            << "}\n";

  std::cout << "{\"correct\":" << (result.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& metric = result.metrics[i];
    std::cout << (i ? "," : "") << json_string(metric.name)
              << ":{\"value\":" << json_number(metric.value)
              << ",\"unit\":" << json_string(metric.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
