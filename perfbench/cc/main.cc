// perfbench: the repository benchmark program.
//
//   perfbench --workload sweep|campaign_hard|campaign_soft --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Runs one workload for S seconds of timed repetitions (after an untimed
// warm-up repetition) and prints human-readable notes followed by one JSON
// line: the end-to-end metrics it measured with --trace 0, the per-layer
// ones with --trace 1. run.py checks them against BENCHMARK.json, the one
// list of metric names and units. See README.md for what each metric means.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "support.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep|campaign_hard|"
               "campaign_soft --seed N --seconds S --trace 0|1 --work-dir DIR\n";
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  try {
    args.workload = kv.at("workload");
    args.seed = std::stoull(kv.at("seed"));
    args.seconds = std::stod(kv.at("seconds"));
    args.trace = std::stoi(kv.at("trace")) != 0;
    args.work_dir = kv.at("work-dir");
  } catch (const std::exception&) {
    usage("missing or malformed argument");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  args.jobs = online_cpus();
  return args;
}

// The metrics as a JSON object, in the order the workload measured them.
std::string metrics_json(const std::vector<Metric>& measured) {
  std::string json = "{";
  for (const Metric& m : measured) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += (json.size() > 1 ? ", \"" : "\"") + m.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  std::filesystem::create_directories(args.work_dir);

  perfbench::Outcome out;
  try {
    if (args.workload == "sweep") {
      out = perfbench::run_sweep(args);
    } else if (args.workload == "campaign_hard") {
      out = perfbench::run_campaign_hard(args);
    } else if (args.workload == "campaign_soft") {
      out = perfbench::run_campaign_soft(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  const double load = perfbench::load_average_1m();
  out.e2e("peak_rss_mb", perfbench::peak_rss_mb() - out.calibration_mb, "MiB");

  // Per-layer host times and rates are reported at reference speed like the
  // end-to-end ones (see Calibration), except the host.* and bench.*
  // figures, which describe the run itself.
  for (Metric& m : out.per_layer) {
    if (m.name.rfind("host.", 0) == 0 || m.name.rfind("bench.", 0) == 0) {
      continue;
    }
    if (m.unit == "s" || m.unit == "ms" || m.unit == "us" || m.unit == "ns") {
      m.value *= out.speed_factor;
    } else if (m.unit == "Minst/s") {
      m.value /= out.speed_factor;
    }
  }

  for (const std::string& note : out.notes) std::cout << note << "\n";
  std::cout << "host: nproc=" << args.jobs << " build=" << PERFBENCH_BUILD_TYPE
            << " loadavg_1m=" << load << "\n";
  std::cout << "seeds: run=" << args.seed
            << " tuning=" << perfbench::kTuningSeed
            << " held_out=" << perfbench::kHeldOutSeed << "\n";
  std::cout << "fail_share=" << out.failed << "/" << out.attempted << "\n";
  for (const Metric& m : args.trace ? out.per_layer : out.end_to_end) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }

  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": "
            << metrics_json(args.trace ? out.per_layer : out.end_to_end)
            << "}" << std::endl;
  return 0;
}
