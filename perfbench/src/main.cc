// geodp_perfbench: one run of one benchmark workload. Prints diagnostics
// on stderr and, as the last line of stdout, one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
//   geodp_perfbench --workload train_cnn --seed 1 --seconds 10 --trace 0
//       --work-dir DIR [--trace-out FILE] [--canary-part-us N]
//
// perfbench/run.py builds this binary and is the entry point to use.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "geodp_perfbench: %s\n"
               "usage: geodp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--canary-part-us N]\n",
               why);
  return 2;
}

bool ParseInt(const std::string& text, long long* value) {
  char* end = nullptr;
  *value = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && *end == '\0';
}

// JSON string escaping for the metric names and units (plain ASCII).
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    if (!first) line += ", ";
    first = false;
    line += Quote(metric.name) + ": {\"value\": " + value +
            ", \"unit\": " + Quote(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunArgs args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    long long number = 0;
    if (flag == "--workload") {
      args.spec = FindWorkload(value);
      if (args.spec == nullptr) {
        return Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      if (!ParseInt(value, &number) || number < 0) return Usage("bad --seed");
      args.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, &number) || number < 1 || number > 120) {
        return Usage("--seconds must be an integer in [1, 120]");
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--canary-part-us") {
      if (!ParseInt(value, &number) || number < 0 || number > 100000) {
        return Usage("bad --canary-part-us");
      }
      args.canary_part_us = number;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.spec == nullptr || !have_seed || !have_trace ||
      args.work_dir.empty()) {
    return Usage("--workload, --seed, --trace and --work-dir are required");
  }
  if (args.trace && args.canary_part_us > 0) {
    return Usage("the canary runs untraced only");
  }
  if (!ResetDirectory(args.work_dir)) {
    return Usage(("cannot create " + args.work_dir).c_str());
  }
  PrintResult(args.trace ? RunTraced(args) : RunEndToEnd(args));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
