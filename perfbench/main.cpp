// et_perfbench — the repo benchmark driver (perfbench/README.md).
//
//   et_perfbench --workload <chat_fp16|long_context|encoder_bert|wire_int8>
//                --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload on inputs generated from the seed, checks every output
// it can against an oracle, and prints as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics (and a Chrome trace file)
// with --trace 1. Exit code 0 = correct; 1 = an output diverged or a
// required metric could not be measured; 2 = bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "et_perfbench: %s\n"
               "usage: et_perfbench --workload "
               "<chat_fp16|long_context|encoder_bert|wire_int8> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

template <typename Defs>
void print_metrics(const Defs& defs, const perfbench::Outcome& out) {
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& d : defs) {
    const auto it = out.metrics.find(std::string(d.name));
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%.*s\": {\"value\": %.17g, \"unit\": \"%.*s\"}",
                first ? "" : ", ", static_cast<int>(d.name.size()),
                d.name.data(), v, static_cast<int>(d.unit.size()),
                d.unit.data());
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0) {
        return usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Outcome out;
  try {
    if (args.workload == "chat_fp16") {
      out = perfbench::run_chat(args);
    } else if (args.workload == "long_context") {
      out = perfbench::run_long_context(args);
    } else if (args.workload == "encoder_bert") {
      out = perfbench::run_encoder(args);
    } else if (args.workload == "wire_int8") {
      out = perfbench::run_wire(args);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "et_perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  out.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();
  if (!args.trace) {
    for (const auto& d : perfbench::kEndToEnd) {
      if (out.metrics.count(std::string(d.name)) == 0) {
        out.fail("end-to-end metric " + std::string(d.name) +
                 " was not measured");
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.tally.attempted),
              static_cast<unsigned long long>(out.tally.failed));
  if (args.trace) {
    print_metrics(perfbench::kPerLayer, out);
  } else {
    print_metrics(perfbench::kEndToEnd, out);
  }
  std::printf("}\n");
  std::fflush(stdout);
  if (!out.correct) {
    std::fprintf(stderr, "et_perfbench: %s FAILED: %s\n", args.workload.c_str(),
                 out.error.c_str());
    return 1;
  }
  return 0;
}
