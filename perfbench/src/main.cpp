// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload in this process for about S seconds of measurement,
// checks its outputs, and prints one JSON object as the last stdout line
// (see perfbench/README.md for the metrics and what each one means).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload capstep|controller_zoo|scrape"
               " --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage(argv[0]);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') {
      return usage(argv[0]);
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    return usage(argv[0]);
  }

  try {
    perfbench::Result result;
    if (args.workload == "capstep") {
      result = perfbench::run_capstep(args);
    } else if (args.workload == "controller_zoo") {
      result = perfbench::run_controller_zoo(args);
    } else if (args.workload == "scrape") {
      result = perfbench::run_scrape(args);
    } else {
      return usage(argv[0]);
    }
    return perfbench::emit(args, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
