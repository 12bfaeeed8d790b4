// Entry point of the end-to-end benchmark:
//
//   fxrz_perfbench --workload <dump|serve|bulk> --seed <n> --seconds <s>
//                  --trace <0|1>
//
// Prints every metric as a text line, then one JSON record as the last line
// of standard output. perfbench/run.py builds this binary and runs it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fxrz_perfbench --workload <dump|serve|bulk> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fxrz_perfbench;
  MarkProcessStart();
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) return Usage();

  Report report;
  if (args.workload == "dump") {
    RunDump(args, &report);
  } else if (args.workload == "serve") {
    RunServe(args, &report);
  } else if (args.workload == "bulk") {
    RunBulk(args, &report);
  } else {
    return Usage();
  }
  report.Set("peak_rss_mb", PeakRssMb());
  report.Print(args.trace);
  return 0;
}
