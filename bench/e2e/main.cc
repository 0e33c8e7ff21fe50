// e2e_bench: runs one workload of the end-to-end benchmark and prints one
// `<workload> <metric> <value> <unit>` line per metric, then a
// `<workload> check correct=<0|1> attempted=<n> failed=<n>` line. run.py
// builds this program, runs each workload in its own process and assembles
// the result JSON.
//
//   e2e_bench --workload steady|skew-shift|wide-state|sim-dynamics
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//             [--paradigm elastic|static]
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace e2e {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace e2e

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "steady|skew-shift|wide-state|sim-dynamics [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--paradigm elastic|static]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--paradigm") {
      if (value == "static") {
        o.paradigm = elasticutor::Paradigm::kStatic;
      } else if (value != "elastic") {
        Usage("--paradigm is elastic or static");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(o.seconds >= 0.5 && o.seconds <= 600)) Usage("--seconds out of range");
  const bool sim = o.workload == "sim-dynamics";
  if (!sim && !e2e::IsNativeWorkload(o.workload)) Usage("unknown workload");

  const e2e::Outcome out = sim ? e2e::RunSim(o) : e2e::RunNative(o);
  for (const auto& m : out.metrics) {
    std::printf("%s %s %.10g %s\n", o.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const auto& p : out.problems) std::printf("# problem: %s\n", p.c_str());
  std::printf("%s check correct=%d attempted=%lld failed=%lld\n",
              o.workload.c_str(), out.correct && out.failed == 0 ? 1 : 0,
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  return 0;
}
