// The repository benchmark binary. Usage:
//
//   perfbench --workload <serve-rate|des-wide|des-chaos> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints a host block, then, as its last line, one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace 0, per-layer
// with --trace 1). Exits 1 when an output check failed, 2 on bad usage.
// perfbench/run.py builds this binary and runs it; see perfbench/NOTES.md.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve-rate|des-wide|des-chaos> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Options Parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  return options;
}

void PrintHost() {
  struct utsname host {};
  uname(&host);
  std::printf("# host: nproc=%ld machine=%s kernel=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), host.machine, host.release);
  std::printf("# build: compiler=%s %s build_type=%s\n",
#if defined(__clang__)
              "clang",
#elif defined(__GNUC__)
              "gcc",
#else
              "unknown",
#endif
              __VERSION__, PERFBENCH_BUILD_TYPE);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = Parse(argc, argv);
  PrintHost();
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  std::unique_ptr<perfbench::Tracer> tracer;
  if (options.trace) tracer = std::make_unique<perfbench::Tracer>();

  perfbench::Result result(options.trace ? perfbench::PerLayerMetrics()
                                          : perfbench::EndToEndMetrics());
  if (options.workload == "serve-rate") {
    perfbench::RunServeRate(options, tracer.get(), &result);
  } else if (options.workload == "des-wide") {
    perfbench::RunDesWide(options, tracer.get(), &result);
  } else if (options.workload == "des-chaos") {
    perfbench::RunDesChaos(options, tracer.get(), &result);
  } else {
    Usage("unknown workload " + options.workload);
  }

  if (tracer != nullptr && !options.trace_out.empty()) {
    result.Check(tracer->Write(options.trace_out),
                 "cannot write spans to " + options.trace_out);
    std::printf("# spans: %zu written to %s\n", tracer->span_count(),
                options.trace_out.c_str());
  }
  std::printf("%s", result.InfoLines().c_str());
  for (const std::string& failure : result.failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  return result.correct() ? 0 : 1;
}
