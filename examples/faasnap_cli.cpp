// faasnap_cli: command-line driver for ad-hoc experiments on the public API.
//
// Usage:
//   faasnap_cli [--function NAME] [--mode MODE[,MODE...]] [--test-input A|B]
//               [--ratio R] [--device nvme|ebs] [--parallelism N] [--reps K]
//               [--seed S] [--list]
//
// Examples:
//   faasnap_cli --function image --mode firecracker,reap,faasnap --test-input B
//   faasnap_cli --function json --mode faasnap --parallelism 16
//   faasnap_cli --function pagerank --mode reap --ratio 4
//   faasnap_cli --list

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/runtime/platform.h"
#include "src/metrics/json_writer.h"
#include "src/metrics/table.h"

using namespace faasnap;

namespace {

struct CliOptions {
  std::string function = "json";
  std::vector<std::string> modes = {"faasnap"};
  std::string test_input = "B";
  double ratio = 0.0;  // 0 = use A/B inputs; otherwise a Figure 8-style scale
  std::string device = "nvme";
  int parallelism = 1;
  int reps = 1;
  uint64_t seed = 1;
  bool list = false;
  bool json = false;
  bool help = false;
};

// Strict numeric parsing: the whole value must be a number. atoi-style silent
// truncation ("3abc" -> 3, "x" -> 0) turns typos into misconfigured runs.
Result<long long> ParseInt(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return InvalidArgumentError(flag + " requires an integer, got \"" + text + "\"");
  }
  return value;
}

Result<double> ParseNumber(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return InvalidArgumentError(flag + " requires a number, got \"" + text + "\"");
  }
  return value;
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return InvalidArgumentError(arg + " requires a value");
      }
      return std::string(argv[++i]);
    };
    if (arg == "--list") {
      options.list = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--function") {
      ASSIGN_OR_RETURN(options.function, next_value());
    } else if (arg == "--mode") {
      ASSIGN_OR_RETURN(std::string modes, next_value());
      options.modes.clear();
      std::stringstream stream(modes);
      std::string item;
      while (std::getline(stream, item, ',')) {
        options.modes.push_back(item);
      }
      if (options.modes.empty()) {
        return InvalidArgumentError("--mode requires at least one mode");
      }
    } else if (arg == "--test-input") {
      ASSIGN_OR_RETURN(options.test_input, next_value());
      if (options.test_input != "A" && options.test_input != "B") {
        return InvalidArgumentError("--test-input must be A or B");
      }
    } else if (arg == "--ratio") {
      ASSIGN_OR_RETURN(std::string v, next_value());
      ASSIGN_OR_RETURN(options.ratio, ParseNumber(arg, v));
      if (options.ratio <= 0) {
        return InvalidArgumentError("--ratio must be positive");
      }
    } else if (arg == "--device") {
      ASSIGN_OR_RETURN(options.device, next_value());
      if (options.device != "nvme" && options.device != "ebs") {
        return InvalidArgumentError("--device must be nvme or ebs");
      }
    } else if (arg == "--parallelism") {
      ASSIGN_OR_RETURN(std::string v, next_value());
      ASSIGN_OR_RETURN(long long parallelism, ParseInt(arg, v));
      options.parallelism = static_cast<int>(parallelism);
      if (options.parallelism < 1) {
        return InvalidArgumentError("--parallelism must be >= 1");
      }
    } else if (arg == "--reps") {
      ASSIGN_OR_RETURN(std::string v, next_value());
      ASSIGN_OR_RETURN(long long reps, ParseInt(arg, v));
      options.reps = static_cast<int>(reps);
      if (options.reps < 1) {
        return InvalidArgumentError("--reps must be >= 1");
      }
    } else if (arg == "--seed") {
      ASSIGN_OR_RETURN(std::string v, next_value());
      ASSIGN_OR_RETURN(long long seed, ParseInt(arg, v));
      options.seed = static_cast<uint64_t>(seed);
    } else {
      return InvalidArgumentError("unknown flag: " + arg);
    }
  }
  return options;
}

void PrintCatalog() {
  TextTable table({"function", "description", "WS A (MB)", "WS B (MB)"});
  for (const FunctionSpec& spec : FunctionCatalog()) {
    table.AddRow({spec.name, spec.description,
                  FormatCell("%.1f", static_cast<double>(PagesToBytes(
                                         spec.WorkingSetPages(spec.input_a)).value()) /
                                         (1024.0 * 1024.0)),
                  FormatCell("%.1f", static_cast<double>(PagesToBytes(
                                         spec.WorkingSetPages(spec.input_b)).value()) /
                                         (1024.0 * 1024.0))});
  }
  std::printf("%s", table.ToString().c_str());
}

int RunCli(const CliOptions& options) {
  Result<FunctionSpec> spec = FindFunction(options.function);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }

  TextTable table({"mode", "total (ms)", "setup (ms)", "invoke (ms)", "majors", "uffd",
                   "fetch (MB)", "disk reads"});
  for (const std::string& mode_name : options.modes) {
    Result<RestoreMode> mode = ParseRestoreMode(mode_name);
    if (!mode.ok()) {
      std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
      return 1;
    }
    RunningStats total;
    InvocationReport last;
    for (int rep = 0; rep < options.reps; ++rep) {
      PlatformConfig config;
      if (options.device == "ebs") {
        config.disk = EbsIo2Profile();
      }
      config.seed = options.seed + static_cast<uint64_t>(rep) * 7919;
      Platform platform(config);
      TraceGenerator generator(*spec, config.layout);
      FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(*spec));
      // Open every artifact through the validating API before restoring from
      // it; a checksum mismatch exits with the status instead of crashing
      // somewhere down the restore path.
      for (const char* suffix : {".mem", ".smem", ".reapws", ".lset"}) {
        Result<FileId> artifact = platform.store()->Open(options.function + suffix);
        if (!artifact.ok()) {
          std::fprintf(stderr, "snapshot artifact %s%s: %s\n", options.function.c_str(),
                       suffix, artifact.status().ToString().c_str());
          return 1;
        }
      }
      platform.DropCaches();

      WorkloadInput input =
          options.ratio > 0
              ? MakeScaledInput(*spec, options.ratio, 0xC11 + static_cast<uint64_t>(rep))
              : (options.test_input == "A" ? MakeInputA(*spec) : MakeInputB(*spec));
      if (options.parallelism == 1) {
        last = platform.Invoke(snapshot, *mode, generator, input);
        if (options.json) {
          std::printf("%s\n", InvocationReportToJson(last).c_str());
        }
        total.Record(last.total_time().millis());
      } else {
        double sum = 0;
        int completed = 0;
        for (int i = 0; i < options.parallelism; ++i) {
          WorkloadInput per = input;
          if (!spec->fixed_input) {
            per.content_seed += static_cast<uint64_t>(i) + 1;
          }
          platform.InvokeAsync(snapshot, *mode, generator.Generate(per),
                               [&](InvocationReport report) {
                                 sum += report.total_time().millis();
                                 last = std::move(report);
                                 ++completed;
                               });
        }
        platform.sim()->Run();
        FAASNAP_CHECK(completed == options.parallelism);
        total.Record(sum / options.parallelism);
      }
    }
    table.AddRow({mode_name,
                  FormatCell("%.1f +- %.1f", total.mean(), total.stddev()),
                  FormatCell("%.1f", last.setup_time.millis()),
                  FormatCell("%.1f", last.invocation_time.millis()),
                  FormatCell("%lld", static_cast<long long>(last.faults.major_faults())),
                  FormatCell("%lld",
                             static_cast<long long>(last.faults.count(FaultClass::kUffdHandled))),
                  FormatCell("%.1f", static_cast<double>(last.fetch_bytes.value()) / 1e6),
                  FormatCell("%llu", static_cast<unsigned long long>(last.disk.read_requests))});
  }
  if (options.json) {
    return 0;  // reports already emitted, one JSON object per line
  }
  std::printf("function: %s, test input: %s%s, device: %s, parallelism: %d, reps: %d\n\n",
              options.function.c_str(),
              options.ratio > 0 ? "ratio " : options.test_input.c_str(),
              options.ratio > 0 ? FormatCell("%.2g", options.ratio).c_str() : "",
              options.device.c_str(), options.parallelism, options.reps);
  std::printf("%s", table.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Result<CliOptions> options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  if (options->help) {
    std::printf("usage: faasnap_cli [--function NAME] [--mode MODE[,MODE...]]\n"
                "                   [--test-input A|B] [--ratio R] [--device nvme|ebs]\n"
                "                   [--parallelism N] [--reps K] [--seed S] [--json] [--list]\n");
    return 0;
  }
  if (options->list) {
    PrintCatalog();
    return 0;
  }
  return RunCli(*options);
}
