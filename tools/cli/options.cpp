#include "cli/options.hpp"

#include <iostream>

#include "cli/parse.hpp"
#include "engine/registry.hpp"
#include "util/certify.hpp"
#include "util/status.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace ddm::cli {

namespace {

/// "auto, batch, ..., exact, or mc" — built from the registry so a newly
/// registered engine is accepted (and named in rejections) automatically.
std::string engine_choices() {
  const auto ids = engine::Registry::instance().ids();
  std::string choices = "auto";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    choices += (i + 1 == ids.size()) ? ", or " : ", ";
    choices += ids[i];
  }
  return choices;
}

std::string engine_values() {
  std::string values = "auto";
  for (const std::string_view id : engine::Registry::instance().ids()) {
    values += '|';
    values += id;
  }
  return values;
}

}  // namespace

CommandLine parse_command_line(int argc, char** argv) {
  CommandLine command_line;
  Options& options = command_line.options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--certify") {
      options.certify = ddm::EvalPolicy{}.tolerance;
    } else if (arg.rfind("--certify=", 0) == 0) {
      options.certify = parse_rational("--certify tolerance", arg.substr(10));
      if (options.certify->signum() < 0) {
        throw BadArgument("invalid --certify tolerance '" + arg.substr(10) + "' (must be >= 0)");
      }
    } else if (arg == "--checkpoint" || arg == "--resume") {
      if (i + 1 >= argc) throw BadArgument(arg + " requires a file argument");
      options.checkpoint_path = argv[++i];
      options.resume = options.resume || arg == "--resume";
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_path = arg.substr(8);
      if (options.trace_path.empty()) {
        throw BadArgument("invalid --trace '' (expected --trace=<file>)");
      }
    } else if (arg == "--trace") {
      throw BadArgument("--trace requires a file (use --trace=<file>)");
    } else if (arg.rfind("--engine=", 0) == 0) {
      options.engine = arg.substr(9);
      options.engine_set = true;
      if (options.engine != "auto" &&
          engine::Registry::instance().find(options.engine) == nullptr) {
        throw BadArgument("invalid --engine '" + options.engine + "' (expected " +
                          engine_choices() + ")");
      }
    } else if (arg == "--engine") {
      throw BadArgument("--engine requires a value (use --engine=" + engine_values() + ")");
    } else if (arg.rfind("--shard=", 0) == 0) {
      const std::string value = arg.substr(8);
      const auto slash = value.find('/');
      bool ok = slash != std::string::npos && slash > 0 && slash + 1 < value.size();
      if (ok) {
        try {
          options.shard_index = parse_u32("--shard index", value.substr(0, slash));
          options.shard_count = parse_u32("--shard count", value.substr(slash + 1));
        } catch (const BadArgument&) {
          ok = false;
        }
      }
      if (!ok || options.shard_count == 0 || options.shard_index >= options.shard_count) {
        throw BadArgument("invalid --shard '" + value +
                          "' (expected i/k with 0 <= i < k, e.g. --shard=0/3)");
      }
      options.shard_set = true;
    } else if (arg == "--shard") {
      throw BadArgument("--shard requires a value (use --shard=i/k)");
    } else if (arg.rfind("--scenario=", 0) == 0) {
      options.scenario = arg.substr(11);
      options.scenario_set = true;
      if (options.scenario.empty()) {
        throw BadArgument(
            "invalid --scenario '' (expected homogeneous, heterogeneous, or deviating:<k>)");
      }
    } else if (arg == "--scenario") {
      throw BadArgument("--scenario requires a value (use --scenario=<descriptor>)");
    } else if (arg.rfind("--ranges=", 0) == 0) {
      options.ranges = arg.substr(9);
      options.ranges_set = true;
      if (options.ranges.empty()) {
        throw BadArgument("invalid --ranges '' (expected --ranges=c_1,..,c_n)");
      }
    } else if (arg == "--ranges") {
      throw BadArgument("--ranges requires a value (use --ranges=c_1,..,c_n)");
    } else if (arg.rfind("--store=", 0) == 0) {
      options.store_dir = arg.substr(8);
      if (options.store_dir.empty()) {
        throw BadArgument("invalid --store '' (expected --store=<dir>)");
      }
    } else if (arg == "--store") {
      throw BadArgument("--store requires a directory (use --store=<dir>)");
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      const std::string format = arg.substr(10);
      if (format == "json") {
        options.metrics_format = Options::MetricsFormat::kJson;
      } else if (format == "prom") {
        options.metrics_format = Options::MetricsFormat::kProm;
      } else {
        throw BadArgument("invalid --metrics format '" + format + "' (expected json or prom)");
      }
      options.metrics = true;
    } else if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg.rfind("--", 0) == 0) {
      throw BadArgument("unknown option '" + arg + "'");
    } else {
      command_line.args.push_back(arg);
    }
  }
  return command_line;
}

engine::Scenario resolve_scenario(const Options& options) {
  if (!options.scenario_set) {
    if (options.ranges_set) {
      throw BadArgument("--ranges requires --scenario=heterogeneous");
    }
    return engine::Scenario{};
  }
  if (options.scenario == "heterogeneous") {
    if (!options.ranges_set) {
      throw BadArgument(
          "--scenario=heterogeneous requires per-player ranges: add --ranges=c_1,..,c_n or "
          "write --scenario=heterogeneous:c_1,..,c_n");
    }
    try {
      return engine::Scenario::heterogeneous(engine::Scenario::parse_ranges(options.ranges));
    } catch (const Error& error) {
      throw BadArgument("invalid --ranges '" + options.ranges + "': " + error.what());
    }
  }
  if (options.ranges_set) {
    throw BadArgument(options.scenario.rfind("heterogeneous:", 0) == 0
                          ? "--scenario=heterogeneous:... carries its own ranges; drop --ranges"
                          : "--ranges only applies to --scenario=heterogeneous");
  }
  try {
    return engine::Scenario::parse(options.scenario);
  } catch (const Error& error) {
    throw BadArgument("invalid --scenario '" + options.scenario + "': " + error.what());
  }
}

void enable_observability(const Options& options) {
  if (!options.trace_path.empty()) ddm::obs::start_tracing();
  if (options.metrics) ddm::obs::set_metrics_enabled(true);
}

int finalize_observability(const Options& options) {
  int rc = 0;
  if (!options.trace_path.empty()) {
    ddm::obs::stop_tracing();
    try {
      ddm::obs::export_chrome_trace(options.trace_path);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      rc = 2;
    }
  }
  if (options.metrics) {
    const auto& registry = ddm::obs::Registry::instance();
    switch (options.metrics_format) {
      case Options::MetricsFormat::kText:
        registry.write_text(std::cerr);
        break;
      case Options::MetricsFormat::kJson:
        registry.write_json(std::cerr);
        break;
      case Options::MetricsFormat::kProm:
        registry.write_prometheus(std::cerr);
        break;
    }
  }
  return rc;
}

}  // namespace ddm::cli
