// commands.hpp — handler declarations for the ddm_cli subcommands.
//
// Each handler lives in its own cmd_<name>.cpp and receives the positional
// arguments (command name first, exactly as dispatched) plus the parsed
// global options. Handlers throw BadArgument for malformed values (exit 2)
// and return the subcommand's exit status otherwise.
#pragma once

#include <string>
#include <vector>

#include "cli/options.hpp"

namespace ddm::cli {

int run_oblivious(const std::vector<std::string>& args, const Options& options);
int run_threshold(const std::vector<std::string>& args, const Options& options);
int run_analyze(const std::vector<std::string>& args, const Options& options);
int run_simulate(const std::vector<std::string>& args, const Options& options);
int run_volume(const std::vector<std::string>& args, const Options& options);
int run_ladder(const std::vector<std::string>& args, const Options& options);
int run_deviate(const std::vector<std::string>& args, const Options& options);
int run_sweep(const std::vector<std::string>& args, const Options& options);
int run_plans(const std::vector<std::string>& args, const Options& options);
int run_merge(const std::vector<std::string>& args, const Options& options);

}  // namespace ddm::cli
