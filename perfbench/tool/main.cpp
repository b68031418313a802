// perfbench: the benchmark's native half. run.py drives it; each
// subcommand prints one JSON object as its last stdout line.
//
//   perfbench history --dir D --seed S
//   perfbench service --parcl BIN --history D --work W --seed S --seconds T
//                     [--traced]
//   perfbench trace --parcl BIN --out FILE [--stdin FILE] -- PARCL-ARGS...
#include <csignal>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "service.hpp"
#include "traced_run.hpp"

namespace {

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> rest;  // after "--"

  std::string get(const std::string& name) const {
    auto it = flags.find(name);
    if (it == flags.end()) throw std::runtime_error("missing --" + name);
    return it->second;
  }
  double num(const std::string& name) const { return std::stod(get(name)); }
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--") {
      args.rest.assign(argv + i + 1, argv + argc);
      break;
    }
    if (arg.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + arg);
    std::string name = arg.substr(2);
    if (name == "traced") {
      args.flags[name] = std::string(1, '1');
    } else if (i + 1 < argc) {
      args.flags[name] = argv[++i];
    } else {
      throw std::runtime_error("missing value for " + arg);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::cerr << "usage: perfbench history|service|trace ...\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    Args args = parse(argc, argv);
    if (command == "history") {
      seed_history(args.get("dir"), static_cast<std::uint64_t>(args.num("seed")));
      std::cout << "{}\n";
      return 0;
    }
    if (command == "service") {
      ServiceConfig config;
      config.parcl_bin = args.get("parcl");
      config.history_dir = args.get("history");
      config.work_dir = args.get("work");
      config.seed = static_cast<std::uint64_t>(args.num("seed"));
      config.seconds = args.num("seconds");
      Metrics m = args.flags.count("traced") ? service_traced(config) : service_e2e(config);
      std::cout << m.json() << '\n';
      return 0;
    }
    if (command == "trace") {
      TracedRunConfig config;
      config.argv = args.rest;
      config.parcl_bin = args.get("parcl");
      config.out_path = args.get("out");
      config.stdin_path = args.flags.count("stdin") ? args.flags.at("stdin") : "";
      TracedRunResult run = traced_cli_run(config);
      Metrics m = run.metrics;
      m.set("jobs", static_cast<double>(run.jobs));
      m.set("failed", static_cast<double>(run.summary.failed + run.summary.killed));
      m.set("wall_s", run.wall_seconds);
      std::cout << m.json() << '\n';
      return 0;
    }
    std::cerr << "perfbench: unknown command " << command << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench " << command << ": " << error.what() << '\n';
    return 1;
  }
}
