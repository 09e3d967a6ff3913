// dlbd: the load-balancing daemon binary. One process per host of a real
// deployment; frames travel over TCP or Unix-domain sockets and the
// operator drives the daemon over a line-oriented command channel on
// stdin/stdout (see src/daemon/daemon.hpp for the command table and
// tools/dlb_cluster.py for the launcher that orchestrates a cluster).
//
//   dlbd --in instance.inst
//        --hosts unix:/tmp/a.sock=0-3,unix:/tmp/b.sock=4-7 --self 1
//        [--alg dlb2c] [--seed 1] [--rounds 10] [--retry-timeout 0.5]
//        [--connect-timeout 15] [--fault none|drop|delay|duplicate|
//        reorder|chaos --fault-p P --fault-seed S]
//        [--trace] [--metrics-json FILE] [--trace-json FILE]
//        [--flight-json FILE]
//
// --trace enables the in-memory trace ring (the `trace` command) without
// requiring a shutdown dump path; --trace-json implies it. The *-json
// flags dump metrics / trace / flight-recorder JSON on shutdown.
//
// The daemon prints "ready" on stdout once the mesh is connected and the
// protocol is running, then serves commands until `shutdown` or stdin
// EOF. Logs go to stderr.

#include <csignal>

#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/flags.hpp"
#include "daemon/daemon.hpp"

namespace {

int run(const std::vector<std::string>& argv) {
  using namespace dlb::cli;
  const Args args = Args::parse(argv);
  InputFlag input(args);
  dlb::daemon::DaemonOptions options;
  options.hosts = dlb::daemon::parse_host_manifest(args.require("hosts"));
  options.self = args.get_count("self", 0);
  options.kernel = &kernel_by_alg(args.get("alg", "dlb2c"));
  options.seed = args.get_count("seed", 1);
  options.rounds = args.get_count("rounds", 10);
  options.retry_timeout = args.get_double("retry-timeout", 0.5);
  options.connect_timeout = args.get_double("connect-timeout", 15.0);
  options.fault = fault_flags(args, options.seed);
  const ObsFlags obs(args);
  options.trace = args.has("trace") || !obs.trace.empty();
  args.reject_unused();
  const dlb::Instance& instance = input.load();

  dlb::daemon::Daemon daemon(instance, options);
  const std::size_t self = options.self;
  std::cerr << "dlbd[" << self << "] listening on "
            << daemon.transport().listen_address() << ", machines "
            << options.hosts[self].machine_lo << "-"
            << options.hosts[self].machine_hi - 1 << "\n"
            << std::flush;
  daemon.connect_and_start();
  std::cout << "ready\n" << std::flush;
  std::cerr << "dlbd[" << self << "] mesh connected, protocol started\n"
            << std::flush;

  daemon.serve(0, std::cout, std::cerr);
  // A dump that cannot be written is "cannot write" and exit 1, never a
  // silent loss; the summary lines go to the log.
  obs.write(daemon.metrics(), daemon.tracer(), daemon.flight(), std::cerr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer (or the launcher) vanishing mid-write must surface as an I/O
  // error, not a process kill.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::invalid_argument& e) {
    std::cerr << "dlbd: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "dlbd: " << e.what() << "\n";
    return 1;
  }
}
