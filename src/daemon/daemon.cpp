#include "daemon/daemon.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cli/args.hpp"
#include "cli/flags.hpp"
#include "core/generators.hpp"
#include "dist/checkpoint.hpp"
#include "obs/aggregate.hpp"

namespace dlb::daemon {

namespace {

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream stream(line);
  std::string word;
  while (stream >> word) words.push_back(word);
  return words;
}

/// A count argument below `limit`, in the shared number grammar: a
/// hostile id is refused here, before it can index anything.
std::uint64_t parse_u64(
    const std::string& text, const char* what,
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max()) {
  const std::optional<std::uint64_t> value = cli::to_count(text);
  if (!value) {
    throw std::invalid_argument(std::string("expected a number for ") +
                                what + ", got '" + text + "'");
  }
  if (*value >= limit) {
    throw std::invalid_argument(std::string(what) + " " + text +
                                " out of range (" + std::to_string(limit) +
                                " " + what + "s)");
  }
  return *value;
}

// The command table: the shell idiom — one row per verb, dispatch by
// name, `help` renders the table itself.
struct CommandSpec {
  const char* name;
  const char* usage;
  const char* summary;
  std::string (Daemon::*handler)(const std::vector<std::string>&);
};

constexpr CommandSpec kCommands[] = {
    {"help", "help", "list commands", &Daemon::cmd_help},
    {"status", "status", "protocol state, counters, machine loads",
     &Daemon::cmd_status},
    {"jobs", "jobs", "job ids per local machine (ascending)",
     &Daemon::cmd_jobs},
    {"drain", "drain", "reject new incoming sessions",
     &Daemon::cmd_drain},
    {"checkpoint", "checkpoint <path>", "freeze the replica to a file",
     &Daemon::cmd_checkpoint},
    {"resume", "resume <path>", "restore the replica from a checkpoint",
     &Daemon::cmd_resume},
    {"adopt", "adopt <machine> <job>...",
     "re-dispatch orphaned jobs onto a local machine",
     &Daemon::cmd_adopt},
    {"mark-dead", "mark-dead <machine>",
     "declare a machine crashed; skip and route around it",
     &Daemon::cmd_mark_dead},
    {"inject", "inject <token>",
     "re-inject the session token lost with a crashed holder",
     &Daemon::cmd_inject},
    {"metrics", "metrics", "metrics registry snapshot as JSON",
     &Daemon::cmd_metrics},
    {"scrape", "scrape",
     "metrics snapshot as Prometheus text exposition",
     &Daemon::cmd_scrape},
    {"flight", "flight", "convergence flight-recorder ring as JSON",
     &Daemon::cmd_flight},
    {"trace", "trace", "trace ring as Chrome/Perfetto JSON",
     &Daemon::cmd_trace},
    {"shutdown", "shutdown", "stop serving and exit",
     &Daemon::cmd_shutdown},
};

}  // namespace

std::vector<net::HostSpec> parse_host_manifest(
    const std::string& manifest) {
  std::vector<net::HostSpec> hosts;
  for (const std::string& entry : cli::split_list(manifest)) {
    const std::size_t eq = entry.rfind('=');
    const std::size_t dash =
        eq == std::string::npos ? std::string::npos : entry.find('-', eq);
    if (eq == std::string::npos || dash == std::string::npos) {
      throw std::invalid_argument(
          "host manifest entry '" + entry +
          "' is not ADDR=LO-HI (e.g. unix:/tmp/a.sock=0-3)");
    }
    net::HostSpec host;
    host.address = entry.substr(0, eq);
    host.machine_lo = static_cast<MachineId>(
        parse_u64(entry.substr(eq + 1, dash - eq - 1), "machine range"));
    host.machine_hi = static_cast<MachineId>(
        parse_u64(entry.substr(dash + 1), "machine range") + 1);
    hosts.push_back(std::move(host));
  }
  return hosts;
}

Daemon::Daemon(const Instance& instance, DaemonOptions options)
    : instance_(&instance),
      options_(std::move(options)),
      replica_(instance,
               gen::random_assignment(instance, options_.seed)) {
  obs_.metrics = &metrics_;
  if (options_.trace) obs_.tracer = &tracer_;
  obs_.flight = &flight_;

  net::SocketTransportOptions transport_options;
  transport_options.hosts = options_.hosts;
  transport_options.self = options_.self;
  transport_options.obs = &obs_;
  transport_options.connect_timeout = options_.connect_timeout;
  if (!options_.fault.trivial()) {
    transport_options.chaos = &options_.fault;
  }
  transport_ =
      std::make_unique<net::SocketTransport>(std::move(transport_options));

  dist::TransportRunnerOptions runner_options;
  runner_options.kernel = options_.kernel;
  runner_options.seed = options_.seed;
  runner_options.rounds = options_.rounds;
  runner_options.retry_timeout = options_.retry_timeout;
  runner_options.obs = &obs_;
  runner_ = std::make_unique<dist::TransportRunner>(replica_, *transport_,
                                                    runner_options);
  started_at_ = transport_->now();
}

Daemon::~Daemon() = default;

void Daemon::connect_and_start() {
  transport_->connect();
  runner_->start();
}

std::string Daemon::execute(const std::string& line) {
  const std::vector<std::string> words = split_words(line);
  if (words.empty()) return "ok\n";
  if (shutdown_) {
    // Exports (metrics/scrape/flight/trace) stream from rings the exit
    // path tears down; refusing everything after shutdown keeps a racing
    // scraper from ever seeing a truncated reply.
    return "error: daemon is shutting down\n";
  }
  for (const CommandSpec& command : kCommands) {
    if (words.front() != command.name) continue;
    try {
      std::string reply = (this->*command.handler)(words);
      reply += "ok\n";
      return reply;
    } catch (const std::exception& e) {
      return std::string("error: ") + e.what() + "\n";
    }
  }
  return "error: unknown command '" + words.front() +
         "' (try 'help')\n";
}

void Daemon::serve(int input_fd, std::ostream& out, std::ostream& log) {
  const int flags = ::fcntl(input_fd, F_GETFL, 0);
  ::fcntl(input_fd, F_SETFL, flags | O_NONBLOCK);
  std::string buffer;
  bool input_open = true;
  transport_->add_watch(input_fd, [&] {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(input_fd, chunk, sizeof chunk);
      if (n > 0) {
        buffer.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or error: the launcher is gone. Stop serving once the lines
      // that arrived with the EOF have been answered.
      input_open = false;
      break;
    }
    std::size_t newline = 0;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      log << "dlbd[" << options_.self << "] <- " << line << "\n"
          << std::flush;
      out << execute(line) << std::flush;
    }
    if (!input_open) shutdown_ = true;
  });

  bool reported_done = false;
  while (!shutdown_) {
    transport_->poll(0.05);
    if (!reported_done && runner_->done()) {
      reported_done = true;
      log << "dlbd[" << options_.self << "] protocol done (watermark "
          << runner_->watermark() << " of " << runner_->total() << ")\n"
          << std::flush;
    }
  }
  transport_->remove_watch(input_fd);
  log << "dlbd[" << options_.self << "] shutting down\n" << std::flush;
}

std::string Daemon::cmd_help(const std::vector<std::string>&) {
  std::string reply;
  for (const CommandSpec& command : kCommands) {
    std::string row = command.usage;
    row.resize(std::max<std::size_t>(row.size() + 2, 28), ' ');
    reply += row + command.summary + "\n";
  }
  return reply;
}

std::string Daemon::cmd_status(const std::vector<std::string>&) {
  const dist::TransportRunner::Counters& counters = runner_->counters();
  std::ostringstream reply;
  reply << "state "
        << (runner_->done()
                ? "done"
                : runner_->draining() ? "draining" : "running")
        << "\n"
        << "watermark " << runner_->watermark() << " of "
        << runner_->total() << "\n"
        << "sessions " << counters.sessions_initiated << " completed "
        << counters.sessions_completed << "\n"
        << "exchanges " << counters.exchanges << "\n"
        << "migrations " << counters.migrations << "\n"
        << "transfers " << counters.transfers_sent << " applied "
        << counters.transfers_applied << "\n"
        << "retries " << counters.retries << "\n"
        << "duplicates " << counters.duplicates_ignored << "\n";
  if (!options_.fault.trivial()) {
    reply << "faults " << cli::fault_summary(transport_->chaos_stats())
          << "\n";
  }
  for (const MachineId machine : transport_->local_machines()) {
    reply << "machine " << machine << " load="
          << cli::exact_double(runner_->canonical_load(machine))
          << " jobs=" << runner_->sorted_jobs(machine).size() << "\n";
  }
  return reply.str();
}

std::string Daemon::cmd_jobs(const std::vector<std::string>&) {
  std::ostringstream reply;
  for (const MachineId machine : transport_->local_machines()) {
    reply << "machine " << machine << ":";
    for (const JobId job : runner_->sorted_jobs(machine)) {
      reply << " " << job;
    }
    reply << "\n";
  }
  return reply.str();
}

std::string Daemon::cmd_drain(const std::vector<std::string>&) {
  runner_->set_draining(true);
  return "";
}

std::string Daemon::cmd_checkpoint(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    throw std::invalid_argument("usage: checkpoint <path>");
  }
  const dist::TransportRunner::Counters& counters = runner_->counters();
  dist::Checkpoint checkpoint;
  checkpoint.engine = dist::Checkpoint::Engine::kSequential;
  checkpoint.seed = options_.seed;
  checkpoint.freeze(replica_);
  checkpoint.epochs = runner_->watermark();
  checkpoint.exchanges = counters.sessions_completed;
  checkpoint.changed_exchanges = counters.exchanges;
  checkpoint.migrations = counters.migrations;
  checkpoint.initial_makespan = replica_.makespan();
  checkpoint.best_makespan = replica_.makespan();
  const auto live = replica_.live_mask();
  checkpoint.live.assign(live.begin(), live.end());
  checkpoint.order.resize(replica_.num_machines());
  std::iota(checkpoint.order.begin(), checkpoint.order.end(),
            MachineId{0});
  checkpoint.save_file(args[1]);
  return "wrote " + args[1] + "\n";
}

std::string Daemon::cmd_resume(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    throw std::invalid_argument("usage: resume <path>");
  }
  dist::Checkpoint::load_file(args[1]).thaw_into(replica_);
  return "restored " + args[1] + "\n";
}

std::string Daemon::cmd_adopt(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    throw std::invalid_argument("usage: adopt <machine> <job>...");
  }
  const auto machine = static_cast<MachineId>(
      parse_u64(args[1], "machine", replica_.num_machines()));
  // Every id is checked before any job moves: a bad list changes nothing.
  std::vector<JobId> jobs;
  jobs.reserve(args.size() - 2);
  for (std::size_t i = 2; i < args.size(); ++i) {
    jobs.push_back(
        static_cast<JobId>(parse_u64(args[i], "job", replica_.num_jobs())));
  }
  runner_->adopt(jobs, machine);
  return "adopted " + std::to_string(jobs.size()) + " jobs onto machine " +
         std::to_string(machine) + "\n";
}

std::string Daemon::cmd_mark_dead(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    throw std::invalid_argument("usage: mark-dead <machine>");
  }
  const auto machine = static_cast<MachineId>(
      parse_u64(args[1], "machine", replica_.num_machines()));
  runner_->mark_dead(machine);
  // A crash takes out a whole daemon, so a dead machine means its host
  // is gone: drop the link so reachable() stops routing sessions at the
  // remaining range before TCP would notice.
  for (std::size_t host = 0; host < options_.hosts.size(); ++host) {
    const net::HostSpec& spec = options_.hosts[host];
    if (machine < spec.machine_lo || machine >= spec.machine_hi) continue;
    if (host != options_.self) transport_->mark_down(host);
  }
  return "";
}

std::string Daemon::cmd_inject(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    throw std::invalid_argument("usage: inject <token>");
  }
  runner_->inject_token(parse_u64(args[1], "token"));
  return "";
}

void Daemon::refresh_uptime() {
  metrics_.gauge("daemon.uptime_seconds")
      .set(transport_->now() - started_at_);
}

std::string Daemon::cmd_metrics(const std::vector<std::string>&) {
  refresh_uptime();
  return metrics_.snapshot().dump(2) + "\n";
}

std::string Daemon::cmd_scrape(const std::vector<std::string>&) {
  refresh_uptime();
  return obs::prometheus_exposition(metrics_.snapshot());
}

std::string Daemon::cmd_flight(const std::vector<std::string>&) {
  return flight_.to_json().dump(2) + "\n";
}

std::string Daemon::cmd_trace(const std::vector<std::string>&) {
  if (obs_.tracer == nullptr) {
    throw std::invalid_argument(
        "tracing is disabled; start dlbd with --trace");
  }
  return tracer_.to_chrome_json().dump(2) + "\n";
}

std::string Daemon::cmd_shutdown(const std::vector<std::string>&) {
  shutdown_ = true;
  return "";
}

}  // namespace dlb::daemon
