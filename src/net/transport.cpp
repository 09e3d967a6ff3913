#include "net/transport.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace dlb::net {

SimTransport::SimTransport(des::Engine& engine, Network& network,
                           std::size_t num_machines)
    : engine_(&engine),
      network_(&network),
      machines_(num_machines),
      clock_(engine) {
  std::iota(machines_.begin(), machines_.end(), MachineId{0});
}

void SimTransport::send(const Frame& frame) {
  if (!handler_) {
    throw std::logic_error("SimTransport: send before set_handler");
  }
  // The network applies the latency and the fault plan exactly as it
  // did when the runner passed it raw callbacks, so the event sequence —
  // and with it every legacy byte-identity test — is unchanged.
  network_->send(frame.from, frame.to,
                 [this, frame] { handler_(frame); });
}

void SimTransport::schedule_after(double delay, TimerCallback callback) {
  engine_->schedule_after(delay, std::move(callback));
}

std::size_t SimTransport::poll(double /*max_wait*/) {
  if (engine_->empty()) return 0;
  return engine_->run(1);
}

}  // namespace dlb::net
