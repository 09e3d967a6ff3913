#include "net/network.hpp"

#include <utility>

namespace dlb::net {

void Network::send(MachineId /*from*/, MachineId /*to*/,
                   std::function<void()> deliver) {
  ++messages_;
  if (obs_messages_) {
    obs_messages_->add();
    obs_last_latency_->set(latency_);
  }
  if (!faults_.live()) {
    engine_->schedule_after(latency_, std::move(deliver));
    return;
  }
  // A released message is scheduled right after its releaser at the same
  // delivery time, so FIFO tie-breaking delivers it behind.
  faults_.send(std::move(deliver),
               [this](double extra, FaultInjector::Delivery copy) {
                 engine_->schedule_after(latency_ + extra, std::move(copy));
               });
}

void Network::attach_obs(const obs::Context* context) {
  obs::Metrics* metrics = obs::metrics_of(context);
  obs_messages_ = metrics ? &metrics->counter("net.messages") : nullptr;
  obs_last_latency_ = metrics ? &metrics->gauge("net.last_latency") : nullptr;
  faults_.set_metrics(metrics);
}

}  // namespace dlb::net
