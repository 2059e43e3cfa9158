#include "browser/event_loop.h"

#include <utility>

namespace bnm::browser {

EventLoop::EventLoop(sim::Simulation& sim, std::string name)
    : sim_{sim}, name_{std::move(name)} {}

}  // namespace bnm::browser
