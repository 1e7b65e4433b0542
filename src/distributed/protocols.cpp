#include "distributed/protocols.h"

namespace smallworld {

Action DistributedGreedy::on_wake(const LocalView& view, ProtocolMessage& message,
                                  NodeSlot& slot) const {
    (void)slot;
    if (view.self() == message.target) return Action::deliver();
    // Only a strict improvement on the holder moves the message on.
    const BestNeighbor best = view.best(view.phi(view.self()));
    if (best.vertex == kNoVertex) return Action::drop();
    return Action::forward(best.vertex);
}

}  // namespace smallworld
