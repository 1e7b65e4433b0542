#include "distributed/protocols.h"

namespace smallworld {

Action DistributedGreedy::on_wake(const LocalView& view, ProtocolMessage& message,
                                  NodeSlot& slot) const {
    (void)slot;
    if (view.self() == message.target) return Action::deliver();
    const BestNeighbor best = view.best();
    if (best.vertex == kNoVertex || !(best.value > view.phi(view.self()))) {
        return Action::drop();
    }
    return Action::forward(best.vertex);
}

}  // namespace smallworld
