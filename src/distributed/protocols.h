#pragma once

#include "core/walk.h"

#include <string>

namespace smallworld {

/// Algorithm 1 as a node-local handler for the lockstep walk (core/walk.h):
/// forward to the best neighbor if it improves on the current node, else
/// drop. Stateless per node. Algorithm 2's handler, DistributedPhiDfs, lives
/// with its router in core/phi_dfs.h.
class DistributedGreedy final : public DistributedProtocol {
public:
    [[nodiscard]] Action on_wake(const LocalView& view, ProtocolMessage& message,
                                 NodeSlot& slot) const override;
    [[nodiscard]] std::string name() const override { return "dist-greedy"; }
};

}  // namespace smallworld
