#include "girg/girg.h"

#include <limits>
#include <memory>

#include "core/annotations.h"
#include "geometry/torus.h"
#include "girg/hub_rows.h"
#include "girg/phi_records.h"

namespace smallworld {

namespace detail {
Mutex phi_soa_mutex;  // declared in girg.h next to the member it guards
}  // namespace detail

const std::shared_ptr<const PhiRecords>& Girg::fresh_phi_soa() const {
    if (phi_soa_cache_ == nullptr || phi_soa_cache_->size() != weights.size()) {
        phi_soa_cache_ = std::make_shared<PhiRecords>(weights, positions);
    }
    return phi_soa_cache_;
}

std::shared_ptr<const PhiRecords> Girg::phi_soa() const {
    const MutexLock lock(detail::phi_soa_mutex);
    return fresh_phi_soa();
}

std::shared_ptr<const HubRowSummary> Girg::hub_rows() const {
    const MutexLock lock(detail::phi_soa_mutex);
    const std::shared_ptr<const PhiRecords>& records = fresh_phi_soa();
    if (hub_rows_cache_ == nullptr || !hub_rows_cache_->built_from(graph, records.get())) {
        hub_rows_cache_ = std::make_shared<HubRowSummary>(graph, records, params.norm);
    }
    return hub_rows_cache_;
}

void Girg::invalidate_phi_soa() const {
    const MutexLock lock(detail::phi_soa_mutex);
    phi_soa_cache_.reset();
    hub_rows_cache_.reset();
}

double Girg::objective(Vertex v, const double* target_position) const noexcept {
    const double dist =
        torus_distance(position(v), target_position, params.dim, params.norm);
    double dist_pow_d = dist;
    for (int i = 1; i < params.dim; ++i) dist_pow_d *= dist;
    if (dist_pow_d == 0.0) return std::numeric_limits<double>::infinity();
    return weights[v] / (params.wmin * params.n * dist_pow_d);
}

double Girg::distance(Vertex u, Vertex v) const noexcept {
    return torus_distance(position(u), position(v), params.dim, params.norm);
}

}  // namespace smallworld
