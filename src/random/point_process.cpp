#include "random/point_process.h"

#include <stdexcept>

namespace smallworld {

PointCloud sample_uniform_points(std::size_t count, int dim, Rng& rng) {
    if (dim < 1) throw std::invalid_argument("sample_uniform_points: dim must be >= 1");
    PointCloud cloud;
    cloud.dim = dim;
    cloud.coords.resize(count * static_cast<std::size_t>(dim));
    for (double& c : cloud.coords) c = rng.uniform();
    return cloud;
}

PointCloud sample_poisson_point_process(double intensity, int dim, Rng& rng) {
    if (!(intensity >= 0.0)) {
        throw std::invalid_argument("sample_poisson_point_process: intensity must be >= 0");
    }
    // std::poisson_distribution requires a positive mean (libstdc++ asserts
    // it under _GLIBCXX_ASSERTIONS); intensity 0 has no points and no draw.
    const std::uint64_t count = intensity > 0.0 ? rng.poisson(intensity) : 0;
    return sample_uniform_points(static_cast<std::size_t>(count), dim, rng);
}

}  // namespace smallworld
