#include "geometry/cells.h"

namespace smallworld {

Cell cell_of_point(const double* point, int dim, int level) noexcept {
    Cell cell;
    cell.level = level;
    cell_coords_of_point(point, dim, level, cell.coords);
    return cell;
}

}  // namespace smallworld
