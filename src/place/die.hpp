// Die / row geometry for standard-cell placement.
#pragma once

#include <cstddef>

namespace rapids {

struct DieSpec {
  double row_height = 13.0;      // um
  double target_utilization = 0.70;
  double aspect_ratio = 1.0;     // height / width
  double io_margin = 5.0;        // pad offset outside the core, um

  bool operator==(const DieSpec&) const = default;
};

/// Concrete die computed from total cell area and a DieSpec.
struct Die {
  double width = 0.0;   // core width, um
  double height = 0.0;  // core height, um
  int num_rows = 0;
  double row_height = 13.0;

  /// y coordinate of the center of row r.
  double row_y(int r) const { return (r + 0.5) * row_height; }

  /// Row index nearest to y, clamped to valid rows.
  int nearest_row(double y) const;
};

/// Size a die to fit `total_cell_area` at the requested utilization.
/// `min_width` is the widest single cell: tiny netlists otherwise round to
/// a die narrower than one cell and legalization has no legal row for it
/// (found by the differential fuzzer on a 1-gate circuit). When the
/// minimum binds, the row count shrinks and utilization drops below
/// target; legality wins over density.
Die make_die(double total_cell_area, const DieSpec& spec = {}, double min_width = 0.0);

}  // namespace rapids
