#include "place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "netlist/topo.hpp"
#include "place/wirelength.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace rapids {

namespace {

bool occupies_row(GateType t) {
  return is_logic(t) || t == GateType::Const0 || t == GateType::Const1;
}

double cell_width(const Network& net, const CellLibrary& lib, GateId g, double row_height) {
  const std::int32_t c = net.cell(g);
  // Unmapped gates get a nominal footprint so pre-mapping placement works.
  const double area = c >= 0 ? lib.cell(c).area : 50.0;
  return area / row_height;
}

/// Flat annealing state, built once after the levelized seed. Annealing
/// never edits the network, so every net's pins and every cell's weighted
/// incident nets are fixed; only coordinates and the per-net HPWL cache
/// change. A cell's cost sums its terms in incident order (its own net,
/// then each fanin net) and HPWL is a min/max bounding box, so every cost
/// is bit-identical to recomputing net_hpwl() from the Network.
class AnnealTables {
 public:
  AnnealTables(const Network& net, const Placement& pl, const std::vector<GateId>& cells,
               const std::vector<double>& weights)
      : pos_(net.id_bound()) {
    std::vector<std::uint32_t> net_of(net.id_bound());
    pin_begin_.push_back(0);
    net.for_each_gate([&](GateId g) {
      if (pl.is_placed(g)) pos_[g] = pl.at(g);
      if (net.fanout_count(g) == 0) return;
      net_of[g] = static_cast<std::uint32_t>(pin_begin_.size() - 1);
      // An unplaced driver leaves the pin list empty: HPWL 0, as net_hpwl.
      if (pl.is_placed(g)) {
        pins_.push_back(g);
        for (const Pin& pin : net.fanouts(g)) {
          if (pl.is_placed(pin.gate)) pins_.push_back(pin.gate);
        }
      }
      pin_begin_.push_back(static_cast<std::uint32_t>(pins_.size()));
    });
    hpwl_.resize(pin_begin_.size() - 1);
    for (std::uint32_t n = 0; n < hpwl_.size(); ++n) hpwl_[n] = net_hpwl(n);

    auto weight = [&weights](GateId driver) {
      return driver < weights.size() ? weights[driver] : 1.0;
    };
    term_begin_.reserve(cells.size() + 1);
    term_begin_.push_back(0);
    for (const GateId g : cells) {
      if (net.fanout_count(g) > 0) terms_.push_back({net_of[g], weight(g)});
      for (const GateId f : net.fanins(g)) terms_.push_back({net_of[f], weight(f)});
      term_begin_.push_back(static_cast<std::uint32_t>(terms_.size()));
    }
  }

  Point& pos(GateId g) { return pos_[g]; }

  /// Weighted HPWL of the cell's incident nets, from the cache.
  double cached_cost(std::size_t cell) const {
    double cost = 0.0;
    for (std::uint32_t t = term_begin_[cell]; t < term_begin_[cell + 1]; ++t) {
      cost += terms_[t].weight * hpwl_[terms_[t].net];
    }
    return cost;
  }

  /// The same sum at the current coordinates; appends each term's HPWL to
  /// `fresh` for accept().
  double fresh_cost(std::size_t cell, std::vector<double>& fresh) const {
    double cost = 0.0;
    for (std::uint32_t t = term_begin_[cell]; t < term_begin_[cell + 1]; ++t) {
      const double h = net_hpwl(terms_[t].net);
      fresh.push_back(h);
      cost += terms_[t].weight * h;
    }
    return cost;
  }

  /// Store the HPWLs fresh_cost() appended for `cells`, in the same order.
  void accept(std::initializer_list<std::size_t> cells, const std::vector<double>& fresh) {
    std::size_t k = 0;
    for (const std::size_t cell : cells) {
      for (std::uint32_t t = term_begin_[cell]; t < term_begin_[cell + 1]; ++t) {
        hpwl_[terms_[t].net] = fresh[k++];
      }
    }
  }

 private:
  struct Term {
    std::uint32_t net;
    double weight;
  };

  double net_hpwl(std::uint32_t n) const {
    const std::uint32_t begin = pin_begin_[n], end = pin_begin_[n + 1];
    if (begin == end) return 0.0;
    const Point p0 = pos_[pins_[begin]];
    double xmin = p0.x, xmax = p0.x, ymin = p0.y, ymax = p0.y;
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      const Point p = pos_[pins_[i]];
      xmin = std::min(xmin, p.x);
      xmax = std::max(xmax, p.x);
      ymin = std::min(ymin, p.y);
      ymax = std::max(ymax, p.y);
    }
    return (xmax - xmin) + (ymax - ymin);
  }

  std::vector<Point> pos_;                 // by GateId
  std::vector<std::uint32_t> pin_begin_;   // CSR: net -> driver, placed sinks
  std::vector<GateId> pins_;
  std::vector<double> hpwl_;               // cached HPWL per net
  std::vector<std::uint32_t> term_begin_;  // CSR: cell index -> incident terms
  std::vector<Term> terms_;
};

/// Simulated-annealing refinement of the seeded cell coordinates in `pl`.
/// The tables live only for this call.
void anneal(const Network& net, const std::vector<GateId>& cells, const PlacerOptions& options,
            int moves_per_temp, Placement& pl) {
  const Die& die = pl.die();
  AnnealTables tables(net, pl, cells, options.net_weights);
  std::vector<double> fresh;
  Rng rng(options.seed);
  double temp = options.initial_temp_factor * (die.width + die.height);
  for (int t = 0; t < options.num_temps; ++t) {
    // Displacement window shrinks with temperature.
    const double window =
        std::max(die.row_height, (die.width + die.height) * 0.5 *
                                     std::pow(0.9, static_cast<double>(t)));
    int accepted = 0;
    for (int m = 0; m < moves_per_temp; ++m) {
      const std::size_t i = rng.next_below(cells.size());
      Point& pg = tables.pos(cells[i]);
      const bool do_swap = rng.next_bool(0.35);
      fresh.clear();
      if (do_swap) {
        const std::size_t j = rng.next_below(cells.size());
        if (i == j) continue;
        Point& ph = tables.pos(cells[j]);
        const double before = tables.cached_cost(i) + tables.cached_cost(j);
        std::swap(pg, ph);
        const double after = tables.fresh_cost(i, fresh) + tables.fresh_cost(j, fresh);
        const double delta = after - before;
        if (delta <= 0 || rng.next_double() < std::exp(-delta / temp)) {
          ++accepted;
          tables.accept({i, j}, fresh);
        } else {
          std::swap(pg, ph);
        }
      } else {
        const double before = tables.cached_cost(i);
        const Point old = pg;
        pg = Point{std::clamp(old.x + (rng.next_double() * 2.0 - 1.0) * window, 0.0, die.width),
                   std::clamp(old.y + (rng.next_double() * 2.0 - 1.0) * window, 0.0, die.height)};
        const double after = tables.fresh_cost(i, fresh);
        const double delta = after - before;
        if (delta <= 0 || rng.next_double() < std::exp(-delta / temp)) {
          ++accepted;
          tables.accept({i}, fresh);
        } else {
          pg = old;
        }
      }
    }
    log_debug() << "placer temp " << temp << " accept "
                << (100.0 * accepted / std::max(1, moves_per_temp)) << "%";
    temp *= options.cooling;
  }
  for (const GateId g : cells) pl.set(g, tables.pos(g));
}

}  // namespace

Placement place(const Network& net, const CellLibrary& lib, const PlacerOptions& options) {
  if (!std::isfinite(options.effort) || options.effort <= 0.0) {
    std::ostringstream msg;
    msg << "placer effort must be finite and > 0, got " << options.effort;
    throw InputError(msg.str());
  }

  // --- die sizing --------------------------------------------------------
  std::vector<GateId> cells;  // gates that occupy a row slot
  std::vector<double> widths;  // parallel to cells
  double total_area = 0.0;
  double max_width = 0.0;
  net.for_each_gate([&](GateId g) {
    if (occupies_row(net.type(g))) {
      cells.push_back(g);
      const double w = cell_width(net, lib, g, options.die.row_height);
      widths.push_back(w);
      total_area += w * options.die.row_height;
      max_width = std::max(max_width, w);
    }
  });
  const double moves = options.effort * static_cast<double>(cells.size());
  if (moves > static_cast<double>(std::numeric_limits<int>::max())) {
    std::ostringstream msg;
    msg << "placer effort " << options.effort << " asks for " << moves
        << " moves per temperature (limit " << std::numeric_limits<int>::max() << ")";
    throw InputError(msg.str());
  }
  if (cells.empty()) total_area = 100.0;
  const Die die = make_die(std::max(total_area, 100.0), options.die, max_width);

  Placement pl(net.id_bound());
  pl.set_die(die);

  // --- pads ---------------------------------------------------------------
  const auto pis = net.primary_inputs();
  const auto pos = net.primary_outputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    const double y = die.height * (static_cast<double>(i) + 0.5) /
                     static_cast<double>(pis.size());
    pl.set(pis[i], Point{-options.die.io_margin, y});
  }
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double y = die.height * (static_cast<double>(i) + 0.5) /
                     static_cast<double>(pos.size());
    pl.set(pos[i], Point{die.width + options.die.io_margin, y});
  }

  if (cells.empty()) return pl;

  // --- levelized seed -----------------------------------------------------
  const std::vector<int> level = logic_levels(net);
  const int depth = std::max(1, network_depth(net));
  std::vector<std::vector<GateId>> by_level(static_cast<std::size_t>(depth) + 1);
  for (const GateId g : cells) {
    const int lvl = std::clamp(level[g], 0, depth);
    by_level[static_cast<std::size_t>(lvl)].push_back(g);
  }
  for (std::size_t lvl = 0; lvl < by_level.size(); ++lvl) {
    const auto& gs = by_level[lvl];
    for (std::size_t i = 0; i < gs.size(); ++i) {
      const double x =
          die.width * (static_cast<double>(lvl) + 0.5) / (static_cast<double>(depth) + 1.0);
      const double y =
          die.height * (static_cast<double>(i) + 0.5) / static_cast<double>(gs.size());
      pl.set(gs[i], Point{x, y});
    }
  }

  // --- simulated annealing -------------------------------------------------
  anneal(net, cells, options, std::max(64, static_cast<int>(moves)), pl);

  // --- legalization -----------------------------------------------------------
  // Stage 1: capacity-checked row assignment — each cell takes the closest
  // row that still has horizontal room (the utilization target guarantees
  // global capacity). Stage 2: per-row packing with suffix limits, so every
  // cell sits as close to its desired x as the cells to its right allow;
  // legality is guaranteed whenever a row's cells fit its width.
  std::vector<double> remaining(static_cast<std::size_t>(die.num_rows), die.width);
  std::vector<std::vector<std::size_t>> rows(static_cast<std::size_t>(die.num_rows));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double w = widths[i];
    const int want_row = die.nearest_row(pl.at(cells[i]).y);
    int chosen = -1;
    for (int delta = 0; delta < die.num_rows && chosen < 0; ++delta) {
      for (const int r : {want_row - delta, want_row + delta}) {
        if (r < 0 || r >= die.num_rows) continue;
        if (remaining[static_cast<std::size_t>(r)] >= w) {
          chosen = r;
          break;
        }
      }
    }
    RAPIDS_ASSERT_MSG(chosen >= 0, "legalization ran out of row capacity");
    remaining[static_cast<std::size_t>(chosen)] -= w;
    rows[static_cast<std::size_t>(chosen)].push_back(i);
  }
  for (int r = 0; r < die.num_rows; ++r) {
    auto& row = rows[static_cast<std::size_t>(r)];
    std::sort(row.begin(), row.end(), [&](std::size_t a, std::size_t b) {
      return pl.at(cells[a]).x < pl.at(cells[b]).x;
    });
    // limit[i]: rightmost start for cell i so that cells i..n still fit.
    std::vector<double> limit(row.size());
    double suffix = die.width;
    for (std::size_t i = row.size(); i-- > 0;) {
      suffix -= widths[row[i]];
      limit[i] = suffix;
    }
    double cursor = 0.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      const GateId g = cells[row[i]];
      const double w = widths[row[i]];
      const double x = std::max(cursor, std::min(pl.at(g).x - w / 2.0, limit[i]));
      pl.set(g, Point{x + w / 2.0, die.row_y(r)});
      cursor = x + w;
    }
  }
  return pl;
}

std::vector<std::string> check_legal(const Network& net, const CellLibrary& lib,
                                     const Placement& pl) {
  std::vector<std::string> errors;
  const Die& die = pl.die();
  std::vector<std::vector<std::pair<double, GateId>>> rows(
      static_cast<std::size_t>(die.num_rows));
  net.for_each_gate([&](GateId g) {
    if (!occupies_row(net.type(g))) return;
    if (!pl.is_placed(g)) {
      errors.push_back(net.name(g) + ": not placed");
      return;
    }
    const Point p = pl.at(g);
    const int r = die.nearest_row(p.y);
    if (std::abs(die.row_y(r) - p.y) > 1e-6) {
      errors.push_back(net.name(g) + ": not row-aligned");
      return;
    }
    rows[static_cast<std::size_t>(r)].emplace_back(p.x, g);
  });
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    double prev_end = -1e18;
    for (const auto& [x, g] : row) {
      const double w = cell_width(net, lib, g, die.row_height);
      const double left = x - w / 2.0;
      if (left < prev_end - 1e-6) {
        errors.push_back(net.name(g) + ": overlaps previous cell in row");
      }
      if (left < -1e-6 || x + w / 2.0 > die.width + 1e-6) {
        errors.push_back(net.name(g) + ": outside core");
      }
      prev_end = x + w / 2.0;
    }
  }
  return errors;
}

}  // namespace rapids
