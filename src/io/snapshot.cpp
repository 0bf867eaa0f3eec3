#include "io/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.hpp"

namespace casurf::io {

void save_snapshot(const std::string& path, const Configuration& config,
                   const SpeciesSet& species) {
  if (species.size() != config.num_species()) {
    throw std::runtime_error("save_snapshot: species set does not match configuration");
  }
  std::ostringstream out;
  const Lattice& lat = config.lattice();
  out << "casurf-snapshot 1\n";
  out << "lattice " << lat.width() << ' ' << lat.height() << '\n';
  out << "species " << species.size();
  for (const std::string& name : species.names()) out << ' ' << name;
  out << "\ndata\n";
  for (std::int32_t y = 0; y < lat.height(); ++y) {
    for (std::int32_t x = 0; x < lat.width(); ++x) {
      if (x) out << ' ';
      out << static_cast<int>(config.get(lat.index({x, y})));
    }
    out << '\n';
  }
  atomic_write_file(path, out.view());
}

Snapshot load_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_snapshot: cannot open " + path);

  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "casurf-snapshot" || version != 1) {
    throw std::runtime_error("load_snapshot: not a casurf-snapshot v1 file");
  }

  std::string keyword;
  std::int32_t width = 0, height = 0;
  in >> keyword >> width >> height;
  if (keyword != "lattice" || width <= 0 || height <= 0) {
    throw std::runtime_error("load_snapshot: malformed lattice header");
  }

  std::size_t n_species = 0;
  in >> keyword >> n_species;
  if (keyword != "species" || n_species == 0 || n_species > 32) {
    throw std::runtime_error("load_snapshot: malformed species header");
  }
  std::vector<std::string> names(n_species);
  for (std::string& name : names) in >> name;

  in >> keyword;
  if (keyword != "data" || !in) {
    throw std::runtime_error("load_snapshot: missing data section");
  }

  const Lattice lattice = [&] {
    try {
      return Lattice(width, height);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("load_snapshot: ") + e.what());
    }
  }();
  Configuration config(lattice, n_species, 0);
  for (std::int32_t y = 0; y < height; ++y) {
    for (std::int32_t x = 0; x < width; ++x) {
      int value = -1;
      in >> value;
      if (!in || value < 0 || static_cast<std::size_t>(value) >= n_species) {
        std::ostringstream msg;
        msg << "load_snapshot: bad species index at (" << x << "," << y << ")";
        throw std::runtime_error(msg.str());
      }
      config.set(config.lattice().index({x, y}), static_cast<Species>(value));
    }
  }
  return Snapshot{std::move(config), std::move(names)};
}

Configuration remap_species(const Snapshot& snap, const SpeciesSet& target) {
  // One entry per snapshot species index: the target index of the species
  // with the same NAME. Species identity is the name, not the position —
  // a snapshot written under a model that lists the same species in a
  // different order is still valid.
  std::vector<Species> to_target(snap.species.size());
  for (std::size_t i = 0; i < snap.species.size(); ++i) {
    const std::string& name = snap.species[i];
    const auto& names = target.names();
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) {
      throw std::runtime_error("remap_species: snapshot species '" + name +
                               "' does not exist in the model (model species:" +
                               [&] {
                                 std::string list;
                                 for (const auto& n : names) list += " " + n;
                                 return list;
                               }() +
                               ")");
    }
    to_target[i] = static_cast<Species>(it - names.begin());
  }

  Configuration out(snap.config.lattice(), target.size(), 0);
  for (SiteIndex s = 0; s < snap.config.size(); ++s) {
    out.set(s, to_target[snap.config.get(s)]);
  }
  return out;
}

Rgb default_palette(Species s) {
  static constexpr std::array<Rgb, 8> kColors = {{
      {245, 245, 245},  // vacant: near-white
      {31, 119, 180},   // blue
      {214, 39, 40},    // red
      {44, 160, 44},    // green
      {255, 127, 14},   // orange
      {148, 103, 189},  // purple
      {140, 86, 75},    // brown
      {23, 190, 207},   // cyan
  }};
  // Only the genuinely vacant species may render near-white: cycling the
  // whole table would hand species 8, 16, ... the vacant color and make
  // occupied sites vanish from the image. Occupied species cycle over the
  // seven saturated colors instead.
  return s == 0 ? kColors[0] : kColors[1 + (s - 1) % (kColors.size() - 1)];
}

void write_ppm(const std::string& path, const Configuration& config,
               Rgb (*palette)(Species)) {
  if (palette == nullptr) palette = default_palette;
  std::ostringstream out;
  const Lattice& lat = config.lattice();
  out << "P6\n" << lat.width() << ' ' << lat.height() << "\n255\n";
  std::vector<char> row(static_cast<std::size_t>(lat.width()) * 3);
  for (std::int32_t y = 0; y < lat.height(); ++y) {
    for (std::int32_t x = 0; x < lat.width(); ++x) {
      const Rgb c = palette(config.get(lat.index({x, y})));
      row[3 * x + 0] = static_cast<char>(c.r);
      row[3 * x + 1] = static_cast<char>(c.g);
      row[3 * x + 2] = static_cast<char>(c.b);
    }
    out.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
  atomic_write_file(path, out.view());
}

}  // namespace casurf::io
