#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulator.hpp"

namespace casurf::io {

/// Any failure to write, read, validate, or apply a checkpoint: I/O errors,
/// bad magic/version, CRC mismatch (bit rot / truncation), or metadata that
/// does not match the simulator being restored. Callers treat this as "the
/// file is unusable" and fall back to an older checkpoint (or a cold start).
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& message)
      : std::runtime_error("checkpoint: " + message) {}
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
/// guard over the checkpoint payload. Exposed for the corruption tests.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Current checkpoint container version. Bump on any layout change; loaders
/// reject versions they do not understand rather than guessing.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Header fields of a checkpoint, available without restoring (the CRC is
/// verified before anything is returned).
struct CheckpointInfo {
  std::uint32_t version = 0;
  std::string algorithm;              ///< Simulator::name() of the writer
  double time = 0;                    ///< simulated time at save
  std::uint64_t steps = 0;            ///< natural steps at save
  std::int32_t width = 0, height = 0; ///< lattice dimensions
  std::vector<std::string> species;   ///< species names, model order
};

/// Write the full state of `sim` to `path`: versioned binary container,
/// CRC-32 over the payload, atomic tmp+fsync+rename publication — a crash
/// at any instant leaves either the previous checkpoint or the new one,
/// never a torn file. `user_section` is an opaque caller blob stored and
/// returned verbatim (casurf_run keeps its sampling state there so a
/// resumed run regenerates the identical coverage series).
void save_checkpoint(const std::string& path, const Simulator& sim,
                     std::string_view user_section = {});

/// Read and integrity-check the header of a checkpoint without touching any
/// simulator. Throws CheckpointError on I/O failure, bad magic or version,
/// or CRC mismatch.
[[nodiscard]] CheckpointInfo peek_checkpoint(const std::string& path);

/// Validate `path` against `sim` (same algorithm, lattice, species domain,
/// and reaction model) and restore the simulator's full state from it;
/// returns the user section. After this, `sim` continues the saved
/// trajectory bit for bit. Throws CheckpointError on any validation or
/// format failure — in which case `sim` may have been partially modified,
/// so callers retrying a fallback file should restore into a freshly
/// constructed simulator.
std::string restore_checkpoint(const std::string& path, Simulator& sim);

}  // namespace casurf::io
