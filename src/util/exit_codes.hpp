#pragma once

/// casurf_run's exit codes (docs/ROBUSTNESS.md). The serve daemon reads
/// its workers' exits with the same table, so both supervisors agree on
/// which failures a restart can cure.
namespace casurf::exit_code {

inline constexpr int kOk = 0;
/// Runtime failure: an unreadable input file, a snapshot or I/O error, a
/// failure during the run. The supervisors restart it from the last
/// checkpoint.
inline constexpr int kRuntime = 1;
/// A run that can never start: bad flags, a model that does not parse or
/// whose rates its make_* function refuses, a configuration the simulator
/// refuses. No supervisor retries it.
inline constexpr int kUsage = 2;
/// --resume: neither the checkpoint nor its .bak could be restored.
inline constexpr int kRestoreFailed = 3;
/// --supervise: the retry budget is spent.
inline constexpr int kRetriesExhausted = 4;
/// The daemon could not exec the worker binary (the shell's convention).
inline constexpr int kExecFailed = 127;

}  // namespace casurf::exit_code
