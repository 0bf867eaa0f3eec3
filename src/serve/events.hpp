#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace casurf::serve {

/// Durable lifecycle event journal (`events.jsonl`, one JSON object per
/// line, schema `casurf-events/1`). Two instances exist per daemon: a
/// per-job journal inside each job directory and a daemon-level journal in
/// data_dir. Unlike metrics this is durability plumbing: a recovered daemon
/// still owes its tenants the history of what happened to their jobs.
///
/// Job lifecycle grammar (validated by casurf_report --events and the
/// serve tests):
///
///   submitted → scheduled → spawned → running
///            → {preempted | restarted}* → {finished | failed | cancelled}
///
/// with `restarted` re-entering at `scheduled`. `log_rotated` may appear
/// anywhere after `spawned` (worker.log hit its cap).
inline constexpr const char* kEventsSchema = "casurf-events/1";

/// Append one event line to the journal at `path`. The file is opened
/// O_APPEND per call and the line lands in a single write(2), so daemon
/// threads (and a restarted daemon appending to history) never tear lines.
/// `fields` (optional) adds event-specific keys to the line. Errors are
/// swallowed: journaling must never take the serving path down.
void append_event(const std::string& path, std::string_view event,
                  const std::function<void(obs::json::Writer&)>& fields = {});

}  // namespace casurf::serve
