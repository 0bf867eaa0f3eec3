#include "serve/events.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace casurf::serve {

void append_event(const std::string& path, std::string_view event,
                  const std::function<void(obs::json::Writer&)>& fields) {
  // Wall clock on purpose (not obs::now_ns): the journal outlives the
  // process, and a steady-clock reading means nothing after a reboot.
  const double ts =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count()) /
      1e6;
  obs::json::Writer w;
  w.begin_object();
  w.key("schema"), w.string(kEventsSchema);
  w.key("ts"), w.number(ts);
  w.key("event"), w.string(event);
  if (fields) fields(w);
  w.end_object();
  std::string line = std::move(w).str();
  line += '\n';

  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return;
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

}  // namespace casurf::serve
