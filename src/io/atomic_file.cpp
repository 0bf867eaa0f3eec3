#include "io/atomic_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/failpoint.hpp"

namespace casurf::io {

namespace {

// Every step of the atomic write carries a failpoint so crash-recovery
// machinery can be exercised deterministically (docs/ROBUSTNESS.md).
constexpr fail::Failpoint kFailShortWrite{"io/atomic_write/short_write"};
constexpr fail::Failpoint kFailFsync{"io/atomic_write/fsync"};
constexpr fail::Failpoint kFailRename{"io/atomic_write/rename"};

/// Error messages name the failing syscall, the path, and the errno text:
/// "checkpoint write failed" is unactionable, "fsync failed for run.ck.tmp:
/// No space left on device" is not.
[[noreturn]] void fail_sys(const char* syscall, const std::string& path, int err) {
  throw std::runtime_error(std::string("atomic_write_file: ") + syscall +
                           " failed for " + path + ": " + std::strerror(err));
}

/// Best-effort directory fsync so the rename is durable; ignored on
/// filesystems that refuse to open directories.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail_sys("open", tmp, errno);

  std::size_t written;
  if (kFailShortWrite.fire()) {
    // Leave a genuinely truncated temporary so the cleanup path below runs
    // against a real short file, as an out-of-space write would leave.
    written = contents.size() / 2;
    if (written > 0) std::fwrite(contents.data(), 1, written, f);
    errno = ENOSPC;
  } else {
    written = contents.empty()
                  ? 0
                  : std::fwrite(contents.data(), 1, contents.size(), f);
  }
  if (written != contents.size()) {
    const int err = errno != 0 ? errno : ENOSPC;
    std::fclose(f);
    std::remove(tmp.c_str());
    throw std::runtime_error("atomic_write_file: short write to " + tmp + " (" +
                             std::to_string(written) + " of " +
                             std::to_string(contents.size()) +
                             " bytes): " + std::strerror(err));
  }
  if (std::fflush(f) != 0) {
    const int err = errno;
    std::fclose(f);
    std::remove(tmp.c_str());
    fail_sys("fflush", tmp, err);
  }
  const bool fsync_injected = kFailFsync.fire();
  if (fsync_injected || ::fsync(::fileno(f)) != 0) {
    const int err = fsync_injected ? EIO : errno;
    std::fclose(f);
    std::remove(tmp.c_str());
    fail_sys("fsync", tmp, err);
  }
  if (std::fclose(f) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail_sys("close", tmp, err);
  }
  if (kFailRename.fire()) {
    std::remove(tmp.c_str());
    fail_sys("rename", path, EIO);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail_sys("rename", path, err);
  }
  sync_parent_dir(path);
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("read_file: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  // One string at the file's size, filled by one read (a checkpoint is
  // read whole before it is decoded, so a buffer grown by doubling would
  // add up to twice its size to the restore's peak). Reads go on to end
  // of file, so files that report no size (/proc) are read whole too.
  struct stat st {};
  std::string data(::fstat(fd, &st) == 0 && st.st_size > 0
                       ? static_cast<std::size_t>(st.st_size)
                       : std::size_t{0},
                   '\0');
  std::size_t got = 0;
  char tail[4096];  // what lies past the size, read without regrowing data
  for (;;) {
    const bool sized = got < data.size();
    const ssize_t n = sized ? ::read(fd, data.data() + got, data.size() - got)
                            : ::read(fd, tail, sizeof tail);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("read_file: read failed for " + path + ": " +
                               std::strerror(err));
    }
    if (n == 0) break;
    if (!sized) data.append(tail, static_cast<std::size_t>(n));
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  data.resize(got);
  return data;
}

}  // namespace casurf::io
