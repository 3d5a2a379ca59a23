#include "util/env.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(_WIN32)
#define CSC_ENV_POSIX 0
#else
#define CSC_ENV_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/failpoint.h"

namespace csc {

std::optional<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return out.str();
}

bool WriteStringToFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << contents;
  out.flush();
  return out.good();
}

namespace {

std::string IoError(const char* step, const std::string& path) {
  std::string msg = step;
  msg += " failed for '";
  msg += path;
  msg += "'";
  if (errno != 0) {
    msg += ": ";
    msg += std::strerror(errno);
  }
  return msg;
}

void SetError(std::string* error, const char* step, const std::string& path) {
  if (error != nullptr) *error = IoError(step, path);
}

#if CSC_ENV_POSIX

// EINTR-safe full write of `size` bytes; on a fired short-write failpoint
// writes only the injected prefix and reports failure (errno EIO) so the
// torn-write recovery paths are exercisable.
bool WriteAll(int fd, const char* data, size_t size) {
  uint64_t keep = UINT64_MAX;
  const bool inject =
      CSC_FAILPOINT_SHORT_WRITE("atomic_write.write", &keep);
  if (inject && keep == UINT64_MAX) keep = size / 2;
  if (inject && keep < size) size = static_cast<size_t>(keep);
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  if (inject) {
    errno = EIO;
    return false;
  }
  return true;
}

bool SyncFd(int fd) {
  if (CSC_FAILPOINT("atomic_write.fsync")) {
    errno = EIO;
    return false;
  }
#if defined(__APPLE__)
  return ::fcntl(fd, F_FULLFSYNC) == 0 || ::fsync(fd) == 0;
#else
  return ::fsync(fd) == 0;
#endif
}

// Fsyncs the directory containing `path` so a completed rename is durable.
// Best-effort: some filesystems refuse O_RDONLY on directories.
void SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = (slash == std::string::npos) ? std::string(".")
                                                 : path.substr(0, slash + 1);
  int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

#endif  // CSC_ENV_POSIX

std::string FormatScaled(double value, const char* const* units, int n_units,
                         double step) {
  int unit = 0;
  while (value >= step && unit + 1 < n_units) {
    value /= step;
    ++unit;
  }
  char buf[64];
  if (value >= 100 || value == static_cast<int64_t>(value)) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", value, units[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, units[unit]);
  }
  return buf;
}

}  // namespace

bool WriteFileAtomic(const std::string& path, const std::string& contents,
                     std::string* error) {
#if CSC_ENV_POSIX
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  errno = 0;
  int fd = -1;
  if (CSC_FAILPOINT("atomic_write.open")) {
    errno = EACCES;
  } else {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  }
  if (fd < 0) {
    SetError(error, "open", tmp);
    return false;
  }
  if (!WriteAll(fd, contents.data(), contents.size())) {
    SetError(error, "write", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (!SyncFd(fd)) {
    SetError(error, "fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    SetError(error, "close", tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  errno = 0;
  bool renamed = false;
  if (CSC_FAILPOINT("atomic_write.rename")) {
    errno = EIO;
  } else {
    renamed = ::rename(tmp.c_str(), path.c_str()) == 0;
  }
  if (!renamed) {
    SetError(error, "rename", path);
    ::unlink(tmp.c_str());
    return false;
  }
  SyncParentDir(path);
  return true;
#else
  // No atomicity without POSIX rename semantics; plain truncating write.
  if (WriteStringToFile(path, contents)) return true;
  SetError(error, "write", path);
  return false;
#endif
}

bool SyncFile(const std::string& path, std::string* error) {
#if CSC_ENV_POSIX
  errno = 0;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    SetError(error, "open", path);
    return false;
  }
  bool ok = SyncFd(fd);
  if (!ok) SetError(error, "fsync", path);
  ::close(fd);
  return ok;
#else
  (void)path;
  (void)error;
  return true;
#endif
}

void ReleaseFreeMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

std::string HumanBytes(uint64_t bytes) {
  static const char* const kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  return FormatScaled(static_cast<double>(bytes), kUnits, 5, 1024.0);
}

std::string HumanSeconds(double seconds) {
  static const char* const kUnits[] = {"ns", "us", "ms", "s"};
  double nanos = seconds * 1e9;
  if (nanos < 0) nanos = 0;
  std::string s = FormatScaled(nanos, kUnits, 4, 1000.0);
  return s;
}

}  // namespace csc
