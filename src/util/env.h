#ifndef CSC_UTIL_ENV_H_
#define CSC_UTIL_ENV_H_

#include <optional>
#include <string>

namespace csc {

/// Reads an entire file; std::nullopt on I/O failure.
std::optional<std::string> ReadFileToString(const std::string& path);

/// Writes `contents` to `path`, replacing any existing file. Returns false on
/// I/O failure.
bool WriteStringToFile(const std::string& path, const std::string& contents);

/// Crash-safe replacement for WriteStringToFile: writes to a temp file in
/// the same directory, fsyncs it, renames it over `path`, and fsyncs the
/// directory. After a crash at any point, `path` holds either the old
/// contents in full or the new contents in full — never a torn mix. On
/// failure returns false, sets `*error` (when non-null) to a message naming
/// the failing path and step, and leaves `path` untouched (the temp file is
/// unlinked). Fault surfaces: failpoints atomic_write.open / .write /
/// .fsync / .rename.
bool WriteFileAtomic(const std::string& path, const std::string& contents,
                     std::string* error = nullptr);

/// Flushes a file's data and metadata to stable storage by path. Used after
/// appending to an already-open-by-path file; returns false on failure.
bool SyncFile(const std::string& path, std::string* error = nullptr);

/// Returns memory the allocator holds free to the operating system (glibc
/// malloc_trim; a no-op elsewhere). An index build frees far more scratch
/// than the index it leaves behind, and the allocator would otherwise keep
/// it resident for the life of the process.
void ReleaseFreeMemory();

/// "1.23 KB" / "4.56 MB" style rendering used by bench reporters.
std::string HumanBytes(uint64_t bytes);

/// "123 us" / "4.5 ms" / "6.7 s" style rendering used by bench reporters.
std::string HumanSeconds(double seconds);

}  // namespace csc

#endif  // CSC_UTIL_ENV_H_
