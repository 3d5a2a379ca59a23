#include "serving/wal.h"

#include <cerrno>
#include <cstring>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/checksum.h"
#include "util/env.h"
#include "util/failpoint.h"

namespace csc {
namespace {

constexpr char kWalMagic[8] = {'C', 'S', 'C', 'W', 'A', 'L', '0', '1'};
constexpr size_t kRecordHeaderSize = 8;  // u32 size + u32 crc

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t ReadU64(const uint8_t* p) {
  return static_cast<uint64_t>(ReadU32(p)) |
         (static_cast<uint64_t>(ReadU32(p + 4)) << 32);
}

std::string EncodeCheckpoint(const DiGraph& graph) {
  std::string body;
  body.push_back(static_cast<char>(WalRecordType::kCheckpoint));
  AppendU32(body, graph.num_vertices());
  const std::vector<Edge> edges = graph.Edges();
  AppendU64(body, edges.size());
  for (const Edge& e : edges) {
    AppendU32(body, e.from);
    AppendU32(body, e.to);
  }
  return body;
}

std::string EncodeBatch(uint64_t epoch,
                        const std::vector<EdgeUpdate>& updates) {
  std::string body;
  body.push_back(static_cast<char>(WalRecordType::kBatch));
  AppendU64(body, epoch);
  AppendU32(body, static_cast<uint32_t>(updates.size()));
  for (const EdgeUpdate& u : updates) {
    body.push_back(u.kind == UpdateKind::kInsert ? 1 : 0);
    AppendU32(body, u.edge.from);
    AppendU32(body, u.edge.to);
  }
  return body;
}

std::string EncodeRollback(uint64_t first, uint64_t last) {
  std::string body;
  body.push_back(static_cast<char>(WalRecordType::kRollback));
  AppendU64(body, first);
  AppendU64(body, last);
  return body;
}

std::string FrameRecord(const std::string& body) {
  std::string framed;
  framed.reserve(kRecordHeaderSize + body.size());
  AppendU32(framed, static_cast<uint32_t>(body.size()));
  AppendU32(framed, Crc32c(body.data(), body.size()));
  framed += body;
  return framed;
}

// Decodes one record body; false on a structurally short body (which
// ReadAll treats the same as a CRC failure: stop at the torn tail).
bool DecodeBody(const uint8_t* p, size_t size, WalRecord* out) {
  if (size < 1) return false;
  out->type = static_cast<WalRecordType>(p[0]);
  switch (out->type) {
    case WalRecordType::kCheckpoint: {
      if (size < 1 + 4 + 8) return false;
      out->num_vertices = ReadU32(p + 1);
      uint64_t m = ReadU64(p + 5);
      // Bound the count by the bytes actually present before multiplying:
      // a corrupt (or crafted) m near 2^61 would wrap m * 8 right past the
      // exact-size check and then blow up reserve / walk out of bounds.
      if (m > (size - 13) / 8) return false;
      if (size != 1 + 4 + 8 + m * 8) return false;
      out->edges.reserve(m);
      const uint8_t* q = p + 13;
      for (uint64_t i = 0; i < m; ++i, q += 8) {
        out->edges.push_back(Edge{ReadU32(q), ReadU32(q + 4)});
      }
      return true;
    }
    case WalRecordType::kBatch: {
      if (size < 1 + 8 + 4) return false;
      out->epoch = ReadU64(p + 1);
      uint32_t count = ReadU32(p + 9);
      // Same overflow guard as the checkpoint arm (count * 9 can wrap a
      // 32-bit size_t).
      if (count > (size - 13) / 9) return false;
      if (size != 1 + 8 + 4 + static_cast<size_t>(count) * 9) return false;
      out->updates.reserve(count);
      const uint8_t* q = p + 13;
      for (uint32_t i = 0; i < count; ++i, q += 9) {
        Vertex from = ReadU32(q + 1);
        Vertex to = ReadU32(q + 5);
        out->updates.push_back(q[0] == 1 ? EdgeUpdate::Insert(from, to)
                                         : EdgeUpdate::Remove(from, to));
      }
      return true;
    }
    case WalRecordType::kRollback: {
      if (size != 1 + 8 + 8) return false;
      out->epoch = ReadU64(p + 1);
      out->epoch_last = ReadU64(p + 9);
      return true;
    }
  }
  return false;  // unknown type: stop here, same as a torn record
}

#if !defined(_WIN32)

bool WalWriteAll(int fd, const char* data, size_t size, std::string* error) {
  uint64_t keep = UINT64_MAX;
  const bool inject = CSC_FAILPOINT_SHORT_WRITE("wal.append", &keep);
  if (inject && keep == UINT64_MAX) keep = size / 2;
  if (inject && keep < size) size = static_cast<size_t>(keep);
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = std::string("wal write failed: ") + std::strerror(errno);
      }
      return false;
    }
    written += static_cast<size_t>(n);
  }
  if (inject) {
    if (error != nullptr) *error = "wal write failed: injected short write";
    return false;
  }
  return true;
}

bool WalSyncFd(int fd, const std::string& path, std::string* error) {
  if (CSC_FAILPOINT("wal.fsync")) {
    if (error != nullptr) *error = "wal fsync failed: injected fault";
    return false;
  }
  if (::fsync(fd) != 0) {
    if (error != nullptr) {
      *error = "wal fsync failed for '" + path + "': " + std::strerror(errno);
    }
    return false;
  }
  return true;
}

// Fsyncs the directory containing `path` so a completed rename is durable.
// Best-effort: some filesystems refuse O_RDONLY on directories.
void WalSyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = (slash == std::string::npos) ? std::string(".")
                                                 : path.substr(0, slash + 1);
  int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

#endif  // !defined(_WIN32)

}  // namespace

std::unique_ptr<Wal> Wal::Create(const std::string& path, bool staged,
                                 const DiGraph& graph, std::string* error) {
  if (CSC_FAILPOINT("wal.checkpoint")) {
    if (error != nullptr) *error = "wal checkpoint failed: injected fault";
    return nullptr;
  }
#if defined(_WIN32)
  (void)path;
  (void)staged;
  (void)graph;
  if (error != nullptr) *error = "wal unsupported on this platform";
  return nullptr;
#else
  // Open the side file and keep that fd for all later appends; the rename
  // onto `path` comes last (Finalize). Ordered this way no failure can
  // leave the published log pointing at a different inode than the append
  // handle — the failure mode where acknowledged batches land in an
  // unreachable orphan while the on-disk log is checkpoint-only.
  const std::string side = path + ".next";
  errno = 0;
  int fd = -1;
  if (CSC_FAILPOINT("wal.open")) {
    errno = EACCES;
  } else {
    fd = ::open(side.c_str(),
                O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  }
  if (fd < 0) {
    if (error != nullptr) {
      *error = "wal open failed for '" + side + "': " + std::strerror(errno);
    }
    return nullptr;
  }
  std::string contents(kWalMagic, sizeof(kWalMagic));
  contents += FrameRecord(EncodeCheckpoint(graph));
  if (!WalWriteAll(fd, contents.data(), contents.size(), error) ||
      !WalSyncFd(fd, side, error)) {
    ::close(fd);
    ::unlink(side.c_str());
    return nullptr;
  }
  std::unique_ptr<Wal> wal(new Wal(path, side, fd, contents.size()));
  if (!staged && !wal->Finalize(error)) return nullptr;
  return wal;
#endif
}

std::unique_ptr<Wal> Wal::CreateFresh(const std::string& path,
                                      const DiGraph& graph,
                                      std::string* error) {
  return Create(path, /*staged=*/false, graph, error);
}

std::unique_ptr<Wal> Wal::CreateStaged(const std::string& path,
                                       const DiGraph& graph,
                                       std::string* error) {
  return Create(path, /*staged=*/true, graph, error);
}

bool Wal::Finalize(std::string* error) {
  if (staged_path_.empty()) return true;
#if defined(_WIN32)
  if (error != nullptr) *error = "wal unsupported on this platform";
  return false;
#else
  errno = 0;
  bool renamed = false;
  if (CSC_FAILPOINT("wal.finalize")) {
    errno = EIO;
  } else {
    renamed = ::rename(staged_path_.c_str(), path_.c_str()) == 0;
  }
  if (!renamed) {
    if (error != nullptr) {
      *error = "wal finalize rename failed for '" + path_ +
               "': " + std::strerror(errno);
    }
    return false;
  }
  WalSyncParentDir(path_);
  staged_path_.clear();
  return true;
#endif
}

Wal::~Wal() {
#if !defined(_WIN32)
  if (fd_ >= 0) ::close(fd_);
  // An abandoned staged generation (e.g. a failed recovery): the published
  // log was never replaced, so the side file is dead weight.
  if (!staged_path_.empty()) ::unlink(staged_path_.c_str());
#endif
}

bool Wal::AppendRecord(const std::string& body, std::string* error) {
#if defined(_WIN32)
  (void)body;
  if (error != nullptr) *error = "wal unsupported on this platform";
  return false;
#else
  if (broken_) {
    if (error != nullptr) {
      *error = "wal '" + path_ + "' has an untruncatable torn tail";
    }
    return false;
  }
  const std::string framed = FrameRecord(body);
  const std::string& file = staged_path_.empty() ? path_ : staged_path_;
  if (WalWriteAll(fd_, framed.data(), framed.size(), error) &&
      WalSyncFd(fd_, file, error)) {
    synced_size_ += framed.size();
    return true;
  }
  // The failed append may have left a torn record, and unlike a torn tail
  // at crash time it would sit *in front of* any later successful append —
  // recovery stops at the first unreadable record, so those later
  // acknowledged records would be lost. Cut the log back to its last
  // durable size; if that fails too, no later record can be trusted to be
  // readable, so poison the handle.
  if (::ftruncate(fd_, static_cast<off_t>(synced_size_)) != 0 ||
      ::fsync(fd_) != 0) {
    broken_ = true;
  }
  return false;
#endif
}

bool Wal::AppendBatch(uint64_t epoch, const std::vector<EdgeUpdate>& updates,
                      std::string* error) {
  return AppendRecord(EncodeBatch(epoch, updates), error);
}

bool Wal::AppendRollback(uint64_t first, uint64_t last, std::string* error) {
  if (CSC_FAILPOINT("wal.rollback")) {
    if (error != nullptr) *error = "wal rollback append failed: injected fault";
    return false;
  }
  return AppendRecord(EncodeRollback(first, last), error);
}

bool Wal::ReadAll(const std::string& path, std::vector<WalRecord>* records,
                  std::string* error) {
  records->clear();
  std::optional<std::string> contents = ReadFileToString(path);
  if (!contents.has_value()) {
    // Distinguish "no log yet" (fine: nothing to replay) from "log exists
    // but is unreadable" (do not silently ignore acknowledged history).
#if defined(_WIN32)
    return true;
#else
    if (::access(path.c_str(), F_OK) != 0) return true;
    if (error != nullptr) *error = "wal read failed for '" + path + "'";
    return false;
#endif
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(contents->data());
  const size_t size = contents->size();
  if (size < sizeof(kWalMagic) ||
      std::memcmp(data, kWalMagic, sizeof(kWalMagic)) != 0) {
    // An empty file is a torn CreateFresh (atomic rename never landed —
    // impossible — or a pre-WAL placeholder); treat as empty. Anything
    // with other bytes is a foreign file.
    if (size == 0) return true;
    if (error != nullptr) {
      *error = "'" + path + "' is not a CSC write-ahead log (bad magic)";
    }
    return false;
  }
  size_t pos = sizeof(kWalMagic);
  while (pos + kRecordHeaderSize <= size) {
    const uint32_t body_size = ReadU32(data + pos);
    const uint32_t crc = ReadU32(data + pos + 4);
    if (pos + kRecordHeaderSize + body_size > size) break;  // torn tail
    const uint8_t* body = data + pos + kRecordHeaderSize;
    if (Crc32c(body, body_size) != crc) break;  // torn or corrupt: stop
    WalRecord record;
    if (!DecodeBody(body, body_size, &record)) break;
    records->push_back(std::move(record));
    pos += kRecordHeaderSize + body_size;
  }
  return true;
}

}  // namespace csc
