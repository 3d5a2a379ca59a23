#include "csc/index_io.h"

#include <cstring>
#include <utility>

#include "util/checksum.h"
#include "util/env.h"
#include "util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#define CSC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace csc {

namespace {

constexpr char kMagic[8] = {'C', 'S', 'C', 'I', 'D', 'X', '0', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint64_t);
constexpr size_t kFooterSize = sizeof(uint32_t);

void AppendU64(std::string& out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void AppendU32(std::string& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint64_t ReadU64(const char* p) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return value;
}

uint32_t ReadU32(const char* p) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= uint32_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return value;
}

// Wraps a payload in the magic + size + CRC envelope.
std::string WrapPayload(const std::string& payload) {
  std::string file;
  file.reserve(kHeaderSize + payload.size() + kFooterSize);
  file.append(kMagic, sizeof(kMagic));
  AppendU64(file, payload.size());
  file.append(payload);
  AppendU32(file, Crc32c(payload));
  return file;
}

}  // namespace

std::optional<std::pair<const uint8_t*, size_t>> VerifyEnvelope(
    const uint8_t* data, size_t size, std::string* error, bool verify_crc) {
  if (size < kHeaderSize + kFooterSize) {
    if (error) *error = "file too small to hold an index header";
    return std::nullopt;
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    if (error) *error = "bad magic (not a CSC index file)";
    return std::nullopt;
  }
  uint64_t payload_size =
      ReadU64(reinterpret_cast<const char*>(data) + sizeof(kMagic));
  if (size != kHeaderSize + payload_size + kFooterSize) {
    if (error) *error = "truncated or oversized payload";
    return std::nullopt;
  }
  const uint8_t* payload = data + kHeaderSize;
  if (verify_crc) {
    uint32_t stored_crc =
        ReadU32(reinterpret_cast<const char*>(payload) + payload_size);
    uint32_t actual_crc =
        Crc32c(reinterpret_cast<const char*>(payload), payload_size);
    if (stored_crc != actual_crc) {
      if (error) *error = "checksum mismatch (corrupted index file)";
      return std::nullopt;
    }
  }
  return {{payload, static_cast<size_t>(payload_size)}};
}

std::optional<std::string> ReadVerifiedPayload(const std::string& path,
                                               std::string* error) {
  std::optional<std::string> file;
  if (!CSC_FAILPOINT("index_io.read")) file = ReadFileToString(path);
  if (!file) {
    if (error) *error = "cannot read file: " + path;
    return std::nullopt;
  }
  auto payload = VerifyEnvelope(
      reinterpret_cast<const uint8_t*>(file->data()), file->size(), error);
  if (!payload) return std::nullopt;
  return std::string(reinterpret_cast<const char*>(payload->first),
                     payload->second);
}

std::shared_ptr<IndexFile> IndexFile::Open(const std::string& path,
                                           std::string* error,
                                           bool verify_crc) {
  // shared_ptr with custom deletion via the destructor; the constructor is
  // private so Open is the only way in.
  std::shared_ptr<IndexFile> file(new IndexFile());
  const uint8_t* data = nullptr;
  size_t size = 0;
#if defined(CSC_HAVE_MMAP)
  // An injected mmap fault exercises the heap-fallback path below.
  int fd = CSC_FAILPOINT("index_io.mmap") ? -1 : ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* base = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                          MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        file->map_base_ = base;
        file->map_size_ = static_cast<size_t>(st.st_size);
        data = static_cast<const uint8_t*>(base);
        size = file->map_size_;
      }
    }
    ::close(fd);  // the mapping survives the descriptor
  }
#endif
  if (data == nullptr) {
    // Heap fallback: same verified-view API, one copy of the file.
    std::optional<std::string> bytes;
    if (!CSC_FAILPOINT("index_io.read")) bytes = ReadFileToString(path);
    if (!bytes) {
      if (error) *error = "cannot read file: " + path;
      return nullptr;
    }
    file->heap_ = std::move(*bytes);
    data = reinterpret_cast<const uint8_t*>(file->heap_.data());
    size = file->heap_.size();
  }
  auto payload = VerifyEnvelope(data, size, error, verify_crc);
  if (!payload) return nullptr;
  file->payload_ = payload->first;
  file->payload_size_ = payload->second;
  return file;
}

IndexFile::~IndexFile() {
#if defined(CSC_HAVE_MMAP)
  if (map_base_ != nullptr) ::munmap(map_base_, map_size_);
#endif
}

BackendLoadResult LoadBackendFromMapping(const std::shared_ptr<IndexFile>& file,
                                         const std::string& backend_name) {
  BackendLoadResult result;
  if (!file) {
    result.error = "no mapping";
    return result;
  }
  if (IsShardedPayload(file->payload(), file->payload_size())) {
    result.error =
        "multi-shard bundle (serve it through ShardedEngine::LoadFromFile)";
    return result;
  }
  std::unique_ptr<CycleIndex> backend = MakeBackend(backend_name);
  if (!backend) {
    result.error = "unknown backend: " + backend_name;
    return result;
  }
  if (!backend->LoadView(file->payload(), file->payload_size(), file)) {
    result.error = "backend '" + backend_name +
                   "' cannot load this payload (incompatible format or "
                   "backend has no load path)";
    return result;
  }
  result.index = std::move(backend);
  return result;
}

namespace {

// The single save path: every index file lands through one atomic replace,
// with one injectable fault surface in front of it.
bool WriteEnvelopeAtomic(const std::string& payload, const std::string& path,
                         std::string* error) {
  if (CSC_FAILPOINT("index_io.write")) {
    if (error) *error = "write failed for '" + path + "': injected fault";
    return false;
  }
  return WriteFileAtomic(path, WrapPayload(payload), error);
}

}  // namespace

bool SavePayloadToFile(const std::string& payload, const std::string& path,
                       std::string* error) {
  return WriteEnvelopeAtomic(payload, path, error);
}

bool SaveBackendToFile(const CycleIndex& index, const std::string& path,
                       std::string* error) {
  std::string payload;
  if (!index.SaveTo(payload)) {
    if (error) {
      *error = "backend has no persistent form (SaveTo failed) for '" +
               path + "'";
    }
    return false;
  }
  return WriteEnvelopeAtomic(payload, path, error);
}

namespace {

// Revision 1 carried no flags word; revision 2 appended it after the
// vertex count. Writers emit revision 2; both still load.
constexpr char kShardedMagicV1[8] = {'C', 'S', 'C', 'S', 'H', 'R', 'D', '1'};
constexpr char kShardedMagicV2[8] = {'C', 'S', 'C', 'S', 'H', 'R', 'D', '2'};

constexpr uint32_t kShardedFlagSliced = 1u << 0;
constexpr uint32_t kShardedFlagCustomShardFn = 1u << 1;

}  // namespace

std::string WrapShardedPayload(const std::vector<std::string>& shard_payloads,
                               Vertex num_vertices,
                               const ShardedBundleInfo& info) {
  std::string out;
  size_t total = sizeof(kShardedMagicV2) + 3 * sizeof(uint32_t);
  for (const std::string& payload : shard_payloads) {
    total += sizeof(uint64_t) + payload.size() + sizeof(uint32_t);
  }
  out.reserve(total);
  out.append(kShardedMagicV2, sizeof(kShardedMagicV2));
  AppendU32(out, static_cast<uint32_t>(shard_payloads.size()));
  AppendU32(out, num_vertices);
  uint32_t flags = 0;
  if (info.sliced) flags |= kShardedFlagSliced;
  if (info.custom_shard_fn) flags |= kShardedFlagCustomShardFn;
  AppendU32(out, flags);
  for (const std::string& payload : shard_payloads) {
    AppendU64(out, payload.size());
    out.append(payload);
    AppendU32(out, Crc32c(payload));
  }
  return out;
}

bool IsShardedPayload(const std::string& payload) {
  return IsShardedPayload(reinterpret_cast<const uint8_t*>(payload.data()),
                          payload.size());
}

bool IsShardedPayload(const uint8_t* data, size_t size) {
  return size >= sizeof(kShardedMagicV2) &&
         (std::memcmp(data, kShardedMagicV2, sizeof(kShardedMagicV2)) == 0 ||
          std::memcmp(data, kShardedMagicV1, sizeof(kShardedMagicV1)) == 0);
}

std::optional<ShardedPayloadView> ParseShardedPayloadView(
    const uint8_t* data, size_t size, std::string* error,
    std::vector<std::string>* shard_errors) {
  auto fail = [error](std::string message) -> std::optional<ShardedPayloadView> {
    if (error) *error = std::move(message);
    return std::nullopt;
  };
  if (!IsShardedPayload(data, size)) {
    return fail("bad magic (not a multi-shard bundle)");
  }
  const bool has_flags =
      std::memcmp(data, kShardedMagicV2, sizeof(kShardedMagicV2)) == 0;
  size_t pos = sizeof(kShardedMagicV2);
  if (size < pos + (has_flags ? 3 : 2) * sizeof(uint32_t)) {
    return fail("bundle too small to hold a shard header");
  }
  const char* chars = reinterpret_cast<const char*>(data);
  uint32_t shard_count = ReadU32(chars + pos);
  pos += sizeof(uint32_t);
  ShardedPayloadView result;
  result.num_vertices = ReadU32(chars + pos);
  pos += sizeof(uint32_t);
  if (has_flags) {
    uint32_t flags = ReadU32(chars + pos);
    pos += sizeof(uint32_t);
    result.info.sliced = (flags & kShardedFlagSliced) != 0;
    result.info.custom_shard_fn = (flags & kShardedFlagCustomShardFn) != 0;
  }
  if (shard_count == 0) {
    return fail("bundle declares zero shards");
  }
  // Each shard record costs at least its size field plus CRC; a declared
  // count beyond what the payload could hold is corrupt — reject before
  // reserving (a crafted count must not become a giant allocation).
  constexpr size_t kMinShardRecord = sizeof(uint64_t) + sizeof(uint32_t);
  if (shard_count > (size - pos) / kMinShardRecord) {
    return fail("bundle declares more shards than it could hold");
  }
  if (shard_errors) shard_errors->assign(shard_count, std::string());
  result.shards.reserve(shard_count);
  for (uint32_t s = 0; s < shard_count; ++s) {
    if (size - pos < sizeof(uint64_t)) {
      return fail("truncated shard size field");
    }
    uint64_t shard_size = ReadU64(chars + pos);
    pos += sizeof(uint64_t);
    if (size - pos < shard_size ||
        size - pos - shard_size < sizeof(uint32_t)) {
      return fail("truncated shard payload");
    }
    const uint8_t* bytes = data + pos;
    pos += shard_size;
    uint32_t stored_crc = ReadU32(chars + pos);
    pos += sizeof(uint32_t);
    if (stored_crc != Crc32c(reinterpret_cast<const char*>(bytes),
                             shard_size)) {
      std::string message = "checksum mismatch in shard " + std::to_string(s) +
                            " (corrupted bundle)";
      // Lenient mode pinpoints the bad shard and keeps walking — the frame
      // (size fields, record boundaries) is still intact, only this shard's
      // bytes are rotten. Strict mode fails the whole bundle as before.
      if (shard_errors == nullptr) return fail(std::move(message));
      (*shard_errors)[s] = std::move(message);
      result.shards.emplace_back(nullptr, 0);
      continue;
    }
    result.shards.emplace_back(bytes, static_cast<size_t>(shard_size));
  }
  if (pos != size) {
    return fail("trailing bytes after the last shard");
  }
  return result;
}

std::optional<ShardedPayload> ParseShardedPayload(
    const std::string& payload, std::string* error,
    std::vector<std::string>* shard_errors) {
  auto view = ParseShardedPayloadView(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size(), error,
      shard_errors);
  if (!view) return std::nullopt;
  ShardedPayload result;
  result.num_vertices = view->num_vertices;
  result.info = view->info;
  result.shards.reserve(view->shards.size());
  for (const auto& [bytes, size] : view->shards) {
    result.shards.emplace_back(
        bytes == nullptr ? "" : std::string(reinterpret_cast<const char*>(bytes), size));
  }
  return result;
}

BackendLoadResult LoadBackendFromFile(const std::string& path,
                                      const std::string& backend_name) {
  BackendLoadResult result;
  std::optional<std::string> payload =
      ReadVerifiedPayload(path, &result.error);
  if (!payload) return result;
  std::unique_ptr<CycleIndex> backend = MakeBackend(backend_name);
  if (!backend) {
    result.error = "unknown backend: " + backend_name;
    return result;
  }
  if (!backend->LoadFrom(*payload)) {
    result.error = "backend '" + backend_name +
                   "' cannot load this payload (incompatible format or "
                   "backend has no load path)";
    return result;
  }
  result.index = std::move(backend);
  return result;
}

}  // namespace csc
