#include "csc/compact_index.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "graph/bipartite.h"

namespace csc {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'C', 'I'};
constexpr uint32_t kVersion = 1;

void PutU32(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void PutU64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

// Sequential reader with bounds checking over `bytes` from offset `pos`;
// any overrun flips `ok`.
class Reader {
 public:
  Reader(const std::string& bytes, size_t pos) : bytes_(bytes), pos_(pos) {}

  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }
  bool ok() const { return ok_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  T Fixed() {
    if (sizeof(T) > remaining()) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::string& bytes_;
  size_t pos_;
  bool ok_ = true;
};

void PutLabelSet(std::string& out, const LabelSet& labels) {
  PutU32(out, static_cast<uint32_t>(labels.size()));
  for (const LabelEntry& e : labels.entries()) PutU64(out, e.bits());
}

bool ReadLabelSet(Reader& reader, LabelSet& labels) {
  uint32_t size = reader.U32();
  if (!reader.ok()) return false;
  Rank prev_rank = 0;
  for (uint32_t i = 0; i < size; ++i) {
    LabelEntry e = LabelEntry::FromBits(reader.U64());
    if (!reader.ok()) return false;
    // Entries must arrive strictly rank-sorted, or the file is corrupt.
    if (i > 0 && e.hub() <= prev_rank) return false;
    prev_rank = e.hub();
    labels.Append(e);
  }
  return true;
}

/// Index reduction (§IV.E) in reverse (the identity is in csc_index.h):
/// fills the empty L_in(v_o) and L_out(v_i) of every couple pair of
/// `labeling` (over G_b, ranks by `vertex_to_rank`) from its L_in(v_i) and
/// L_out(v_o).
void DeriveCoupleLabels(const std::vector<Rank>& vertex_to_rank,
                        HubLabeling& labeling) {
  const Vertex n = static_cast<Vertex>(labeling.num_vertices() / 2);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex vi = InVertex(v);
    const Vertex vo = OutVertex(v);
    const Rank rank_vi = vertex_to_rank[vi];
    const Rank rank_vo = vertex_to_rank[vo];
    assert(labeling.in[vo].empty() && labeling.out[vi].empty());
    // L_in(v_o) = shift(L_in(v_i)) ∪ {(v_o, 0, 1)}. Every hub of L_in(v_i)
    // ranks at or above v_i, hence strictly above v_o, so the self entry
    // appends in sorted position.
    LabelSet& in_vo = labeling.in[vo];
    in_vo.Reserve(labeling.in[vi].size() + 1);
    for (const LabelEntry& e : labeling.in[vi].entries()) {
      in_vo.Append(LabelEntry(e.hub(), e.dist() + 1, e.count()));
    }
    in_vo.Append(LabelEntry(rank_vo, 0, 1));
    // L_out(v_i) = shift(L_out(v_o) minus the v_i-hub cycle entry and the
    // v_o self entry) ∪ {(v_i, 0, 1)}.
    LabelSet& out_vi = labeling.out[vi];
    out_vi.Reserve(labeling.out[vo].size() + 1);
    for (const LabelEntry& e : labeling.out[vo].entries()) {
      if (e.hub() == rank_vi || e.hub() == rank_vo) continue;
      out_vi.Append(LabelEntry(e.hub(), e.dist() + 1, e.count()));
    }
    out_vi.Append(LabelEntry(rank_vi, 0, 1));
  }
}

}  // namespace

CompactIndex CompactIndex::FromIndex(const CscIndex& index) {
  CompactIndex compact;
  compact.in_labels_ = index.served_labels().in;
  compact.out_labels_ = index.served_labels().out;
  compact.rank_to_vertex_ = index.bipartite_order().rank_to_vertex;
  return compact;
}

uint64_t CompactIndex::TotalEntries() const {
  uint64_t total = 0;
  for (const LabelSet& l : in_labels_) total += l.size();
  for (const LabelSet& l : out_labels_) total += l.size();
  return total;
}

HubLabeling CompactIndex::ExpandToFull() const {
  Vertex n = num_original_vertices();
  // Recover each bipartite vertex's rank from the stored permutation.
  std::vector<Rank> vertex_to_rank(2 * n);
  for (Rank r = 0; r < rank_to_vertex_.size(); ++r) {
    vertex_to_rank[rank_to_vertex_[r]] = r;
  }
  HubLabeling full;
  full.Resize(2 * n);
  for (Vertex v = 0; v < n; ++v) {
    full.in[InVertex(v)] = in_labels_[v];
    full.out[OutVertex(v)] = out_labels_[v];
  }
  DeriveCoupleLabels(vertex_to_rank, full);
  return full;
}

std::string CompactIndex::Serialize() const {
  std::string out;
  out.append(kMagic, 4);
  PutU32(out, kVersion);
  PutU32(out, num_original_vertices());
  for (Vertex v : rank_to_vertex_) PutU32(out, v);
  for (Vertex v = 0; v < num_original_vertices(); ++v) {
    PutLabelSet(out, in_labels_[v]);
    PutLabelSet(out, out_labels_[v]);
  }
  return out;
}

std::optional<CompactIndex> CompactIndex::Deserialize(
    const std::string& bytes) {
  if (bytes.size() < 4 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return std::nullopt;
  }
  Reader reader(bytes, 4);
  if (reader.U32() != kVersion) return std::nullopt;
  uint32_t n = reader.U32();
  if (!reader.ok()) return std::nullopt;
  // Each vertex takes at least 16 more bytes (two permutation entries and
  // two label-set sizes), so a count the payload cannot hold is malformed —
  // reject it before sizing anything from it.
  if (n > reader.remaining() / 16) return std::nullopt;
  CompactIndex compact;
  compact.rank_to_vertex_.resize(2 * static_cast<size_t>(n));
  std::vector<bool> seen(2 * static_cast<size_t>(n), false);
  for (Vertex& v : compact.rank_to_vertex_) {
    v = reader.U32();
    if (!reader.ok() || v >= 2ull * n || seen[v]) return std::nullopt;
    seen[v] = true;
  }
  compact.in_labels_.resize(n);
  compact.out_labels_.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    if (!ReadLabelSet(reader, compact.in_labels_[v])) return std::nullopt;
    if (!ReadLabelSet(reader, compact.out_labels_[v])) return std::nullopt;
  }
  if (!reader.ok() || !reader.AtEnd()) return std::nullopt;
  return compact;
}

}  // namespace csc
