#include "csc/frozen_index.h"

#include <cassert>
#include <cstring>
#include <span>
#include <utility>

#include "csc/couple_builders.h"
#include "graph/bipartite.h"
#include "util/env.h"

namespace csc {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'C', 'F'};

}  // namespace

std::vector<Rank> FrozenIndex::InVertexRanks(
    const std::vector<Vertex>& rank_to_vertex) {
  // The couple-correction hub of v is v_i.
  std::vector<Rank> ranks(rank_to_vertex.size() / 2);
  for (Rank r = 0; r < rank_to_vertex.size(); ++r) {
    if (IsInVertex(rank_to_vertex[r])) {
      ranks[OriginalOf(rank_to_vertex[r])] = r;
    }
  }
  return ranks;
}

FrozenIndex FrozenIndex::FromCompact(const CompactIndex& compact) {
  FrozenIndex frozen;
  frozen.in_ = LabelArena::FromLabelSets(compact.in_labels_);
  frozen.out_ = LabelArena::FromLabelSets(compact.out_labels_);
  frozen.in_vertex_rank_ = InVertexRanks(compact.rank_to_vertex_);
  return frozen;
}

FrozenIndex FrozenIndex::Build(const DiGraph& graph,
                               const VertexOrdering& order,
                               const CscIndex::Options& options,
                               LabelBuildStats* stats) {
  LabelBuildStats local;
  LabelBuildStats& s = stats != nullptr ? *stats : local;
  CoupleLabels labels = BuildCoupleLabels(graph, order, options,
                                          /*distance_pruning=*/true, s);
  ReleaseFreeMemory();
  FrozenIndex frozen;
  frozen.in_vertex_rank_ = InVertexRanks(labels.bipartite_order.rank_to_vertex);
  const Vertex n = static_cast<Vertex>(labels.in.size());
  LabelArena* arena = nullptr;
  // Sized leaves an arena's payload unwritten: every run must be placed.
  [[maybe_unused]] uint64_t placed = 0;
  labels.Release(
      [&](const LabelStore& store, bool in_direction) {
        arena = in_direction ? &frozen.in_ : &frozen.out_;
        *arena = LabelArena::Sized(
            n, [&](Vertex v) { return store[labels.PairOf(v)]; });
      },
      [&](Vertex v, std::span<const LabelEntry> run) {
        arena->PlaceRun(v, run);
        ++placed;
      },
      s);
  assert(placed == 2 * uint64_t{n});
  return frozen;
}

FrozenIndex FrozenIndex::FromIndex(const CscIndex& index) {
  FrozenIndex frozen;
  frozen.in_ = LabelArena::FromLabelSets(index.served_labels().in);
  frozen.out_ = LabelArena::FromLabelSets(index.served_labels().out);
  frozen.in_vertex_rank_ =
      InVertexRanks(index.bipartite_order().rank_to_vertex);
  return frozen;
}

CycleCount FrozenIndex::Query(Vertex v) const {
  if (v >= in_.num_vertices()) return {};
  JoinResult r = LabelArena::Join(out_, v, in_, v);
  if (r.dist == kInfDist) return {};
  return {(r.dist + 1) / 2, r.count};
}

CycleCount FrozenIndex::QueryThroughEdge(Vertex u, Vertex v) const {
  if (u == v || u >= in_.num_vertices() || v >= in_.num_vertices()) {
    return {};
  }
  JoinResult r = LabelArena::Join(out_, v, in_, u);
  // Couple-skipping correction: paths on which v_o outranks everything are
  // covered only by hub v_i in L_in(u_i).
  if (auto hit = in_.FindHub(u, in_vertex_rank_[v])) {
    Dist d = hit->first - 1;
    if (d < r.dist) {
      r.dist = d;
      r.count = hit->second;
    } else if (d == r.dist) {
      r.count += hit->second;
    }
  }
  if (r.dist == kInfDist) return {};
  return {(r.dist + 1) / 2 + 1, r.count};
}

std::string FrozenIndex::Serialize() const {
  std::string out;
  out.append(kMagic, 4);
  in_.AppendTo(out);
  out_.AppendTo(out);
  for (Rank r : in_vertex_rank_) {
    char buf[4];
    std::memcpy(buf, &r, 4);
    out.append(buf, 4);
  }
  return out;
}

std::optional<FrozenIndex> FrozenIndex::Parse(
    const uint8_t* data, size_t size, bool view,
    std::shared_ptr<const void> keep_alive) {
  if (size < 4 || std::memcmp(data, kMagic, 4) != 0) return std::nullopt;
  size_t pos = 4;
  FrozenIndex frozen;
  for (LabelArena* arena : {&frozen.in_, &frozen.out_}) {
    auto parsed = view ? LabelArena::ParseView(data, size, pos, keep_alive)
                       : LabelArena::Parse(data, size, pos);
    if (!parsed) return std::nullopt;
    *arena = std::move(*parsed);
  }
  const Vertex n = frozen.in_.num_vertices();
  if (frozen.out_.num_vertices() != n ||
      pos + sizeof(Rank) * static_cast<uint64_t>(n) != size) {
    return std::nullopt;
  }
  // The trailing couple-rank vector: one bulk memcpy, then a single
  // validation pass (couple ranks index the 2n bipartite ranks).
  frozen.in_vertex_rank_.resize(n);
  if (n > 0) {
    std::memcpy(frozen.in_vertex_rank_.data(), data + pos,
                sizeof(Rank) * static_cast<size_t>(n));
  }
  for (Rank r : frozen.in_vertex_rank_) {
    if (r >= 2ull * n) return std::nullopt;
  }
  return frozen;
}

std::optional<FrozenIndex> FrozenIndex::Deserialize(const std::string& bytes) {
  return Parse(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(),
               /*view=*/false, nullptr);
}

std::optional<FrozenIndex> FrozenIndex::FromView(
    const uint8_t* data, size_t size, std::shared_ptr<const void> keep_alive) {
  return Parse(data, size, /*view=*/true, std::move(keep_alive));
}

void FrozenIndex::SliceTo(const std::function<bool(Vertex)>& keep) {
  in_.Slice(keep);
  out_.Slice(keep);
}

}  // namespace csc
