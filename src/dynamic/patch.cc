#include "dynamic/patch.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace csc {

LabelPatch ExtractLabelPatch(const CscIndex& shadow,
                             const DirtyLabelTracker& dirty) {
  LabelPatch patch;
  patch.num_vertices = shadow.num_original_vertices();
  const HubLabeling& labels = shadow.served_labels();
  // Each marked (deduplicated) vertex's stored set becomes one run edit.
  auto runs = [](const std::vector<Vertex>& marked,
                 const std::vector<LabelSet>& sets,
                 std::vector<std::pair<Vertex, LabelSet>>& out) {
    std::vector<Vertex> vertices = marked;
    std::sort(vertices.begin(), vertices.end());
    out.reserve(vertices.size());
    for (Vertex v : vertices) out.emplace_back(v, sets[v]);
  };
  runs(dirty.dirty_in(), labels.in, patch.in_runs);
  runs(dirty.dirty_out(), labels.out, patch.out_runs);
  return patch;
}

}  // namespace csc
