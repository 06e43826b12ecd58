#include "graph/graph_view.h"

#include <cstring>

#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace gp {

Tensor GraphView::GatherFeatureRows(const std::vector<int>& nodes) const {
  const int d = feature_dim();
  const int n = static_cast<int>(nodes.size());
  // Pooled like every op output, so an episode's packed feature block
  // recycles through the buffer pool instead of the heap.
  std::vector<float> data = AcquireBuffer(static_cast<size_t>(n) * d);
  for (int i = 0; i < n; ++i) {
    const float* row = FeatureRow(nodes[i]);
    CHECK(row != nullptr);
    std::memcpy(data.data() + static_cast<size_t>(i) * d, row,
                sizeof(float) * static_cast<size_t>(d));
  }
  return Tensor::FromData(n, d, std::move(data));
}

Tensor GraphAdapter::GatherFeatureRows(const std::vector<int>& nodes) const {
  return GatherRows(graph_.node_features(), nodes);
}

}  // namespace gp
