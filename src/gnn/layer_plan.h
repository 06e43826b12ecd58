// GnnLayerPlan: the rows and edges one message-passing layer computes,
// built per call by GnnEncoder::Plan.

#ifndef GRAPHPROMPTER_GNN_LAYER_PLAN_H_
#define GRAPHPROMPTER_GNN_LAYER_PLAN_H_

#include <vector>

namespace gp {

// A layer reads an input of some rows and writes one output row per entry
// of `self`. Every index is local to the call: `self` and `src` index the
// layer's input rows, `dst` its output rows, and `weight` the rows of the
// edge-weight tensor passed to the layer. Output rows and edges keep the
// packed union's order, and every edge into an output row is listed, so
// each output row sums the same terms in the same order as it would over
// the whole union. Several output rows may share an input row (a first
// layer that reads one row per node), so the input may have fewer rows
// than the output.
struct GnnLayerPlan {
  std::vector<int> self;    // input row of each output row
  std::vector<int> src;     // input row of each edge's source
  std::vector<int> dst;     // output row of each edge's destination
  std::vector<int> weight;  // edge-weight row of each edge
  // GCN only: 1 + the in-degree over the whole packed edge list (the input
  // may lack some rows' in-edges) of each output row and of each edge's
  // source row. Kept per row occurrence, because a first layer with one
  // input row per node reads copies of a node whose in-degrees differ.
  std::vector<float> self_degree;  // one per output row
  std::vector<float> src_degree;   // one per edge

  int num_out() const { return static_cast<int>(self.size()); }
};

}  // namespace gp

#endif  // GRAPHPROMPTER_GNN_LAYER_PLAN_H_
