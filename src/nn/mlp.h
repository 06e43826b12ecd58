// Multi-layer perceptron — the "MLP_phi" of the Prompt Generator (Eq. 2)
// and the "MLP_theta" of the Prompt Selector (Eq. 5).

#ifndef GRAPHPROMPTER_NN_MLP_H_
#define GRAPHPROMPTER_NN_MLP_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace gp {

enum class Activation { kRelu, kTanh, kSigmoid, kLeakyRelu, kIdentity };

// Applies `activation` elementwise.
Tensor ApplyActivation(const Tensor& x, Activation activation);

// A stack of Linear layers with an activation between them (not after the
// last layer). `dims` lists layer widths including input and output, e.g.
// {in, hidden, out} builds a two-layer network — the paper's reconstruction
// and selection layers are two-layer MLPs (Sec. V-F).
class Mlp : public Module {
 public:
  Mlp(const std::vector<int>& dims, Rng* rng,
      Activation activation = Activation::kRelu);

  Tensor Forward(const Tensor& x) const;

  int in_features() const { return layers_.front()->in_features(); }
  int out_features() const { return layers_.back()->out_features(); }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  const Linear& layer(int i) const { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation activation_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_NN_MLP_H_
