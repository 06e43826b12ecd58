#include "core/graph_prompter.h"

#include <cmath>
#include <string>

#include "util/logging.h"

namespace gp {

Status Validate(const GraphPrompterConfig& config) {
  auto require = [](bool ok, const std::string& what) {
    return ok ? Status::Ok() : InvalidArgumentError("config: " + what);
  };
  GP_RETURN_IF_ERROR(require(config.feature_dim > 0, "feature_dim must be > 0"));
  GP_RETURN_IF_ERROR(
      require(config.embedding_dim > 0, "embedding_dim must be > 0"));
  GP_RETURN_IF_ERROR(require(config.gnn_layers >= 1, "gnn_layers must be >= 1"));
  GP_RETURN_IF_ERROR(
      require(config.recon_hidden > 0, "recon_hidden must be > 0"));
  GP_RETURN_IF_ERROR(
      require(config.selection_hidden > 0, "selection_hidden must be > 0"));
  GP_RETURN_IF_ERROR(
      require(config.task_layers >= 1, "task_layers must be >= 1"));
  GP_RETURN_IF_ERROR(
      require(std::isfinite(config.score_temperature) &&
                  config.score_temperature > 0.0f,
              "score_temperature must be finite and > 0"));
  GP_RETURN_IF_ERROR(
      require(config.sampler.num_hops >= 1, "sampler.num_hops must be >= 1"));
  GP_RETURN_IF_ERROR(
      require(config.sampler.max_nodes >= 1, "sampler.max_nodes must be >= 1"));
  GP_RETURN_IF_ERROR(
      require(config.sampler.num_walks >= 1, "sampler.num_walks must be >= 1"));
  GP_RETURN_IF_ERROR(require(config.augmenter.cache_capacity >= 0,
                             "augmenter.cache_capacity must be >= 0"));
  GP_RETURN_IF_ERROR(require(config.augmenter.top_k_hits >= 0,
                             "augmenter.top_k_hits must be >= 0"));
  GP_RETURN_IF_ERROR(require(std::isfinite(config.augmenter.min_confidence),
                             "augmenter.min_confidence must be finite"));
  GP_RETURN_IF_ERROR(require(config.cache_inserts_per_batch >= 0,
                             "cache_inserts_per_batch must be >= 0"));
  return Status::Ok();
}

GraphPrompterModel::GraphPrompterModel(const GraphPrompterConfig& config)
    : config_(config) {
  CHECK_OK(Validate(config));
  Rng rng(config.seed);

  PromptGeneratorConfig gen;
  gen.gnn.arch = config.gnn_arch;
  gen.gnn.in_dim = config.feature_dim;
  gen.gnn.hidden_dim = config.embedding_dim;
  gen.gnn.out_dim = config.embedding_dim;
  gen.gnn.num_layers = config.gnn_layers;
  gen.sampler = config.sampler;
  gen.recon_hidden = config.recon_hidden;
  gen.recon_arch = config.recon_arch;
  gen.use_reconstruction = config.use_reconstruction;
  generator_ = std::make_unique<PromptGenerator>(gen, &rng);
  RegisterModule("generator", generator_.get());

  SelectionLayerConfig sel;
  sel.embedding_dim = config.embedding_dim;
  sel.hidden_dim = config.selection_hidden;
  selection_ = std::make_unique<SelectionLayer>(sel, &rng);
  RegisterModule("selection", selection_.get());

  TaskGraphConfig task;
  task.embedding_dim = config.embedding_dim;
  task.num_layers = config.task_layers;
  task.score_temperature = config.score_temperature;
  task_net_ = std::make_unique<TaskGraphNet>(task, &rng);
  RegisterModule("task_net", task_net_.get());
}

GraphPrompterConfig FullGraphPrompterConfig(int feature_dim, uint64_t seed) {
  GraphPrompterConfig config;
  config.feature_dim = feature_dim;
  config.seed = seed;
  return config;
}

}  // namespace gp
