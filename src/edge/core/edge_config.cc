#include "edge/core/edge_config.h"

namespace edge::core {

Status EdgeConfig::Validate() const {
  if (embedding_dim == 0) return Status::InvalidArgument("embedding_dim must be > 0");
  if (num_components == 0) return Status::InvalidArgument("num_components must be > 0");
  if (epochs <= 0) return Status::InvalidArgument("epochs must be > 0");
  if (batch_size == 0) return Status::InvalidArgument("batch_size must be > 0");
  if (sigma_min_km <= 0.0) return Status::InvalidArgument("sigma_min_km must be > 0");
  if (rho_max <= 0.0 || rho_max >= 1.0) {
    return Status::InvalidArgument("rho_max must be in (0, 1)");
  }
  for (size_t width : gcn_hidden) {
    if (width == 0) return Status::InvalidArgument("gcn layer width must be > 0");
  }
  if (adam.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning rate must be > 0");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0 (0 = hardware)");
  }
  if (recovery.checkpoint_every <= 0) {
    return Status::InvalidArgument("recovery.checkpoint_every must be > 0");
  }
  if (recovery.max_epochs_per_run < 0) {
    return Status::InvalidArgument("recovery.max_epochs_per_run must be >= 0");
  }
  if (recovery.max_rollbacks < 0) {
    return Status::InvalidArgument("recovery.max_rollbacks must be >= 0");
  }
  if (recovery.grad_spike_factor < 0.0) {
    return Status::InvalidArgument("recovery.grad_spike_factor must be >= 0");
  }
  return Status::Ok();
}

EdgeConfig EdgeConfig::NoGcn() {
  EdgeConfig config;
  config.display_name = "NoGCN";
  config.gcn_hidden.clear();
  return config;
}

EdgeConfig EdgeConfig::SumAggregation() {
  EdgeConfig config;
  config.display_name = "SUM";
  config.use_attention = false;
  return config;
}

EdgeConfig EdgeConfig::NoMixture() {
  EdgeConfig config;
  config.display_name = "NoMixture";
  config.num_components = 1;
  return config;
}

}  // namespace edge::core
