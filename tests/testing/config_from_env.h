// The CI matrix's one entry point into the simulation.
//
// ClusterConfig's defaults are constants; the tier-1 suite reruns under a matrix of HM_SHARDS,
// HM_PIPELINE, HM_DURABLE and HM_CHECKPOINT cells by building its clusters from this
// function instead. Benches and examples never call it: they run the config they spell out.

#ifndef HALFMOON_TESTS_TESTING_CONFIG_FROM_ENV_H_
#define HALFMOON_TESTS_TESTING_CONFIG_FROM_ENV_H_

#include "src/common/env.h"
#include "src/runtime/cluster.h"

namespace halfmoon::testing {

// `config` with the matrix variables that are set applied on top: HM_SHARDS/HM_PIPELINE
// replace their field, HM_DURABLE/HM_CHECKPOINT switch their tier on; an unset variable keeps
// the field as given. Parsing is strict (src/common/env.h): HM_SHARDS=0 or HM_PIPELINE=4x
// aborts. HM_CHECKPOINT=1 without HM_DURABLE=1 is rejected by the Cluster constructor.
inline runtime::ClusterConfig ClusterConfigFromEnv(runtime::ClusterConfig config = {}) {
  config.log_shards = EnvInt("HM_SHARDS", 1, config.log_shards);
  config.append_batch_pipeline = EnvInt("HM_PIPELINE", 1, config.append_batch_pipeline);
  config.durable = config.durable || EnvFlag("HM_DURABLE");
  config.checkpoint = config.checkpoint || EnvFlag("HM_CHECKPOINT");
  return config;
}

}  // namespace halfmoon::testing

#endif  // HALFMOON_TESTS_TESTING_CONFIG_FROM_ENV_H_
