// Config is plain data: the struct defaults ignore the environment, and the CI matrix reaches
// the suite only through testing::ClusterConfigFromEnv.

#include "tests/testing/config_from_env.h"

#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ssf_runtime.h"

namespace halfmoon::testing {
namespace {

// Sets (or, for nullptr, unsets) each variable for the scope and restores the old values:
// CI runs this suite with the matrix variables exported.
struct ScopedEnv {
  ScopedEnv(std::initializer_list<std::pair<const char*, const char*>> vars) {
    for (const auto& [name, value] : vars) {
      const char* old = std::getenv(name);
      saved.emplace_back(name, old != nullptr ? std::optional<std::string>(old) : std::nullopt);
      Set(name, value);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() {
    for (const auto& [name, old] : saved) Set(name.c_str(), old ? old->c_str() : nullptr);
  }
  static void Set(const char* name, const char* value) {
    value != nullptr ? setenv(name, value, 1) : unsetenv(name);
  }
  std::vector<std::pair<std::string, std::optional<std::string>>> saved;
};

TEST(ConfigDefaultsTest, IgnoreTheEnvironment) {
  ScopedEnv env({{"HM_SHARDS", "4"}, {"HM_PIPELINE", "4"}, {"HM_DURABLE", "1"},
                 {"HM_CHECKPOINT", "1"}, {"HM_ADVISOR", "1"}});
  runtime::ClusterConfig cluster;
  EXPECT_EQ(cluster.log_shards, 1);
  EXPECT_EQ(cluster.append_batch_pipeline, 1);
  EXPECT_FALSE(cluster.durable);
  EXPECT_FALSE(cluster.checkpoint);
  EXPECT_FALSE(core::RuntimeConfig{}.advisor);
}

TEST(ClusterConfigFromEnvTest, MapsTheMatrixVariables) {
  {
    ScopedEnv env({{"HM_SHARDS", nullptr}, {"HM_PIPELINE", nullptr}, {"HM_DURABLE", nullptr},
                   {"HM_CHECKPOINT", nullptr}});
    runtime::ClusterConfig config = ClusterConfigFromEnv();
    EXPECT_EQ(config.log_shards, 1);
    EXPECT_EQ(config.append_batch_pipeline, 1);
    EXPECT_FALSE(config.durable);
    EXPECT_FALSE(config.checkpoint);
  }
  {
    ScopedEnv env({{"HM_SHARDS", "4"}, {"HM_PIPELINE", "4"}, {"HM_DURABLE", "1"},
                   {"HM_CHECKPOINT", "1"}});
    runtime::ClusterConfig base;
    base.function_nodes = 3;
    runtime::ClusterConfig config = ClusterConfigFromEnv(base);
    EXPECT_EQ(config.log_shards, 4);
    EXPECT_EQ(config.append_batch_pipeline, 4);
    EXPECT_TRUE(config.durable);
    EXPECT_TRUE(config.checkpoint);
    EXPECT_EQ(config.function_nodes, 3);  // Fields outside the matrix keep the base value.
  }
  // Out-of-range values abort with a diagnostic instead of silently clamping: a typo'd knob
  // (HM_PIPELINE=O1, =0) must never run a sweep with a config the user did not ask for.
  {
    ScopedEnv env({{"HM_PIPELINE", "0"}});
    EXPECT_DEATH(ClusterConfigFromEnv(), "below the knob's minimum");
  }
  // The checkpoint tier without the journal is still rejected where every config is checked.
  {
    ScopedEnv env({{"HM_DURABLE", "0"}, {"HM_CHECKPOINT", "1"}});
    EXPECT_DEATH(runtime::Cluster cluster(ClusterConfigFromEnv()),
                 "checkpoint=true requires durable=true");
  }
}

}  // namespace
}  // namespace halfmoon::testing
