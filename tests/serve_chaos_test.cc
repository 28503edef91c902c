// Chaos soak for the self-healing serving stack: a supervised server is
// crashed, corrupted and stalled on a seeded schedule while reconnecting
// clients keep making decisions. The invariants under test are the PR's
// acceptance bar:
//   - no decision ever exceeds its budget (rpc_timeout + one bounded
//     reconnect probe) — clients degrade, they never hang;
//   - clients re-attach after every restart (reconnects observed);
//   - once the storm ends, decisions return to being *served* (steady-state
//     fallback rate decays to zero).
// The soak length defaults to a few seconds for the normal test suite;
// ASTRAEA_CHAOS_SOAK_SECONDS stretches it for the CI chaos job.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/policy.h"
#include "src/ipc/shm_ring.h"
#include "src/nn/mlp.h"
#include "src/serve/inference_server.h"
#include "src/serve/remote_policy.h"
#include "src/serve/supervisor.h"
#include "src/util/chaos.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"

namespace astraea {
namespace serve {
namespace {

constexpr int kDim = 8;
// Outside the valid action range [-1, 1]: a decision with this value is
// unmistakably the fallback, never a served (clamped) action.
constexpr double kFallbackValue = 2.0;

std::string UniquePath(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/astraea_chaos_test_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(counter.fetch_add(1));
}

std::string WriteModel(const char* tag, uint64_t seed) {
  Rng rng(seed);
  const Mlp model({kDim, 16, 1}, OutputActivation::kTanh, &rng);
  const std::string path = UniquePath(tag);
  BinaryWriter writer(path);
  model.Save(&writer);
  writer.Flush();
  return path;
}

class ConstantPolicy : public Policy {
 public:
  explicit ConstantPolicy(double value) : value_(value) {}
  double Act(const StateView&) const override { return value_; }
  std::string name() const override { return "constant"; }

 private:
  double value_;
};

TEST(SupervisorTest, RestartsCrashingChildUntilItExitsCleanly) {
  SupervisorConfig config;
  config.restart_backoff = {Milliseconds(1), Milliseconds(20), 2.0, 0.25};
  config.healthy_uptime = Milliseconds(1);
  // The child crashes while the supervisor is young and exits cleanly once
  // ~50ms have passed — elapsed time is the only state that survives the
  // fork boundary.
  Supervisor supervisor(config, [](TimeNs elapsed) { return elapsed < Milliseconds(50) ? 3 : 0; });
  EXPECT_EQ(supervisor.Run(), 0);
  EXPECT_GE(supervisor.restarts(), 1u);
}

TEST(SupervisorTest, RestartBudgetGivesUpWithChildStatus) {
  SupervisorConfig config;
  config.restart_backoff = {Milliseconds(1), Milliseconds(5), 2.0, 0.25};
  config.max_restarts = 2;
  Supervisor supervisor(config, [](TimeNs) { return 7; });
  EXPECT_EQ(supervisor.Run(), 7);
  EXPECT_EQ(supervisor.restarts(), 2u);
}

TEST(SupervisorTest, StopTerminatesARunningChildPromptly) {
  SupervisorConfig config;
  Supervisor supervisor(config, [](TimeNs) {
    // A child that never exits on its own; only SIGTERM ends it.
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return 0;
  });
  std::thread runner([&] { EXPECT_EQ(supervisor.Run(), 0); });
  const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(10.0);
  while (supervisor.child_pid() <= 0 && ipc::MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(supervisor.child_pid(), 0);
  const TimeNs stop_start = ipc::MonotonicNowNs();
  supervisor.Stop();
  runner.join();
  EXPECT_LT(ipc::MonotonicNowNs() - stop_start, Seconds(5.0));
  EXPECT_EQ(supervisor.restarts(), 0u);
}

// Self-healing without a supervisor in the picture: a policy created when no
// server exists serves from its fallback, then attaches by itself when a
// server appears, and re-attaches after that server is replaced.
TEST(ReconnectTest, PolicyAttachesAndReattachesAcrossServerLifetimes) {
  const std::string model_path = WriteModel("reconnect.ckpt", 11);
  const std::string socket_path = UniquePath("reconnect.sock");

  ReconnectConfig reconnect;
  reconnect.client.socket_path = socket_path;
  reconnect.client.rpc_timeout = Milliseconds(100);
  reconnect.client.connect_timeout = Milliseconds(200);
  reconnect.backoff = {Milliseconds(1), Milliseconds(50), 2.0, 0.25};
  reconnect.seed = 5;
  RemotePolicy policy(nullptr, std::make_shared<ConstantPolicy>(kFallbackValue), reconnect);

  const std::vector<float> state(kDim, 0.1f);
  StateView view;
  view.state_vector = state;
  EXPECT_EQ(policy.Act(view), kFallbackValue);  // no server yet

  InferenceServerConfig config;
  config.socket_path = socket_path;
  config.model_path = model_path;

  auto wait_until_served = [&]() -> bool {
    const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(20.0);
    while (ipc::MonotonicNowNs() < deadline) {
      if (policy.Act(view) != kFallbackValue) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  };

  {
    InferenceServer server(config);
    std::thread serving([&] { server.Run(); });
    EXPECT_TRUE(wait_until_served()) << "policy never attached to the first server";
    EXPECT_GE(policy.reconnects(), 1u);
    server.Stop();
    serving.join();
  }
  // Server gone: decisions degrade to the fallback again (first Act burns the
  // death-detection timeout, later ones are free), then a replacement server
  // on the same socket gets picked up by the probe schedule.
  const uint64_t attaches_before = policy.reconnects();
  const TimeNs degrade_deadline = ipc::MonotonicNowNs() + Seconds(20.0);
  while (policy.Act(view) != kFallbackValue && ipc::MonotonicNowNs() < degrade_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(policy.Act(view), kFallbackValue);
  {
    InferenceServer server(config);
    std::thread serving([&] { server.Run(); });
    EXPECT_TRUE(wait_until_served()) << "policy never re-attached to the replacement server";
    EXPECT_GT(policy.reconnects(), attaches_before);
    server.Stop();
    serving.join();
  }
  std::remove(model_path.c_str());
}

// The headline soak: a supervised serving process is killed, corrupted and
// stalled by a seeded chaos storm while client threads keep deciding.
TEST(ServeChaosTest, SoakUnderCrashStormNeverBlowsADecisionBudget) {
  const std::string model_path = WriteModel("soak.ckpt", 23);
  const std::string socket_path = UniquePath("soak.sock");

  double soak_seconds = 4.0;
  if (const char* env = std::getenv("ASTRAEA_CHAOS_SOAK_SECONDS")) {
    soak_seconds = std::max(1.0, std::atof(env));
  }
  const TimeNs soak = Seconds(soak_seconds);
  // The storm occupies the first ~70% of the soak; the tail is quiet so
  // steady-state recovery can be asserted.
  const chaos::ChaosSchedule storm =
      chaos::ChaosSchedule::RandomServeStorm(42, static_cast<TimeNs>(soak * 7 / 10),
                                             Milliseconds(400));
  ASSERT_FALSE(storm.empty());

  SupervisorConfig sup_config;
  sup_config.restart_backoff = {Milliseconds(10), Milliseconds(200), 2.0, 0.25};
  sup_config.healthy_uptime = Seconds(1.0);
  sup_config.seed = 7;
  Supervisor supervisor(sup_config, [&](TimeNs elapsed) {
    try {
      InferenceServerConfig config;
      config.socket_path = socket_path;
      config.model_path = model_path;
      InferenceServer server(config);
      // Resume the storm mid-timeline: a restarted child must not replay
      // events that already fired in a previous incarnation.
      chaos::ChaosRunner runner(storm, elapsed);
      server.Run();  // exits via chaos crash (_exit) or supervisor SIGTERM
    } catch (const std::exception&) {
      return 1;
    }
    return 0;
  });
  std::thread sup_thread([&] { supervisor.Run(); });

  const TimeNs rpc_timeout = Milliseconds(50);
  const TimeNs connect_timeout = Milliseconds(150);
  // One decision may pay a request (bounded by rpc_timeout) plus one
  // reconnect probe (bounded by connect_timeout); the slack absorbs scheduler
  // noise under sanitizers on loaded CI machines.
  const TimeNs decision_budget = rpc_timeout + connect_timeout + Milliseconds(500);

  constexpr int kClients = 4;
  std::atomic<uint64_t> total_decisions{0};
  std::atomic<uint64_t> budget_violations{0};
  std::vector<std::unique_ptr<RemotePolicy>> policies;
  for (int c = 0; c < kClients; ++c) {
    ReconnectConfig reconnect;
    reconnect.client.socket_path = socket_path;
    reconnect.client.rpc_timeout = rpc_timeout;
    reconnect.client.connect_timeout = connect_timeout;
    reconnect.backoff = {Milliseconds(2), Milliseconds(100), 2.0, 0.25};
    reconnect.seed = 1000 + static_cast<uint64_t>(c);
    policies.push_back(std::make_unique<RemotePolicy>(
        nullptr, std::make_shared<ConstantPolicy>(kFallbackValue), reconnect));
  }

  const TimeNs start = ipc::MonotonicNowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(500 + static_cast<uint64_t>(c));
      std::vector<float> state(kDim);
      StateView view;
      view.state_vector = state;
      while (ipc::MonotonicNowNs() < start + soak) {
        for (float& v : state) {
          v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
        }
        const TimeNs t0 = ipc::MonotonicNowNs();
        (void)policies[static_cast<size_t>(c)]->Act(view);
        const TimeNs dt = ipc::MonotonicNowNs() - t0;
        total_decisions.fetch_add(1);
        if (dt > decision_budget) {
          budget_violations.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // Post-storm settle: with the chaos disarmed and the server supervised,
  // decisions must return to *served* (not fallback) for every client.
  uint64_t settled = 0;
  const TimeNs settle_deadline = ipc::MonotonicNowNs() + Seconds(30.0);
  for (int c = 0; c < kClients; ++c) {
    std::vector<float> state(kDim, 0.25f);
    StateView view;
    view.state_vector = state;
    while (ipc::MonotonicNowNs() < settle_deadline) {
      if (policies[static_cast<size_t>(c)]->Act(view) != kFallbackValue) {
        ++settled;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  supervisor.Stop();
  sup_thread.join();

  EXPECT_GT(total_decisions.load(), 0u);
  EXPECT_EQ(budget_violations.load(), 0u)
      << "a decision exceeded rpc_timeout + connect_timeout + slack during the storm";
  EXPECT_EQ(settled, static_cast<uint64_t>(kClients))
      << "a client never returned to served decisions after the storm";
  // The storm's first event is always a crash, so at least one restart and at
  // least one client re-attach must have been observed.
  EXPECT_GE(supervisor.restarts(), 1u);
  uint64_t total_reconnects = 0;
  for (const auto& policy : policies) {
    EXPECT_GE(policy->reconnects(), 1u) << "a client never attached at all";
    total_reconnects += policy->reconnects();
  }
  EXPECT_GE(total_reconnects, static_cast<uint64_t>(kClients) + 1)
      << "no client ever *re*-attached after a crash";
  std::remove(model_path.c_str());
  // A server killed by the storm or the supervisor leaves its socket behind.
  std::remove(socket_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace astraea
