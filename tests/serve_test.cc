// End-to-end tests for the out-of-process inference serving subsystem
// (src/serve/): served decisions must match local inference, batching must
// work across many clients, and every failure mode — no server, server
// crash mid-batch, corrupted responses, poisoned rings — must resolve as a
// graceful fallback within the RPC deadline, never a hang or crash.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/policy.h"
#include "src/ipc/shm_ring.h"
#include "src/ipc/uds.h"
#include "src/nn/mlp.h"
#include "src/serve/inference_server.h"
#include "src/serve/remote_policy.h"
#include "src/serve/serve_protocol.h"
#include "src/util/checkpoint.h"
#include "src/util/failpoint.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"

namespace astraea {
namespace serve {
namespace {

constexpr int kDim = 8;

std::string UniquePath(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/astraea_serve_test_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(counter.fetch_add(1));
}

Mlp MakeModel(uint64_t seed) {
  Rng rng(seed);
  return Mlp({kDim, 16, 1}, OutputActivation::kTanh, &rng);
}

void WriteRawModel(const Mlp& model, const std::string& path) {
  BinaryWriter writer(path);
  model.Save(&writer);
  writer.Flush();
}

std::vector<float> RandomState(Rng* rng) {
  std::vector<float> state(kDim);
  for (float& v : state) {
    v = static_cast<float>(rng->Uniform() * 2.0 - 1.0);
  }
  return state;
}

// A fallback policy whose output is unmistakable in assertions.
class ConstantPolicy : public Policy {
 public:
  explicit ConstantPolicy(double value) : value_(value) {}
  double Act(const StateView&) const override { return value_; }
  std::string name() const override { return "constant"; }

 private:
  double value_;
};

// Spins up an InferenceServer on its own thread and tears it down cleanly.
class ServerFixture {
 public:
  explicit ServerFixture(InferenceServerConfig config)
      : server_(std::move(config)), thread_([this] { server_.Run(); }) {}
  ~ServerFixture() {
    server_.Stop();
    thread_.join();
  }
  InferenceServer& server() { return server_; }

 private:
  InferenceServer server_;
  std::thread thread_;
};

std::unique_ptr<ServeClient> ConnectOrDie(const std::string& socket, TimeNs rpc_timeout) {
  ServeClientConfig config;
  config.socket_path = socket;
  config.rpc_timeout = rpc_timeout;
  // The server binds its socket in the constructor, but the handshake is
  // completed by the serving loop — allow it a moment to come around.
  const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(10.0);
  while (true) {
    std::unique_ptr<ServeClient> client = ServeClient::Connect(config);
    if (client != nullptr) {
      return client;
    }
    if (ipc::MonotonicNowNs() >= deadline) {
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(LoadActorFileTest, AcceptsRawStreamAndCheckpointContainer) {
  const Mlp model = MakeModel(7);
  const std::string raw_path = UniquePath("raw.ckpt");
  WriteRawModel(model, raw_path);
  const Mlp raw = LoadActorFile(raw_path);
  EXPECT_EQ(raw.input_size(), kDim);

  const std::string container_path = UniquePath("container.ckpt");
  {
    CheckpointWriter writer(container_path);
    model.Save(writer.payload());
    writer.Commit();
  }
  const Mlp boxed = LoadActorFile(container_path);
  EXPECT_EQ(boxed.input_size(), kDim);

  // Identical parameters either way: same inference result.
  Rng rng(3);
  const std::vector<float> state = RandomState(&rng);
  EXPECT_EQ(raw.Infer(state)[0], boxed.Infer(state)[0]);
  std::remove(raw_path.c_str());
  std::remove(container_path.c_str());
}

TEST(LoadActorFileTest, CorruptFilesThrowInsteadOfAllocating) {
  EXPECT_THROW(LoadActorFile(UniquePath("missing.ckpt")), SerializationError);

  // A checkpoint with plausible magic but absurd layer sizes (the shape of a
  // stale or bit-rotted file) must be rejected by validation, not die in a
  // multi-gigabyte allocation.
  const std::string path = UniquePath("hostile.ckpt");
  {
    BinaryWriter writer(path);
    writer.WriteU32(0x41534D4C);  // "ASML" magic
    writer.WriteU32(1);           // version
    writer.WriteU32(1);           // activation
    writer.WriteU64(5);           // ndims
    writer.WriteU32(40);
    writer.WriteU32(256);
    writer.WriteU32(1u << 30);  // hostile layer size
    writer.WriteU32(1u << 24);
    writer.WriteU32(1);
    writer.Flush();
  }
  EXPECT_THROW(LoadActorFile(path), SerializationError);
  std::remove(path.c_str());
}

TEST(ServeTest, ServedDecisionsMatchLocalInference) {
  const Mlp model = MakeModel(11);
  const std::string model_path = UniquePath("parity.ckpt");
  WriteRawModel(model, model_path);

  InferenceServerConfig config;
  config.socket_path = UniquePath("parity.sock");
  config.model_path = model_path;
  config.batch_window = Microseconds(200);
  ServerFixture fixture(config);

  std::unique_ptr<ServeClient> client = ConnectOrDie(config.socket_path, Seconds(2.0));
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->model_input_dim(), kDim);

  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    const std::vector<float> state = RandomState(&rng);
    const std::optional<double> served = client->Request(state);
    ASSERT_TRUE(served.has_value()) << "request " << i;
    const float local = model.Infer(state)[0];
    EXPECT_NEAR(*served, static_cast<double>(local), 1e-6) << "request " << i;
  }
  EXPECT_TRUE(client->healthy());
  const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(10.0);
  while (fixture.server().served_total() < 64u && ipc::MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fixture.server().served_total(), 64u);
  std::remove(model_path.c_str());
}

TEST(ServeTest, ManyConcurrentClientsAllServedCorrectly) {
  const Mlp model = MakeModel(13);
  const std::string model_path = UniquePath("multi.ckpt");
  WriteRawModel(model, model_path);

  InferenceServerConfig config;
  config.socket_path = UniquePath("multi.sock");
  config.model_path = model_path;
  ServerFixture fixture(config);

  constexpr int kClients = 4;
  constexpr int kRequests = 100;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<ServeClient> client = ConnectOrDie(config.socket_path, Seconds(2.0));
      if (client == nullptr) {
        failures.fetch_add(kRequests);
        return;
      }
      // Mlp::Infer uses mutable scratch (single-thread only): each thread
      // rebuilds its own reference model from the shared seed.
      const Mlp thread_model = MakeModel(13);
      Rng rng(100 + static_cast<uint64_t>(c));
      for (int i = 0; i < kRequests; ++i) {
        const std::vector<float> state = RandomState(&rng);
        const std::optional<double> served = client->Request(state);
        if (!served.has_value()) {
          failures.fetch_add(1);
          continue;
        }
        if (std::abs(*served - static_cast<double>(thread_model.Infer(state)[0])) > 1e-6) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Clients observe their responses slightly before the server's counter is
  // bumped at the end of the flush; give the final batch a moment to settle.
  const uint64_t expected = static_cast<uint64_t>(kClients) * static_cast<uint64_t>(kRequests);
  const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(10.0);
  while (fixture.server().served_total() < expected && ipc::MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fixture.server().served_total(), expected);
  std::remove(model_path.c_str());
}

TEST(ServeTest, WrongDimensionRequestIsRejectedNotServed) {
  const Mlp model = MakeModel(17);
  const std::string model_path = UniquePath("dim.ckpt");
  WriteRawModel(model, model_path);

  InferenceServerConfig config;
  config.socket_path = UniquePath("dim.sock");
  config.model_path = model_path;
  ServerFixture fixture(config);

  std::unique_ptr<ServeClient> client = ConnectOrDie(config.socket_path, Seconds(2.0));
  ASSERT_NE(client, nullptr);
  const std::vector<float> short_state(kDim - 3, 0.5f);
  EXPECT_FALSE(client->Request(short_state).has_value());
  // A per-request rejection is not a server death: the client stays healthy
  // and the next well-formed request succeeds.
  EXPECT_TRUE(client->healthy());
  const std::vector<float> good_state(kDim, 0.5f);
  EXPECT_TRUE(client->Request(good_state).has_value());
  std::remove(model_path.c_str());
}

TEST(ServeTest, NoServerMeansImmediateFallback) {
  const auto fallback = std::make_shared<ConstantPolicy>(0.25);
  const std::shared_ptr<const Policy> policy =
      MakeServedPolicy(UniquePath("nowhere.sock"), Milliseconds(20), fallback);
  ASSERT_NE(policy, nullptr);
  const std::vector<float> state(kDim, 0.1f);
  StateView view;
  view.state_vector = state;
  EXPECT_EQ(policy->Act(view), 0.25);
}

// The headline robustness guarantee: kill the server at the worst possible
// moment — after it consumed requests from client rings, before any response
// — and every in-flight request on every client must resolve through the
// local fallback within its deadline. No hang, no crash, no exception.
TEST(ServeTest, ServerCrashMidBatchDegradesEveryClient) {
  const Mlp model = MakeModel(19);
  const std::string model_path = UniquePath("crash.ckpt");
  WriteRawModel(model, model_path);
  const std::string socket_path = UniquePath("crash.sock");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    failpoint::Configure("serve.flush.mid_batch=1");
    InferenceServerConfig config;
    config.socket_path = socket_path;
    config.model_path = model_path;
    InferenceServer server(std::move(config));
    server.Run();  // crashes via the failpoint on the first flush
    _exit(0);      // unreachable if the failpoint fired
  }

  constexpr int kClients = 3;
  std::vector<std::unique_ptr<ServeClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(ConnectOrDie(socket_path, Milliseconds(300)));
    ASSERT_NE(clients.back(), nullptr) << "client " << c;
  }

  std::atomic<int> resolved{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<float> state(kDim, 0.1f * static_cast<float>(c + 1));
      const TimeNs start = ipc::MonotonicNowNs();
      const std::optional<double> result = clients[c]->Request(state);
      const TimeNs elapsed = ipc::MonotonicNowNs() - start;
      if (elapsed < Seconds(5.0)) {
        resolved.fetch_add(1);  // bounded, deadline honored
      }
      if (result.has_value()) {
        answered.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), failpoint::kCrashExitCode) << "server did not die at failpoint";

  EXPECT_EQ(resolved.load(), kClients) << "a client stalled past its deadline";
  EXPECT_EQ(answered.load(), 0) << "no response should have been produced";

  // After the crash is observed (socket EOF), clients fail fast and a
  // RemotePolicy built on one routes every decision to the fallback.
  for (auto& client : clients) {
    EXPECT_FALSE(client->Request(std::vector<float>(kDim, 0.3f)).has_value());
    EXPECT_FALSE(client->healthy());
  }
  RemotePolicy policy(std::move(clients[0]), std::make_shared<ConstantPolicy>(-0.5));
  const std::vector<float> state(kDim, 0.2f);
  StateView view;
  view.state_vector = state;
  EXPECT_EQ(policy.Act(view), -0.5);
  std::remove(model_path.c_str());
  // The server died at the failpoint without unlinking its socket.
  std::remove(socket_path.c_str());
}

TEST(ServeTest, HotReloadUnderLoadKeepsEveryResponseValid) {
  const Mlp model_a = MakeModel(23);
  const Mlp model_b = MakeModel(29);
  const std::string model_path = UniquePath("reload.ckpt");
  WriteRawModel(model_a, model_path);

  InferenceServerConfig config;
  config.socket_path = UniquePath("reload.sock");
  config.model_path = model_path;
  ServerFixture fixture(config);

  std::unique_ptr<ServeClient> client = ConnectOrDie(config.socket_path, Seconds(2.0));
  ASSERT_NE(client, nullptr);

  // Continuous request load across the swap: every single response must be
  // served (no drops, no fallbacks) and be a valid finite action — matching
  // either the old or the new model, never garbage in between.
  std::atomic<bool> stop{false};
  std::atomic<int> load_failures{0};
  Rng rng(31);
  const std::vector<float> probe = RandomState(&rng);
  const double expect_a = static_cast<double>(model_a.Infer(probe)[0]);
  const double expect_b = static_cast<double>(model_b.Infer(probe)[0]);
  ASSERT_GT(std::abs(expect_a - expect_b), 1e-9) << "models must be distinguishable";
  std::thread load([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::optional<double> served = client->Request(probe);
      const bool ok = served.has_value() && std::isfinite(*served) &&
                      *served >= -1.0 && *served <= 1.0 &&
                      (std::abs(*served - expect_a) < 1e-6 || std::abs(*served - expect_b) < 1e-6);
      if (!ok) {
        load_failures.fetch_add(1);
      }
    }
  });

  // Atomic model swap exactly as documented for astraea_serve: write the new
  // checkpoint beside the live one, rename over it, then signal a reload.
  const std::string tmp_path = model_path + ".next";
  WriteRawModel(model_b, tmp_path);
  ASSERT_EQ(std::rename(tmp_path.c_str(), model_path.c_str()), 0);
  fixture.server().RequestReload();
  const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(10.0);
  while (fixture.server().reload_count() == 0 && ipc::MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fixture.server().reload_count(), 1u) << "reload never happened";

  // Let some post-reload traffic through, then stop the load.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  load.join();
  EXPECT_EQ(load_failures.load(), 0);

  // After the reload every decision comes from the new model.
  const std::optional<double> served = client->Request(probe);
  ASSERT_TRUE(served.has_value());
  EXPECT_NEAR(*served, expect_b, 1e-6);

  // A failed reload (corrupt file) keeps the current actor serving.
  {
    BinaryWriter writer(model_path);
    writer.WriteU32(0xDEADBEEF);
    writer.Flush();
  }
  fixture.server().RequestReload();
  const TimeNs deadline2 = ipc::MonotonicNowNs() + Seconds(10.0);
  std::optional<double> after_bad;
  while (ipc::MonotonicNowNs() < deadline2) {
    after_bad = client->Request(probe);
    if (after_bad.has_value()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(after_bad.has_value());
  EXPECT_NEAR(*after_bad, expect_b, 1e-6);
  EXPECT_EQ(fixture.server().reload_count(), 1u);
  std::remove(model_path.c_str());
}

TEST(ServeTest, CorruptedResponseRecordTriggersFallback) {
  const Mlp model = MakeModel(37);
  const std::string model_path = UniquePath("corrupt.ckpt");
  WriteRawModel(model, model_path);

  InferenceServerConfig config;
  config.socket_path = UniquePath("corrupt.sock");
  config.model_path = model_path;
  ServerFixture fixture(config);

  std::unique_ptr<ServeClient> client = ConnectOrDie(config.socket_path, Seconds(2.0));
  ASSERT_NE(client, nullptr);

  // The failpoint's "throw" action makes the server damage exactly one
  // response CRC; the client must detect it and refuse the record.
  failpoint::Configure("serve.respond.corrupt=1:throw");
  const std::vector<float> state(kDim, 0.4f);
  EXPECT_FALSE(client->Request(state).has_value());
  failpoint::Clear();
  // A CRC failure means the shared region can no longer be trusted: the
  // client is permanently degraded to its fallback.
  EXPECT_FALSE(client->healthy());
  EXPECT_FALSE(client->Request(state).has_value());
  std::remove(model_path.c_str());
}

TEST(ServeTest, BitFlippedRingHeadersTimeOutSafely) {
  const Mlp model = MakeModel(41);
  const std::string model_path = UniquePath("poison.ckpt");
  WriteRawModel(model, model_path);

  InferenceServerConfig config;
  config.socket_path = UniquePath("poison.sock");
  config.model_path = model_path;
  ServerFixture fixture(config);

  std::unique_ptr<ServeClient> client = ConnectOrDie(config.socket_path, Milliseconds(100));
  ASSERT_NE(client, nullptr);

  // Poison every response slot's sequence header before sending anything:
  // the server's publishes will fail (dropped responses), the client sees
  // nothing, and the request must resolve as a timeout at its deadline —
  // never a crash, never an unbounded wait.
  ipc::ShmRegion* region = client->region_for_test();
  ASSERT_NE(region, nullptr);
  for (size_t i = 0; i < ipc::kRingSlots; ++i) {
    region->response.slots[i].seq.store(0xFFFF'FFFF'FFFF'0000ull + i,
                                        std::memory_order_relaxed);
  }
  const std::vector<float> state(kDim, 0.6f);
  const TimeNs start = ipc::MonotonicNowNs();
  EXPECT_FALSE(client->Request(state).has_value());
  EXPECT_LT(ipc::MonotonicNowNs() - start, Seconds(5.0));
  // The server itself survives and keeps serving other (healthy) clients.
  std::unique_ptr<ServeClient> healthy = ConnectOrDie(config.socket_path, Seconds(2.0));
  ASSERT_NE(healthy, nullptr);
  EXPECT_TRUE(healthy->Request(state).has_value());
  std::remove(model_path.c_str());
}

// Open descriptors in this process — a leak detector for failed handshakes,
// which juggle a memfd, a socket, and a passed eventfd.
int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) {
    return -1;
  }
  int count = 0;
  while (readdir(dir) != nullptr) {
    ++count;
  }
  closedir(dir);
  return count;
}

// The server dies between accepting the connection and sending its hello-ack:
// Connect must return nullptr promptly (EOF, not a timeout burn) and close
// everything it allocated for the attempt.
TEST(ServeTest, ServerDeathMidHandshakeFailsConnectCleanly) {
  const std::string socket_path = UniquePath("midhs.sock");
  const int listen_fd = ipc::ListenUnix(socket_path);
  ASSERT_GE(listen_fd, 0);
  const int fds_before = CountOpenFds();

  std::thread killer([&] {
    int conn = -1;
    const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(5.0);
    while (conn < 0 && ipc::MonotonicNowNs() < deadline) {
      conn = ipc::AcceptNonBlocking(listen_fd);
      if (conn < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (conn >= 0) {
      close(conn);  // die without a ServerHello: the client sees EOF
    }
  });

  ServeClientConfig config;
  config.socket_path = socket_path;
  config.connect_timeout = Milliseconds(500);
  const TimeNs start = ipc::MonotonicNowNs();
  const std::unique_ptr<ServeClient> client = ServeClient::Connect(config);
  const TimeNs elapsed = ipc::MonotonicNowNs() - start;
  killer.join();
  EXPECT_EQ(client, nullptr);
  EXPECT_LT(elapsed, Seconds(5.0)) << "mid-handshake death must not hang Connect";
  EXPECT_EQ(CountOpenFds(), fds_before) << "failed handshake leaked a descriptor";
  close(listen_fd);
  std::remove(socket_path.c_str());
}

// A listener that accepts and then goes silent (wedged server): Connect must
// give up at connect_timeout, not block forever — and still leak nothing.
TEST(ServeTest, SilentServerBoundsConnectByTimeoutWithoutLeaks) {
  const std::string socket_path = UniquePath("silent.sock");
  const int listen_fd = ipc::ListenUnix(socket_path);
  ASSERT_GE(listen_fd, 0);
  const int fds_before = CountOpenFds();

  int held_conn = -1;
  std::thread holder([&] {
    const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(5.0);
    while (held_conn < 0 && ipc::MonotonicNowNs() < deadline) {
      held_conn = ipc::AcceptNonBlocking(listen_fd);
      if (held_conn < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  ServeClientConfig config;
  config.socket_path = socket_path;
  config.connect_timeout = Milliseconds(100);
  const TimeNs start = ipc::MonotonicNowNs();
  const std::unique_ptr<ServeClient> client = ServeClient::Connect(config);
  const TimeNs elapsed = ipc::MonotonicNowNs() - start;
  holder.join();
  EXPECT_EQ(client, nullptr);
  EXPECT_GE(elapsed, Milliseconds(100));
  EXPECT_LT(elapsed, Seconds(5.0));
  if (held_conn >= 0) {
    close(held_conn);
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  close(listen_fd);
  std::remove(socket_path.c_str());
}

// Admission control at the wire level: once the server has a flush-latency
// estimate, a request whose deadline is already unmeetable gets an immediate
// kRejected response instead of being served late or silently dropped.
TEST(ServeTest, PastDeadlineRequestIsShedWithRejection) {
  const Mlp model = MakeModel(43);
  const std::string model_path = UniquePath("shed.ckpt");
  WriteRawModel(model, model_path);

  InferenceServerConfig config;
  config.socket_path = UniquePath("shed.sock");
  config.model_path = model_path;
  ServerFixture fixture(config);

  std::unique_ptr<ServeClient> client = ConnectOrDie(config.socket_path, Seconds(2.0));
  ASSERT_NE(client, nullptr);
  // Prime the estimator: shedding only activates after a measured flush.
  ASSERT_TRUE(client->Request(std::vector<float>(kDim, 0.2f)).has_value());

  // Hand-craft a request whose absolute deadline is in the distant past and
  // push it straight onto the ring (the real client never constructs one).
  ipc::ShmRegion* region = client->region_for_test();
  ASSERT_NE(region, nullptr);
  RequestRecord req{};
  req.req_id = 1000000;
  req.deadline_ns = 1;
  req.state_dim = kDim;
  for (int i = 0; i < kDim; ++i) {
    req.state[i] = 0.3f;
  }
  req.crc = RequestCrc(req);
  ASSERT_TRUE(region->request.TryPush(&req, sizeof(req)));

  // No doorbell rung: the server still wakes from its bounded idle park.
  ResponseRecord resp{};
  bool got = false;
  const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(10.0);
  while (!got && ipc::MonotonicNowNs() < deadline) {
    while (region->response.TryPop(&resp, sizeof(resp))) {
      if (resp.req_id == req.req_id) {
        got = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(got) << "shed response never arrived";
  EXPECT_TRUE(ValidResponse(resp));
  EXPECT_EQ(resp.status, static_cast<uint32_t>(ResponseStatus::kRejected));
  EXPECT_GE(fixture.server().shed_count(), 1u);
  std::remove(model_path.c_str());
}

// RequestDetailed surfaces the failure mode; a shed comes back as kRejected
// and leaves the client healthy (load, not failure).
TEST(ServeTest, RejectionKeepsClientHealthy) {
  const Mlp model = MakeModel(47);
  const std::string model_path = UniquePath("rej.ckpt");
  WriteRawModel(model, model_path);

  InferenceServerConfig config;
  config.socket_path = UniquePath("rej.sock");
  config.model_path = model_path;
  ServerFixture fixture(config);

  std::unique_ptr<ServeClient> client = ConnectOrDie(config.socket_path, Seconds(2.0));
  ASSERT_NE(client, nullptr);
  const RequestResult ok = client->RequestDetailed(std::vector<float>(kDim, 0.1f));
  EXPECT_EQ(ok.outcome, RequestOutcome::kOk);
  EXPECT_TRUE(client->healthy());
  std::remove(model_path.c_str());
}

// Every serve.* / serve.client.* metric exists (zero-valued) the moment a
// server or client is constructed — a scrape taken before the first shed,
// reconnect or fallback still contains the key.
TEST(ServeTest, ServeMetricsPreRegisteredAtConstruction) {
  const Mlp model = MakeModel(53);
  const std::string model_path = UniquePath("metrics.ckpt");
  WriteRawModel(model, model_path);
  InferenceServerConfig config;
  config.socket_path = UniquePath("metrics.sock");
  config.model_path = model_path;
  InferenceServer server(std::move(config));  // construction alone registers

  const std::string json = MetricsRegistry::Global().ToJson();
  for (const char* name :
       {"serve.requests_total", "serve.shed_total", "serve.drain_rounds",
        "serve.est_batch_latency_seconds", "serve.supervisor.restarts_total",
        "serve.client.requests_total", "serve.client.rejected_total",
        "serve.client.reconnects_total", "serve.fallback_total"}) {
    EXPECT_NE(json.find(name), std::string::npos) << "missing pre-registered metric: " << name;
  }
  std::remove(model_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace astraea
