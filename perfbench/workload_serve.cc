// serve_closed_loop: one in-process serve::InferenceServer thread (trained
// checkpoint, default 500 us batch window, max batch 64) and 3 ServeClient
// threads, each running a closed loop of synchronous RequestDetailed calls on
// seeded 40-float states. The only workload through src/serve and src/ipc
// (shm rings, futex doorbell, deadline batcher); src/nn runs InferBatch at
// batch 1-3. Closed loop, because each controller blocks on its decision.
//
// Timing starts only once the server has all 3 clients attached. Every
// outcome other than kOk counts as a failed request, and after timing every
// served action is checked against in-process InferBatch on the same state.

#include <unistd.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/scenario.h"
#include "perfbench/report.h"
#include "perfbench/span_log.h"
#include "src/serve/inference_server.h"
#include "src/serve/remote_policy.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr int kClients = 3;
constexpr int kRequestsPerClient = 4000;  // per pass
constexpr int kStateDim = 40;
constexpr uint64_t kStateSeedStream = 0x5E4E5EED;
const char* const kModelPath = "models/astraea_policy_trained.ckpt";

struct Request {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  astraea::serve::RequestOutcome outcome = astraea::serve::RequestOutcome::kDead;
  double action = 0.0;
};

struct Pass {
  double setup_s = 0.0;
  double loop_s = 0.0;  // first request sent to last answer received
  int64_t loop_start_ns = 0;
  std::vector<std::vector<Request>> requests;  // per client
  bool attached = false;
};

// Seeded client states, drawn before timing so the RNG stays out of the loop.
std::vector<std::vector<float>> ClientStates(uint64_t seed, int client) {
  astraea::Rng rng(astraea::Rng::DeriveSeed(kStateSeedStream ^ seed, static_cast<uint64_t>(client)));
  std::vector<std::vector<float>> states(kRequestsPerClient, std::vector<float>(kStateDim));
  for (auto& state : states) {
    for (float& v : state) {
      v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  return states;
}

// A socket path short enough for sun_path: relative to the working directory
// and beside the benchmark binary.
std::string SocketPath() {
  std::error_code ec;
  const std::filesystem::path exe_dir =
      std::filesystem::read_symlink("/proc/self/exe", ec).parent_path();
  return (std::filesystem::relative(exe_dir, ec) / ("serve-" + std::to_string(getpid()) + ".sock"))
      .string();
}

Pass ServeOnce(const std::vector<std::vector<std::vector<float>>>& states) {
  Pass pass;
  pass.requests.resize(kClients);
  const auto setup_start = Clock::now();
  astraea::serve::InferenceServerConfig config;
  config.socket_path = SocketPath();
  config.model_path = kModelPath;
  astraea::serve::InferenceServer server(config);
  std::thread server_thread([&server] { server.Run(); });

  std::vector<std::unique_ptr<astraea::serve::ServeClient>> clients;
  astraea::serve::ServeClientConfig client_config;
  client_config.socket_path = config.socket_path;
  // Generous enough that a busy host's scheduling delay is not a failed
  // request; a real stall still shows in decision_p99_us.
  client_config.rpc_timeout = astraea::Milliseconds(250);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (static_cast<int>(clients.size()) < kClients && Clock::now() < deadline) {
    if (auto client = astraea::serve::ServeClient::Connect(client_config)) {
      clients.push_back(std::move(client));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  while (server.client_count() < clients.size() && Clock::now() < deadline) {
    std::this_thread::yield();
  }
  pass.setup_s = SecondsSince(setup_start);
  pass.attached = static_cast<int>(clients.size()) == kClients &&
                  server.client_count() == static_cast<size_t>(kClients);

  if (pass.attached) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Request>& out = pass.requests[static_cast<size_t>(c)];
        out.resize(kRequestsPerClient);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kRequestsPerClient; ++i) {
          Request& req = out[static_cast<size_t>(i)];
          req.start_ns = NowNs();
          const astraea::serve::RequestResult result =
              clients[static_cast<size_t>(c)]->RequestDetailed(states[c][static_cast<size_t>(i)]);
          req.end_ns = NowNs();
          req.outcome = result.outcome;
          req.action = result.action;
        }
      });
    }
    while (ready.load() < kClients) {
      std::this_thread::yield();
    }
    pass.loop_start_ns = NowNs();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) {
      t.join();
    }
    int64_t last = pass.loop_start_ns;
    for (const auto& client_requests : pass.requests) {
      last = std::max(last, client_requests.back().end_ns);
    }
    pass.loop_s = static_cast<double>(last - pass.loop_start_ns) * 1e-9;
  }
  clients.clear();
  server.Stop();
  server_thread.join();
  return pass;
}

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;        // non-kOk outcomes plus wrong actions
  uint64_t not_ok = 0;
  uint64_t wrong_action = 0;
  uint64_t digest = 0;        // served action bits, client by client
  std::vector<double> latencies_us;
};

Verdict Verify(const Pass& pass, const std::vector<std::vector<std::vector<float>>>& states,
               const astraea::Mlp& model) {
  Verdict v;
  v.digest = 0x5E47E0000000000ULL;
  for (int c = 0; c < kClients; ++c) {
    const auto& requests = pass.requests[static_cast<size_t>(c)];
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& req = requests[i];
      ++v.attempted;
      v.latencies_us.push_back(static_cast<double>(req.end_ns - req.start_ns) * 1e-3);
      if (req.outcome != astraea::serve::RequestOutcome::kOk) {
        ++v.not_ok;
        ++v.failed;
        continue;
      }
      const double local = static_cast<double>(model.InferBatch(states[c][i], 1)[0]);
      if (!(req.action >= -1.0 && req.action <= 1.0) || req.action != local) {
        ++v.wrong_action;
        ++v.failed;
      }
      v.digest = astraea::MixFingerprint(v.digest, std::bit_cast<uint64_t>(req.action));
    }
  }
  return v;
}

void CheckVerdict(const Pass& pass, const Verdict& v, const std::string& name, Result* r) {
  r->Check(pass.attached, name + ": server had all " + std::to_string(kClients) +
                              " clients attached before timing");
  r->attempted += v.attempted;
  r->failed += v.failed;
  if (v.failed > 0) {
    r->Note("CHECK FAILED: " + name + ": " + std::to_string(v.not_ok) + " requests not kOk, " +
            std::to_string(v.wrong_action) + " actions outside [-1,1] or unequal to InferBatch");
  }
}

std::vector<std::vector<std::vector<float>>> AllStates(uint64_t seed) {
  std::vector<std::vector<std::vector<float>>> states;
  for (int c = 0; c < kClients; ++c) {
    states.push_back(ClientStates(seed, c));
  }
  return states;
}

Result PlainRun(const Options& options) {
  Result r;
  const auto states = AllStates(options.seed);
  const astraea::Mlp model = astraea::serve::LoadActorFile(kModelPath);
  std::vector<double> setup;
  std::vector<double> rates;
  std::vector<double> latencies;
  uint64_t digest = 0;
  const auto start = Clock::now();
  do {
    const Pass pass = ServeOnce(states);
    Verdict v = Verify(pass, states, model);
    CheckVerdict(pass, v, "pass " + std::to_string(setup.size()), &r);
    if (setup.empty()) {
      digest = v.digest;
    }
    r.Check(v.digest == digest, "pass " + std::to_string(setup.size()) +
                                    ": served-action digest equals pass 0");
    setup.push_back(pass.setup_s);
    if (pass.loop_s > 0.0) {
      rates.push_back(static_cast<double>(v.attempted - v.failed) / pass.loop_s);
    }
    latencies.insert(latencies.end(), v.latencies_us.begin(), v.latencies_us.end());
  } while (SecondsSince(start) < options.seconds);

  r.Add("setup_s", "s", "lower", Median(setup), setup.size());
  r.Add("peak_rss_mb", "MB", "lower", PeakRssMb(), 1);
  r.Add("decisions_per_s", "1/s", "higher", Median(rates), rates.size());
  r.Add("decision_p50_us", "us", "lower", Quantile(latencies, 0.50), latencies.size());
  r.Add("decision_p99_us", "us", "lower", Quantile(latencies, 0.99), latencies.size());
  r.Note("digest " + Hex(digest) + " (served action bits of " +
         std::to_string(kClients * kRequestsPerClient) + " requests)");
  return r;
}

struct ServeCounters {
  uint64_t batches;
  double batch_rows;
  uint64_t batch_count;
  uint64_t shed;
  uint64_t timeouts;
  uint64_t drain_rounds;

  static ServeCounters Read() {
    astraea::MetricsRegistry& reg = astraea::MetricsRegistry::Global();
    return {reg.GetCounter("serve.batches_total").Value(),
            reg.GetHistogram("serve.batch_size").Sum(),
            reg.GetHistogram("serve.batch_size").Count(),
            reg.GetCounter("serve.shed_total").Value(),
            reg.GetCounter("serve.client.timeouts_total").Value(),
            reg.GetCounter("serve.drain_rounds").Value()};
  }
};

Result TracedRun(const Options& options) {
  Result r;
  const auto states = AllStates(options.seed);
  const astraea::Mlp model = astraea::serve::LoadActorFile(kModelPath);
  const Pass plain = ServeOnce(states);
  const Verdict plain_v = Verify(plain, states, model);
  CheckVerdict(plain, plain_v, "plain pass", &r);

  astraea::Histogram& service = astraea::MetricsRegistry::Global().GetHistogram(
      "serve.service_latency_seconds");
  service.Reset();
  const ServeCounters before = ServeCounters::Read();
  const Pass traced = ServeOnce(states);
  const ServeCounters after = ServeCounters::Read();
  const Verdict traced_v = Verify(traced, states, model);
  CheckVerdict(traced, traced_v, "traced pass", &r);
  r.Check(traced_v.digest == plain_v.digest, "traced served-action digest " +
                                                 Hex(traced_v.digest) + " equals plain " +
                                                 Hex(plain_v.digest));

  SpanLog spans;
  const uint32_t loop = spans.Add("serve.loop", SpanLog::kNoParent, traced.loop_start_ns,
                                  traced.loop_start_ns + static_cast<int64_t>(traced.loop_s * 1e9));
  for (const auto& client_requests : traced.requests) {
    for (const Request& req : client_requests) {
      spans.Add("serve.request", loop, req.start_ns, req.end_ns);
    }
  }
  // The server's latency histogram has log2 buckets, too coarse for a
  // percentile, but its sum is exact: compare means.
  double decision_mean_us = 0.0;
  for (double us : traced_v.latencies_us) {
    decision_mean_us += us / static_cast<double>(traced_v.latencies_us.size());
  }
  const double service_mean_us = service.Mean() * 1e6;
  const uint64_t batch_count = after.batch_count - before.batch_count;
  r.Add("serve.batches", "count", "lower", static_cast<double>(after.batches - before.batches), 1);
  r.Add("serve.batch_size_mean", "rows", "higher",
        batch_count > 0 ? (after.batch_rows - before.batch_rows) / static_cast<double>(batch_count)
                        : 0.0,
        batch_count);
  r.Add("serve.service_mean_us", "us", "lower", service_mean_us, service.Count());
  r.Add("serve.ipc_mean_us", "us", "lower", decision_mean_us - service_mean_us,
        traced_v.latencies_us.size());
  r.Add("serve.shed", "count", "lower", static_cast<double>(after.shed - before.shed), 1);
  r.Add("serve.timeouts", "count", "lower", static_cast<double>(after.timeouts - before.timeouts),
        1);
  r.Add("serve.drain_rounds", "count", "lower",
        static_cast<double>(after.drain_rounds - before.drain_rounds), 1);
  r.Add("trace.overhead_ratio", "ratio", "lower", traced.loop_s / plain.loop_s, 1);
  r.Note("digest plain " + Hex(plain_v.digest) + " traced " + Hex(traced_v.digest));
  const std::string path = TraceFilePath("serve_closed_loop", options.seed);
  r.Check(spans.WriteJsonl(path, {}, {}), "spans written to " + path);
  r.Note("spans: " + path);
  return r;
}

}  // namespace

Result RunServeClosedLoop(const Options& options) {
  return options.trace ? TracedRun(options) : PlainRun(options);
}

}  // namespace perfbench
