// Figure 16 — CPU overhead and inference-service scalability, as
// google-benchmark microbenchmarks:
//   * per-MTP policy decision cost (distilled and MLP paths),
//   * batched inference cost vs batch size (16a/16b: one batched forward pass
//     over every flow vs Orca's one-inference-per-flow design),
//   * simulator event throughput (harness sanity number).
//
// With --serve-json=PATH the binary additionally benchmarks the
// out-of-process serving path (src/serve/): it forks a real astraea_serve
// process, runs 1..16 concurrent shared-memory clients against it, and
// emits p50/p95/p99 decision latency plus decisions/sec per client count —
// next to the in-process dispatch baseline — as PATH (BENCH_serve.json in
// CI). --serve-quick shrinks the request counts for smoke runs. Both flags
// are stripped before google-benchmark sees the command line.

#include <benchmark/benchmark.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/astraea_controller.h"
#include "src/core/training_config.h"
#include "src/ipc/shm_ring.h"
#include "src/serve/inference_server.h"
#include "src/serve/remote_policy.h"
#include "src/sim/network.h"
#include "src/util/serialization.h"

namespace astraea {
namespace {

Mlp PaperActor(uint64_t seed = 1) {
  // The paper's deployment model: 40 inputs (8 features x w=5), 256/128/64.
  Rng rng(seed);
  return Mlp({40, 256, 128, 64, 1}, OutputActivation::kTanh, &rng);
}

std::vector<float> RandomState(Rng* rng, size_t dim = 40) {
  std::vector<float> s(dim);
  for (auto& v : s) {
    v = static_cast<float>(rng->Uniform(0.0, 2.0));
  }
  return s;
}

void BM_MlpPolicyInference(benchmark::State& state) {
  Mlp actor = PaperActor();
  Rng rng(2);
  const std::vector<float> s = RandomState(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(actor.Infer(s));
  }
}
BENCHMARK(BM_MlpPolicyInference);

void BM_DistilledPolicyDecision(benchmark::State& state) {
  DistilledPolicy policy;
  MtpReport report;
  report.cwnd_bytes = 150'000;
  report.avg_rtt = Milliseconds(36);
  report.min_rtt = Milliseconds(30);
  report.acked_packets = 100;
  std::vector<float> vec(40, 0.5f);
  StateView view;
  view.state_vector = vec;
  view.report = &report;
  view.lat_min = Milliseconds(30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Act(view));
  }
}
BENCHMARK(BM_DistilledPolicyDecision);

// Fig. 16b: batched inference — total cost of serving N flows in one batch.
// Per-flow cost (time/N) drops as N grows, the sublinear-scaling claim.
void BM_BatchedInference(benchmark::State& state) {
  const size_t flows = static_cast<size_t>(state.range(0));
  const Mlp actor = PaperActor();
  Rng rng(3);
  std::vector<float> states;
  for (size_t i = 0; i < flows; ++i) {
    const auto s = RandomState(&rng);
    states.insert(states.end(), s.begin(), s.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(actor.InferBatch(states, flows));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(flows));
}
BENCHMARK(BM_BatchedInference)->Arg(1)->Arg(10)->Arg(50)->Arg(100)->Arg(500)->Arg(1000);

// The Orca-style counterfactual: one independent inference pass per flow
// (what the paper's Fig. 16b shows scaling linearly and exhausting 80 cores).
void BM_PerFlowInference(benchmark::State& state) {
  const size_t flows = static_cast<size_t>(state.range(0));
  Mlp actor = PaperActor();
  Rng rng(4);
  std::vector<std::vector<float>> states;
  for (size_t i = 0; i < flows; ++i) {
    states.push_back(RandomState(&rng));
  }
  for (auto _ : state) {
    for (const auto& s : states) {
      benchmark::DoNotOptimize(actor.Infer(s));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(flows));
}
BENCHMARK(BM_PerFlowInference)->Arg(1)->Arg(10)->Arg(50)->Arg(100)->Arg(500)->Arg(1000);

// Simulator speed: events per second on a saturated 100 Mbps bottleneck.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Network net(1);
    LinkConfig link;
    link.rate = Mbps(100);
    link.propagation_delay = Milliseconds(15);
    link.buffer_bytes = 375'000;
    net.AddLink(link);
    FlowSpec spec;
    spec.scheme = "astraea";
    spec.make_cc = [] {
      return std::make_unique<AstraeaController>(std::make_shared<DistilledPolicy>());
    };
    net.AddFlow(spec);
    net.Run(Seconds(2.0));
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(net.events().executed()));
  }
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Out-of-process serving comparison (--serve-json=PATH).
// ---------------------------------------------------------------------------

struct LatencyStats {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double decisions_per_sec = 0.0;
  uint64_t fallbacks = 0;
};

LatencyStats Summarize(std::vector<int64_t> latencies_ns, double wall_seconds,
                       uint64_t fallbacks) {
  LatencyStats stats;
  stats.fallbacks = fallbacks;
  if (latencies_ns.empty()) {
    return stats;
  }
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const auto pct = [&](double p) {
    const size_t idx = static_cast<size_t>(p * static_cast<double>(latencies_ns.size() - 1));
    return static_cast<double>(latencies_ns[idx]) / 1e3;
  };
  stats.p50_us = pct(0.50);
  stats.p95_us = pct(0.95);
  stats.p99_us = pct(0.99);
  double sum = 0.0;
  for (const int64_t ns : latencies_ns) {
    sum += static_cast<double>(ns);
  }
  stats.mean_us = sum / static_cast<double>(latencies_ns.size()) / 1e3;
  if (wall_seconds > 0.0) {
    stats.decisions_per_sec = static_cast<double>(latencies_ns.size()) / wall_seconds;
  }
  return stats;
}

// Seed stream for the serve clients' request states: client c draws from
// Rng::DeriveSeed(kServeClientSeedStream, c), so every run sends the same inputs.
constexpr uint64_t kServeClientSeedStream = 0x5E7CE;

// One client worker: `requests` synchronous decisions over its own ring pair.
void ServeClientWorker(const std::string& socket_path, int requests, int client_index,
                       std::vector<int64_t>* latencies_ns, std::atomic<uint64_t>* fallbacks) {
  serve::ServeClientConfig config;
  config.socket_path = socket_path;
  config.rpc_timeout = Milliseconds(100);
  std::unique_ptr<serve::ServeClient> client = serve::ServeClient::Connect(config);
  if (client == nullptr) {
    fallbacks->fetch_add(static_cast<uint64_t>(requests));
    return;
  }
  Rng rng(Rng::DeriveSeed(kServeClientSeedStream, static_cast<uint64_t>(client_index)));
  latencies_ns->reserve(static_cast<size_t>(requests));
  const std::vector<float> state = RandomState(&rng);
  for (int i = 0; i < requests; ++i) {
    const TimeNs t0 = ipc::MonotonicNowNs();
    const std::optional<double> action = client->Request(state);
    if (action.has_value()) {
      latencies_ns->push_back(ipc::MonotonicNowNs() - t0);
    } else {
      fallbacks->fetch_add(1);
    }
  }
}

int RunServingComparison(const std::string& json_path, bool quick) {
  const std::string tag = std::to_string(getpid());
  const std::string model_path = "/tmp/astraea_bench_serve_" + tag + ".ckpt";
  const std::string socket_path = "/tmp/astraea_bench_serve_" + tag + ".sock";
  const Mlp actor = PaperActor();
  {
    BinaryWriter writer(model_path);
    actor.Save(&writer);
    writer.Flush();
  }

  const int requests = quick ? 300 : 2000;
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("\n-- serving comparison: %d requests/client, model 40x256x128x64x1, "
              "%u core(s) --\n",
              requests, host_cores);
  if (host_cores < 4) {
    std::printf("note: clients + server oversubscribe %u core(s); multi-client\n"
                "      latency below is scheduler-bound, not IPC-bound.\n",
                host_cores);
  }

  // In-process dispatch baseline: the cost a sender pays when the model runs
  // inline in its own process.
  LatencyStats in_process;
  {
    Mlp local = PaperActor();
    Rng rng(9);
    const std::vector<float> state = RandomState(&rng);
    std::vector<int64_t> latencies;
    latencies.reserve(static_cast<size_t>(requests));
    const TimeNs start = ipc::MonotonicNowNs();
    for (int i = 0; i < requests; ++i) {
      const TimeNs t0 = ipc::MonotonicNowNs();
      benchmark::DoNotOptimize(local.Infer(state));
      latencies.push_back(ipc::MonotonicNowNs() - t0);
    }
    in_process = Summarize(std::move(latencies), ToSeconds(ipc::MonotonicNowNs() - start), 0);
    std::printf("in-process      p50 %7.1fus  p95 %7.1fus  p99 %7.1fus  %10.0f dec/s\n",
                in_process.p50_us, in_process.p95_us, in_process.p99_us,
                in_process.decisions_per_sec);
  }

  // A real separate server process, exactly as deployed.
  const pid_t server_pid = fork();
  if (server_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (server_pid == 0) {
    try {
      serve::InferenceServerConfig config;
      config.socket_path = socket_path;
      config.model_path = model_path;
      serve::InferenceServer server(std::move(config));
      server.Run();
    } catch (...) {
    }
    _exit(0);
  }
  // Wait until the server listens: the child still has to load the model,
  // and a client that connects before it does falls back for every request.
  serve::ServeClientConfig probe;
  probe.socket_path = socket_path;
  const TimeNs ready_deadline = ipc::MonotonicNowNs() + Seconds(5);
  while (serve::ServeClient::Connect(probe) == nullptr &&
         ipc::MonotonicNowNs() < ready_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::vector<int> client_counts = {1, 2, 4, 8, 16};
  std::vector<LatencyStats> served;
  for (const int clients : client_counts) {
    std::vector<std::vector<int64_t>> latencies(static_cast<size_t>(clients));
    std::atomic<uint64_t> fallbacks{0};
    std::vector<std::thread> threads;
    const TimeNs start = ipc::MonotonicNowNs();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(ServeClientWorker, socket_path, requests, c, &latencies[c], &fallbacks);
    }
    for (std::thread& t : threads) {
      t.join();
    }
    const double wall = ToSeconds(ipc::MonotonicNowNs() - start);
    std::vector<int64_t> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    served.push_back(Summarize(std::move(all), wall, fallbacks.load()));
    const LatencyStats& s = served.back();
    std::printf("served x%-2d      p50 %7.1fus  p95 %7.1fus  p99 %7.1fus  %10.0f dec/s"
                "  (%llu fallbacks)\n",
                clients, s.p50_us, s.p95_us, s.p99_us, s.decisions_per_sec,
                static_cast<unsigned long long>(s.fallbacks));
  }

  kill(server_pid, SIGKILL);
  waitpid(server_pid, nullptr, 0);
  std::remove(model_path.c_str());
  unlink(socket_path.c_str());

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"model\": \"40x256x128x64x1\",\n"
               "  \"host_cores\": %u,\n"
               "  \"requests_per_client\": %d,\n"
               "  \"in_process\": {\"p50_us\": %.2f, \"p95_us\": %.2f, \"p99_us\": %.2f, "
               "\"mean_us\": %.2f, \"decisions_per_sec\": %.0f},\n"
               "  \"served\": [\n",
               host_cores, requests, in_process.p50_us, in_process.p95_us,
               in_process.p99_us, in_process.mean_us, in_process.decisions_per_sec);
  for (size_t i = 0; i < served.size(); ++i) {
    const LatencyStats& s = served[i];
    std::fprintf(out,
                 "    {\"clients\": %d, \"p50_us\": %.2f, \"p95_us\": %.2f, "
                 "\"p99_us\": %.2f, \"mean_us\": %.2f, \"decisions_per_sec\": %.0f, "
                 "\"fallbacks\": %llu}%s\n",
                 client_counts[i], s.p50_us, s.p95_us, s.p99_us, s.mean_us,
                 s.decisions_per_sec, static_cast<unsigned long long>(s.fallbacks),
                 i + 1 < served.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) {
  // Strip our serving flags before google-benchmark parses the rest.
  std::string serve_json;
  bool serve_quick = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--serve-json=", 13) == 0) {
      serve_json = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--serve-quick") == 0) {
      serve_quick = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!serve_json.empty()) {
    return astraea::RunServingComparison(serve_json, serve_quick);
  }
  return 0;
}
