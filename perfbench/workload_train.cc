// train_td3: VectorizedTrainer at the Table-4 / Appendix-A defaults (4 envs,
// batch 192, 20 TD3 steps per 5 s round, 30 s episodes, Table-3 domain) on 3
// workers, for a fixed number of super-episodes (one round in which every
// actor completes an episode). The only workload where batched src/nn
// writes (ForwardBatch/BackwardBatch/Adam) dominate; the actors read through
// batch-1 inference and build a fresh Network per episode.
//
// A traced run trains once plain and once one super-episode per Train()
// call, reading the trainer's own train.* counters around each call; both
// must end in the same StateFingerprint().

#include <string>
#include <vector>

#include "perfbench/report.h"
#include "perfbench/span_log.h"
#include "src/train/vectorized_trainer.h"
#include "src/util/metrics.h"

namespace perfbench {
namespace {

constexpr int kSuperEpisodes = 2;
constexpr int kSetupSamples = 5;  // extra trainer constructions per plain run
constexpr size_t kWorkers = 3;

astraea::VectorizedTrainerConfig TrainConfig(uint64_t seed) {
  astraea::VectorizedTrainerConfig config;
  config.domain = astraea::DomainRanges::TableThree();
  config.num_envs = 4;
  config.workers = kWorkers;
  config.seed = seed;
  // Pin the exploration-decay horizon so one Train(N) call and N Train(1)
  // calls train identically.
  config.exploration_decay_episodes = kSuperEpisodes;
  return config;
}

struct Pass {
  double setup_s = 0.0;
  double train_s = 0.0;
  uint64_t env_steps = 0;
  uint64_t decisions = 0;  // EpisodeStats::decisions summed over every actor episode
  int episodes_done = 0;
  uint32_t fingerprint = 0;
};

// The trainer's own counters, read around each super-episode.
struct TrainCounters {
  double round_s;
  double update_s;
  uint64_t update_count;
  uint64_t rounds;
  uint64_t stalls;

  static TrainCounters Read() {
    astraea::MetricsRegistry& reg = astraea::MetricsRegistry::Global();
    return {reg.GetHistogram("train.round_seconds").Sum(),
            reg.GetHistogram("train.update_seconds").Sum(),
            reg.GetHistogram("train.update_seconds").Count(),
            reg.GetCounter("train.rounds_total").Value(),
            reg.GetCounter("train.interleave_stalls_total").Value()};
  }
};

struct TraceTotals {
  SpanLog spans;
  double collect_s = 0.0;
  double update_s = 0.0;
  uint64_t rounds = 0;
  uint64_t stalls = 0;
  std::vector<double> update_ms_per_step;  // one mean per super-episode
  size_t replay_size = 0;
};

Pass TrainOnce(uint64_t seed, TraceTotals* trace) {
  Pass pass;
  const auto setup_start = Clock::now();
  astraea::VectorizedTrainer trainer(TrainConfig(seed));
  pass.setup_s = SecondsSince(setup_start);
  const auto count = [&pass](const astraea::EpisodeDiagnostics& d) {
    pass.decisions += static_cast<uint64_t>(d.env.decisions);
  };

  const auto train_start = Clock::now();
  if (trace == nullptr) {
    trainer.Train(kSuperEpisodes, count);
  } else {
    const uint32_t run = trace->spans.Begin("train.run", SpanLog::kNoParent);
    const int steps = trainer.config().hp.model_update_steps;
    for (int e = 0; e < kSuperEpisodes; ++e) {
      const TrainCounters before = TrainCounters::Read();
      const uint32_t span = trace->spans.Begin("train.super_episode", run);
      trainer.Train(1, count);
      trace->spans.End(span);
      const TrainCounters after = TrainCounters::Read();
      trace->collect_s += after.round_s - before.round_s;
      trace->update_s += after.update_s - before.update_s;
      trace->rounds += after.rounds - before.rounds;
      trace->stalls += after.stalls - before.stalls;
      const uint64_t updates = after.update_count - before.update_count;
      if (updates > 0) {
        trace->update_ms_per_step.push_back((after.update_s - before.update_s) * 1e3 /
                                            static_cast<double>(updates * steps));
      }
    }
    trace->spans.End(run);
    trace->replay_size = trainer.replay().size();
  }
  pass.train_s = SecondsSince(train_start);
  pass.env_steps = trainer.total_env_steps();
  pass.episodes_done = trainer.episodes_done();
  pass.fingerprint = trainer.StateFingerprint();
  return pass;
}

void CheckPass(const Pass& p, const Pass& first, const std::string& name, Result* r) {
  r->Check(p.episodes_done == kSuperEpisodes,
           name + ": " + std::to_string(p.episodes_done) + " super-episodes done of " +
               std::to_string(kSuperEpisodes));
  r->Check(p.env_steps == p.decisions && p.env_steps > 0,
           name + ": env steps collected " + std::to_string(p.env_steps) +
               " equal the actors' decisions " + std::to_string(p.decisions));
  r->Check(p.fingerprint == first.fingerprint && p.env_steps == first.env_steps,
           name + ": state fingerprint " + Hex(p.fingerprint) + " equals the first pass's " +
               Hex(first.fingerprint));
}

Result PlainRun(const Options& options) {
  Result r;
  std::vector<double> setup;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    astraea::VectorizedTrainer trainer(TrainConfig(options.seed));
    setup.push_back(SecondsSince(t0));
  }
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    passes.push_back(TrainOnce(options.seed, nullptr));
  } while (SecondsSince(start) < options.seconds);

  std::vector<double> rates;
  for (size_t i = 0; i < passes.size(); ++i) {
    setup.push_back(passes[i].setup_s);
    rates.push_back(static_cast<double>(passes[i].env_steps) / passes[i].train_s);
    CheckPass(passes[i], passes[0], "pass " + std::to_string(i), &r);
  }
  r.Add("setup_s", "s", "lower", Median(setup), setup.size());
  r.Add("peak_rss_mb", "MB", "lower", PeakRssMb(), 1);
  r.Add("decisions_per_s", "1/s", "higher", Median(rates), rates.size());
  r.Add("env_steps_per_s", "1/s", "higher", Median(rates), rates.size());
  r.Note("digest " + Hex(passes[0].fingerprint) + " (VectorizedTrainer::StateFingerprint after " +
         std::to_string(passes[0].env_steps) + " env steps)");
  return r;
}

Result TracedRun(const Options& options) {
  Result r;
  const Pass plain = TrainOnce(options.seed, nullptr);
  TraceTotals trace;
  const Pass traced = TrainOnce(options.seed, &trace);
  CheckPass(plain, plain, "plain pass", &r);
  CheckPass(traced, plain, "traced pass", &r);
  r.Note("digest plain " + Hex(plain.fingerprint) + " traced " + Hex(traced.fingerprint));

  const std::vector<double> episodes = trace.spans.DurationsNs("train.super_episode");
  const int steps = TrainConfig(options.seed).hp.model_update_steps;
  r.Add("train.collect_s", "s", "lower", trace.collect_s, trace.rounds);
  r.Add("train.update_s", "s", "lower", trace.update_s, trace.rounds);
  r.Add("train.collect_share", "fraction", "lower",
        trace.collect_s / (trace.collect_s + trace.update_s), trace.rounds);
  r.Add("train.episode_s_p50", "s", "lower", Median(episodes) * 1e-9, episodes.size());
  r.Add("train.updates", "count", "lower", static_cast<double>(trace.rounds * steps), 1);
  r.Add("train.update_ms_p50", "ms", "lower", Median(trace.update_ms_per_step),
        trace.update_ms_per_step.size());
  r.Add("train.replay_size", "count", "lower", static_cast<double>(trace.replay_size), 1);
  r.Add("train.interleave_stalls", "count", "lower", static_cast<double>(trace.stalls), 1);
  r.Add("trace.overhead_ratio", "ratio", "lower", traced.train_s / plain.train_s, 1);
  const std::string path = TraceFilePath("train_td3", options.seed);
  r.Check(trace.spans.WriteJsonl(path, {}, {}), "spans written to " + path);
  r.Note("spans: " + path);
  return r;
}

}  // namespace

Result RunTrainTd3(const Options& options) {
  return options.trace ? TracedRun(options) : PlainRun(options);
}

}  // namespace perfbench
