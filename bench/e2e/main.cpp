// End-to-end benchmark of the AdapTraj training and serving stack.
//
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--json FILE] [--trace-out FILE] [--revision REV]
//             [--smoke] [--self-test]
//
// A run is kRounds rounds. Each round sets the system up from scratch
// (training corpus, model, the workload's fixed training schedule, an
// InferenceEngine, warm-up), byte-checks the engine against a reference
// built from public functions, and serves the workload's traffic through
// three windows: light (Poisson, 2,000 rps), heavy (Poisson at a fixed rate
// near half of capacity) and capacity (closed loop, 32 requests
// outstanding). The windows of all rounds together last --seconds. Every
// end-to-end metric is the median over rounds, so a few seconds in which
// the host runs slow move a minority of the samples, not the result.
// With --trace 1 each round serves its windows twice, untraced for the
// engine's counters and through TracedMethod for the per-layer timings.
// The last line of stdout is the JSON result; README.md defines every
// metric.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/adaptraj_method.h"
#include "core/parallel_trainer.h"
#include "data/multi_domain.h"
#include "eval/metrics.h"
#include "load.h"
#include "serve/inference_engine.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "trace.h"

extern char** environ;

namespace adaptraj {
namespace e2e {
namespace {

// --- Fixed benchmark configuration --------------------------------------------

constexpr int kBatchSize = 8;
constexpr int kMaxBatchDelayMs = 2;
constexpr int kKernelThreads = 4;
constexpr int kTrainWorkers = 4;
constexpr int kClosedLoopOutstanding = 32;
constexpr double kLightRps = 2000.0;
constexpr double kLatencyLimitP90Ms = 5.0;
constexpr int kRounds = 8;
constexpr int kWarmupRequests = 1024;
/// 32 full batches and a 4-row tail that the engine pads.
constexpr int kVerifyRequests = 260;
constexpr int kEvalSamples = 20;
constexpr int kEvalBatch = 64;
/// Share of --seconds given to the capacity, light and heavy windows.
constexpr double kCapacityShare = 0.4;
constexpr double kLightShare = 0.2;
constexpr double kHeavyShare = 0.4;
/// Request pool: target-domain scenes, jittered and shuffled by --seed.
constexpr size_t kPoolScenes = 4096;
constexpr int kPoolSimScenes = 32;
constexpr int kPoolSimSteps = 60;
constexpr float kPoolJitterM = 0.05f;
/// The corpora are the benchmark's fixed datasets: they do not depend on
/// --seed, so ade/fde are exact and any drift is a real change.
constexpr uint64_t kCorpusSeed = 20240612;
constexpr uint64_t kPoolCorpusSeed = 20240701;
constexpr uint64_t kModelSeed = 20240641;
constexpr uint64_t kTrainSeed = 20240625;
constexpr uint64_t kEvalSeed = 20240529;

struct Workload {
  const char* name;
  models::BackboneKind backbone;
  int corpus_scenes;  // simulated scenes per domain
  int corpus_steps;   // recorded steps per scene
  int epochs;         // full passes over the pooled training sequences
  double repeat_share;
  double heavy_rps;
};

// Why each workload exists is in README.md.
const Workload kWorkloads[] = {
    {"serve_fresh", models::BackboneKind::kPecnet, 4, 60, 24, 0.0, 25000.0},
    {"serve_repeat", models::BackboneKind::kPecnet, 4, 60, 24, 0.9, 50000.0},
    {"serve_lbebm", models::BackboneKind::kLbebm, 4, 60, 24, 0.0, 20000.0},
    {"train", models::BackboneKind::kPecnet, 16, 80, 8, 0.0, 25000.0},
};

/// Windows in the order a round runs them. The open-loop windows come first:
/// they serve a number of requests fixed by the seed, so the engine's heap is
/// sampled after the same traffic on every run, before the closed loop.
enum Phase { kLight, kHeavy, kCapacity, kNumPhases };
const char* const kPhaseNames[kNumPhases] = {"light", "heavy", "capacity"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  // BENCHMARK.json's run_seconds
  bool trace = false;
  bool smoke = false;
  bool self_test = false;
  std::string json_path;
  std::string trace_path;
  std::string revision = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e_bench --workload serve_fresh|serve_repeat|"
               "serve_lbebm|train [--seed N] [--seconds S] [--trace 0|1]\n"
               "       [--json FILE] [--trace-out FILE] [--revision REV] "
               "[--smoke] [--self-test]\n",
               msg);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--json") {
      o.json_path = value();
    } else if (arg == "--trace-out") {
      o.trace_path = value();
    } else if (arg == "--revision") {
      o.revision = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--self-test") {
      o.self_test = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!(o.seconds > 0.0)) Usage("--seconds must be positive");
  return o;
}

/// Every run measures the library's defaults: refuse to run when any
/// ADAPTRAJ_* knob would change a code path.
void RefuseEnvOverrides() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "ADAPTRAJ_", 9) == 0) {
      std::fprintf(stderr,
                   "error: %s is set; the benchmark measures the defaults. "
                   "Unset every ADAPTRAJ_* variable.\n",
                   *env);
      std::exit(2);
    }
  }
}

// --- Small numeric helpers ------------------------------------------------------

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Pct(double part, double whole) { return whole > 0.0 ? 100.0 * part / whole : 0.0; }

using Buckets = std::array<int64_t, serve::LatencyHistogram::kNumBuckets>;

/// LatencyHistogram::Quantile over a bucket-count delta, in milliseconds.
double BucketQuantileMs(const Buckets& counts, double q) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(total) + 0.5);
  rank = std::max<int64_t>(1, std::min(rank, total));
  int64_t seen = 0;
  for (int b = 0; b < serve::LatencyHistogram::kNumBuckets; ++b) {
    const int64_t in_bucket = counts[static_cast<size_t>(b)];
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      const double lo = serve::LatencyHistogram::BucketLowerUs(b);
      const double hi = serve::LatencyHistogram::BucketUpperUs(b);
      const double frac = static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
      return (lo + (hi - lo) * frac) * 1e-3;
    }
    seen += in_bucket;
  }
  return 0.0;
}

/// Bytes the allocator has handed out and not taken back, over all arenas.
/// Unlike RSS it does not depend on which freed pages the allocator has
/// returned to the kernel, so it repeats from run to run.
double HeapInUseMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// --- Metrics registry -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }
  std::string Json() const {
    std::string out = "{";
    char buf[96];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.10g", metrics_[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// --- Set-up: corpus, model, training, engine, warm-up ------------------------------

data::CorpusConfig CorpusFor(const Workload& w) {
  data::CorpusConfig c;
  c.num_scenes = w.corpus_scenes;
  c.steps_per_scene = w.corpus_steps;
  c.seed = kCorpusSeed;
  return c;
}

std::vector<sim::Domain> SourceDomains() {
  return {sim::Domain::kEthUcy, sim::Domain::kLcas, sim::Domain::kSyi};
}

std::unique_ptr<core::AdapTrajMethod> MakeMethod(const Workload& w) {
  models::BackboneConfig backbone;
  backbone.hidden_dim = 32;
  backbone.social_dim = 32;
  backbone.embed_dim = 16;
  backbone.latent_dim = 8;
  backbone.langevin_steps = 4;
  core::AdapTrajConfig model;
  model.num_source_domains = static_cast<int>(SourceDomains().size());
  return std::make_unique<core::AdapTrajMethod>(w.backbone, backbone, model, kModelSeed);
}

core::TrainConfig TrainConfigFor(const Workload& w) {
  core::TrainConfig t;
  t.epochs = w.epochs;
  t.max_batches_per_epoch = 0;  // full passes: every epoch trains every sequence once
  t.batch_size = 32;
  t.lr = 3e-3f;
  t.seed = kTrainSeed;
  return t;
}

serve::InferenceEngineOptions EngineOptions(uint64_t seed) {
  serve::InferenceEngineOptions o;
  o.batch_size = kBatchSize;
  o.max_batch_delay_ms = kMaxBatchDelayMs;
  o.seed = seed;
  return o;
}

std::vector<data::TrajectorySequence> Draw(RequestStream* stream, int count) {
  std::vector<data::TrajectorySequence> scenes;
  scenes.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) scenes.push_back(stream->Next());
  return scenes;
}

/// Submits `scenes` with explicit ids from batch `first_batch` on, rows of
/// each batch in reverse order, and drains. Only complete batches (or the
/// drained tail) can form, whatever the deadline flush does, so batch
/// composition does not depend on timing.
std::vector<std::future<Tensor>> SubmitWholeBatches(
    serve::InferenceEngine* engine, const std::vector<data::TrajectorySequence>& scenes,
    uint64_t first_batch) {
  const int count = static_cast<int>(scenes.size());
  const uint64_t first_slot = first_batch * kBatchSize;
  std::vector<std::future<Tensor>> futures(scenes.size());
  for (int b0 = 0; b0 < count; b0 += kBatchSize) {
    for (int r = std::min(b0 + kBatchSize, count) - 1; r >= b0; --r) {
      futures[static_cast<size_t>(r)] =
          engine->Submit(first_slot + static_cast<uint64_t>(r), scenes[static_cast<size_t>(r)]);
    }
  }
  engine->Drain();
  return futures;
}

/// Serves kWarmupRequests requests in whole batches on a new engine.
void WarmUp(serve::InferenceEngine* engine, RequestStream* stream) {
  for (auto& f : SubmitWholeBatches(engine, Draw(stream, kWarmupRequests), 0)) (void)f.get();
}

struct Setup {
  data::DomainGeneralizationData dgd;
  std::unique_ptr<core::AdapTrajMethod> method;
  std::unique_ptr<serve::InferenceEngine> engine;
  double seconds = 0.0;
  double train_seconds = 0.0;
  int64_t trained_sequences = 0;
  double heap_before_engine_mb = 0.0;
  /// Probe prediction bytes after training (determinism across set-ups).
  std::vector<float> probe;
};

std::unique_ptr<Setup> SetUp(const Workload& w, RequestStream* stream, uint64_t engine_seed) {
  auto s = std::make_unique<Setup>();
  const Clock::time_point t0 = Clock::now();
  s->dgd = data::BuildDomainGeneralizationData(SourceDomains(), sim::Domain::kSdd,
                                               CorpusFor(w));
  s->method = MakeMethod(w);
  const core::TrainConfig train = TrainConfigFor(w);
  const Clock::time_point t_train = Clock::now();
  s->method->Train(s->dgd, train);
  s->train_seconds = std::chrono::duration<double>(Clock::now() - t_train).count();
  s->trained_sequences =
      static_cast<int64_t>(s->dgd.pooled_train.size()) * static_cast<int64_t>(train.epochs);

  // Start the engine from empty buffer pools, so that its heap does not
  // depend on what training left cached: rebuilding the worker pool frees
  // the workers' thread-local pools, and the main thread's is cleared.
  parallel::ConfigureTrainWorkers(kTrainWorkers);
  internal::ClearBufferPool();
  s->heap_before_engine_mb = HeapInUseMb();
  s->engine = std::make_unique<serve::InferenceEngine>(s->method.get(),
                                                       EngineOptions(engine_seed));
  WarmUp(s->engine.get(), stream);
  s->seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  // Untimed: the trained weights must be bit-identical on every set-up.
  std::vector<const data::TrajectorySequence*> rows;
  for (size_t i = 0; i < std::min<size_t>(kBatchSize, s->dgd.target.test.size()); ++i) {
    rows.push_back(&s->dgd.target.test.sequences[i]);
  }
  Rng rng(1);
  const Tensor pred = s->method->Predict(data::MakeBatch(rows, data::SequenceConfig()),
                                         &rng, /*sample=*/true);
  s->probe.assign(pred.data(), pred.data() + pred.size());
  return s;
}

/// Request pool: kPoolScenes copies of the sequences of a fixed simulated
/// target-domain corpus, spread evenly over all of them, jittered and
/// shuffled by `seed`. The corpus is fixed so that every seed serves the
/// same mix of scene shapes: the engine's memory and speed depend on it.
std::vector<data::TrajectorySequence> BuildRequestPool(uint64_t seed) {
  data::SequenceConfig cfg;
  const data::SplitDataset split = data::BuildDomainDataset(
      sim::Domain::kSdd, kPoolSimScenes, kPoolSimSteps, kPoolCorpusSeed, cfg);
  std::vector<const data::TrajectorySequence*> base;
  for (const data::Dataset* d : {&split.train, &split.val, &split.test}) {
    for (const auto& s : d->sequences) base.push_back(&s);
  }
  ADAPTRAJ_CHECK_MSG(!base.empty(), "request-pool simulation produced no sequences");
  Rng rng(core::TaskSeed(seed, 7));
  std::vector<data::TrajectorySequence> pool;
  pool.reserve(kPoolScenes);
  for (size_t i = 0; i < kPoolScenes; ++i) {
    data::TrajectorySequence scene = *base[i * base.size() / kPoolScenes];
    for (sim::Vec2& p : scene.focal) {
      p.x += rng.Normal(0.0f, kPoolJitterM);
      p.y += rng.Normal(0.0f, kPoolJitterM);
    }
    for (auto& track : scene.neighbors) {
      for (sim::Vec2& p : track) {
        p.x += rng.Normal(0.0f, kPoolJitterM);
        p.y += rng.Normal(0.0f, kPoolJitterM);
      }
    }
    pool.push_back(std::move(scene));
  }
  for (size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) + 1))]);
  }
  return pool;
}

// --- Verify: engine results against a reference from public functions ---------------

struct VerifyResult {
  int64_t attempted = 0;
  int64_t mismatched = 0;
};

/// Serves kVerifyRequests requests in whole batches. Each result must equal,
/// byte for byte, row r of Method::Predict over the same rows (the tail
/// padded by cycling its live rows) with the batch's noise stream
/// Rng(core::TaskSeed(seed, b)).
VerifyResult Verify(serve::InferenceEngine* engine, const core::Method& method,
                    RequestStream* stream, uint64_t engine_seed, bool self_test) {
  const uint64_t first_batch = static_cast<uint64_t>(engine->stats().batches);
  const std::vector<data::TrajectorySequence> scenes = Draw(stream, kVerifyRequests);
  std::vector<std::future<Tensor>> futures = SubmitWholeBatches(engine, scenes, first_batch);

  VerifyResult v;
  const data::SequenceConfig cfg = engine->options().sequence;
  for (int b0 = 0; b0 < kVerifyRequests; b0 += kBatchSize) {
    const int live = std::min(kBatchSize, kVerifyRequests - b0);
    std::vector<const data::TrajectorySequence*> rows;
    for (int r = 0; r < kBatchSize; ++r) {
      rows.push_back(&scenes[static_cast<size_t>(b0 + r % live)]);
    }
    Rng rng(core::TaskSeed(engine_seed, first_batch + static_cast<uint64_t>(b0 / kBatchSize)));
    const Tensor ref = method.Predict(data::MakeBatch(rows, cfg), &rng, /*sample=*/true);
    const int64_t width = ref.size(1);
    std::vector<float> expected(ref.data(), ref.data() + ref.size());
    if (self_test && b0 == 0) {
      reinterpret_cast<unsigned char*>(expected.data())[0] ^= 0x01;
    }
    for (int r = 0; r < live; ++r) {
      ++v.attempted;
      bool match = false;
      try {
        const Tensor got = futures[static_cast<size_t>(b0 + r)].get();
        match = got.size() == width &&
                std::memcmp(got.data(), expected.data() + r * width,
                            static_cast<size_t>(width) * sizeof(float)) == 0;
      } catch (...) {
        match = false;
      }
      if (!match) ++v.mismatched;
    }
  }
  return v;
}

// --- Rounds --------------------------------------------------------------------------

struct PhaseRecord {
  PhaseResult client;
  serve::InferenceEngineStats before;
  serve::InferenceEngineStats after;
};

/// One round's three windows. Arrival schedules differ per round.
std::vector<PhaseSpec> RoundPlan(const Workload& w, double window_s, uint64_t seed,
                                 int round) {
  const uint64_t base = 100 + 10 * static_cast<uint64_t>(round);
  std::vector<PhaseSpec> plan(kNumPhases);
  plan[kLight].rate_per_s = kLightRps;
  plan[kLight].seconds = window_s * kLightShare;
  plan[kLight].seed = core::TaskSeed(seed, base + kLight);
  plan[kHeavy].rate_per_s = w.heavy_rps;
  plan[kHeavy].seconds = window_s * kHeavyShare;
  plan[kHeavy].seed = core::TaskSeed(seed, base + kHeavy);
  plan[kCapacity].closed_loop = true;
  plan[kCapacity].outstanding = kClosedLoopOutstanding;
  plan[kCapacity].seconds = window_s * kCapacityShare;
  return plan;
}

PhaseRecord RunWindow(serve::InferenceEngine* engine, RequestStream* stream,
                      const PhaseSpec& spec, SpanLog* log) {
  PhaseRecord rec;
  rec.before = engine->stats();
  rec.client = RunPhase(engine, stream, spec, /*pred_floats=*/24, log);
  rec.after = engine->stats();
  return rec;
}

struct Round {
  double setup_s = 0.0;
  double train_s = 0.0;
  double engine_heap_mb = 0.0;
  VerifyResult verify;
  std::vector<PhaseRecord> phases;  // untraced
  std::vector<PhaseRecord> traced;  // --trace 1 only
};

// --- Per-layer metrics ----------------------------------------------------------------

/// Engine counters of one phase summed over rounds (untraced windows).
struct EngineDelta {
  double batches = 0, padded = 0, flushes = 0;
  double cache_lookups = 0, cache_hits = 0, cache_evictions = 0;
  double plan_hits = 0, plan_misses = 0, plan_captures = 0;
  Buckets queue{}, exec{};

  void Add(const serve::InferenceEngineStats& a, const serve::InferenceEngineStats& b) {
    batches += static_cast<double>(a.batches - b.batches);
    padded += static_cast<double>(a.padded_rows - b.padded_rows);
    flushes += static_cast<double>(a.deadline_flushes - b.deadline_flushes);
    cache_lookups += static_cast<double>(a.encode_cache.lookups - b.encode_cache.lookups);
    cache_hits += static_cast<double>(a.encode_cache.hits - b.encode_cache.hits);
    cache_evictions += static_cast<double>(a.encode_cache.evictions - b.encode_cache.evictions);
    plan_hits += static_cast<double>(a.plan.hits - b.plan.hits);
    plan_misses += static_cast<double>(a.plan.misses - b.plan.misses);
    plan_captures += static_cast<double>(a.plan.captures - b.plan.captures);
    for (size_t i = 0; i < queue.size(); ++i) {
      queue[i] += a.queue_wait.buckets()[i] - b.queue_wait.buckets()[i];
      exec[i] += a.batch_exec.buckets()[i] - b.batch_exec.buckets()[i];
    }
  }
};

void AddEngineCounters(const std::string& p, const EngineDelta& d, MetricSet* m) {
  m->Add(p + "serve.queue_wait_ms.p50", BucketQuantileMs(d.queue, 0.50), "ms");
  m->Add(p + "serve.queue_wait_ms.p90", BucketQuantileMs(d.queue, 0.90), "ms");
  m->Add(p + "serve.batch_exec_ms.p50", BucketQuantileMs(d.exec, 0.50), "ms");
  m->Add(p + "serve.batch_exec_ms.p90", BucketQuantileMs(d.exec, 0.90), "ms");
  m->Add(p + "serve.fill_pct", Pct(d.batches * kBatchSize - d.padded, d.batches * kBatchSize),
         "%");
  m->Add(p + "serve.deadline_flush_pct", Pct(d.flushes, d.batches), "%");
  m->Add(p + "serve.cache_hit_pct", Pct(d.cache_hits, d.cache_lookups), "%");
  m->Add(p + "serve.cache_evictions", d.cache_evictions, "count");
  m->Add(p + "tensor.plan_hit_pct", Pct(d.plan_hits, d.plan_hits + d.plan_misses), "%");
  m->Add(p + "tensor.plan_captures", d.plan_captures, "count");
}

/// Span-derived timings of one phase over its traced windows.
void AddSpanTimings(const std::string& p, const std::vector<Span>& spans,
                    const std::vector<PhaseResult>& windows, MetricSet* m) {
  auto in_window = [&](const Span& s) {
    for (const PhaseResult& w : windows) {
      if (s.start_ns >= w.start_ns && s.start_ns <= w.end_ns) return true;
    }
    return false;
  };
  double wall_s = 0.0;
  for (const PhaseResult& w : windows) wall_s += w.wall_s;

  std::vector<double> submit_us;
  int64_t encode_calls = 0, encode_rows = 0, decode_calls = 0, predict_calls = 0;
  double encode_ns = 0.0, decode_ns = 0.0, predict_ns = 0.0;
  int64_t pool_acquires = 0, pool_hits = 0;
  // Per thread: the serving layer's window for one batch runs from its
  // predict_encode_width call (after MakeBatch, before keying) to the end of
  // its PredictDecode; the window minus its core calls is serving-layer time.
  std::map<int, std::pair<int64_t, double>> open_window;  // thread -> (start, core ns)
  double self_ns = 0.0;
  int64_t self_batches = 0;
  for (const Span& s : spans) {
    if (!in_window(s)) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    switch (s.kind) {
      case SpanKind::kSubmit:
        submit_us.push_back(dur * 1e-3);
        break;
      case SpanKind::kRequest:
        break;
      case SpanKind::kEncodeWidth:
        open_window[s.thread] = {s.start_ns, 0.0};
        break;
      case SpanKind::kEncode:
        ++encode_calls;
        encode_rows += s.arg;
        encode_ns += dur;
        if (open_window.count(s.thread) != 0) open_window[s.thread].second += dur;
        break;
      case SpanKind::kDecode: {
        ++decode_calls;
        decode_ns += dur;
        auto it = open_window.find(s.thread);
        if (it != open_window.end()) {
          self_ns += static_cast<double>(s.end_ns - it->second.first) - it->second.second - dur;
          ++self_batches;
          open_window.erase(it);
        }
        break;
      }
      case SpanKind::kPredict:
        ++predict_calls;
        predict_ns += dur;
        break;
    }
    pool_acquires += s.pool_acquires;
    pool_hits += s.pool_hits;
  }
  const double core_ns = encode_ns + decode_ns + predict_ns;
  const double batch_calls = static_cast<double>(decode_calls + predict_calls);
  m->Add(p + "serve.submit_us.p50", Quantile(submit_us, 0.50), "us");
  m->Add(p + "serve.submit_us.p99", Quantile(submit_us, 0.99), "us");
  m->Add(p + "serve.self_us_per_batch",
         self_batches > 0 ? self_ns * 1e-3 / static_cast<double>(self_batches) : 0.0, "us");
  m->Add(p + "core.encode_rows_per_call",
         encode_calls > 0 ? static_cast<double>(encode_rows) / encode_calls : 0.0, "rows");
  m->Add(p + "core.encode_us_per_row",
         encode_rows > 0 ? encode_ns * 1e-3 / static_cast<double>(encode_rows) : 0.0, "us");
  m->Add(p + "core.decode_us_per_batch",
         batch_calls > 0 ? (decode_ns + predict_ns) * 1e-3 / batch_calls : 0.0, "us");
  m->Add(p + "core.predict_calls",
         static_cast<double>(encode_calls + decode_calls + predict_calls), "count");
  m->Add(p + "core.busy_pct", Pct(core_ns, wall_s * 1e9 * kTrainWorkers), "%");
  m->Add(p + "tensor.pool_hit_pct",
         Pct(static_cast<double>(pool_hits), static_cast<double>(pool_acquires)), "%");
}

/// Median MakeBatch time per kBatchSize-row batch, and mean SceneEncodeKey +
/// EncodeCache::Lookup (Insert on a miss, as the engine does) per row, on the
/// workload's own rows.
void RunProbes(const core::Method& method, RequestStream stream, MetricSet* m) {
  constexpr int kRows = 4096;
  std::vector<data::TrajectorySequence> scenes;
  scenes.reserve(kRows);
  for (int i = 0; i < kRows; ++i) scenes.push_back(stream.Next());
  const data::SequenceConfig cfg;
  std::vector<data::Batch> batches;
  std::vector<double> make_us;
  for (int b0 = 0; b0 < kRows; b0 += kBatchSize) {
    std::vector<const data::TrajectorySequence*> rows;
    for (int r = 0; r < kBatchSize; ++r) rows.push_back(&scenes[static_cast<size_t>(b0 + r)]);
    const Clock::time_point t0 = Clock::now();
    batches.push_back(data::MakeBatch(rows, cfg));
    make_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  serve::EncodeCacheOptions cache_options;
  cache_options.identity =
      method.name() + ":" + std::to_string(method.predict_encode_width());
  serve::EncodeCache cache(cache_options);
  const int64_t width = method.predict_encode_width();
  std::vector<float> row(static_cast<size_t>(width), 0.0f);
  const bool neighbors = method.encode_reads_neighbors();
  const Clock::time_point t0 = Clock::now();
  for (const data::Batch& batch : batches) {
    for (int64_t r = 0; r < batch.batch_size; ++r) {
      const std::string key = serve::SceneEncodeKey(cache_options.identity, batch, r, neighbors);
      if (!cache.Lookup(key, row.data(), width)) cache.Insert(key, row.data(), width);
    }
  }
  const double key_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  m->Add("serve.key_us_per_row", key_us / kRows, "us");
  m->Add("data.make_batch_us", Median(make_us), "us");
}

// --- Reporting ---------------------------------------------------------------------

/// Per phase: client counts summed over rounds, rates and latency quantiles
/// as the median over rounds.
void PrintPhaseTable(const char* title, const std::vector<Round>& rounds, bool traced) {
  std::printf("\n%s\n", title);
  std::printf("  %-9s %9s %9s %7s %11s %8s %8s %8s %8s %9s %10s\n", "phase", "attempted",
              "completed", "failed", "rate(1/s)", "p50 ms", "p90 ms", "p99 ms", "max ms",
              "n/round", "late p99");
  for (int ph = 0; ph < kNumPhases; ++ph) {
    int64_t attempted = 0, completed = 0, failed = 0;
    std::vector<double> rate, p50, p90, p99, max, late;
    for (const Round& r : rounds) {
      const PhaseResult& c = (traced ? r.traced : r.phases)[static_cast<size_t>(ph)].client;
      attempted += c.attempted;
      completed += c.completed;
      failed += c.failed;
      rate.push_back(c.rate_per_s());
      p50.push_back(c.p50_ms);
      p90.push_back(c.p90_ms);
      p99.push_back(c.p99_ms);
      max.push_back(c.max_ms);
      late.push_back(c.gen_late_p99_ms);
    }
    std::printf("  %-9s %9lld %9lld %7lld %11.1f %8.3f %8.3f %8.3f %8.3f %9lld %10.3f\n",
                kPhaseNames[ph], static_cast<long long>(attempted),
                static_cast<long long>(completed), static_cast<long long>(failed),
                Median(rate), Median(p50), Median(p90), Median(p99), Median(max),
                static_cast<long long>(completed / static_cast<int64_t>(rounds.size())),
                Median(late));
  }
}

void PrintMetrics(const char* title, const MetricSet& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics.all()) {
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::vector<double> Collect(const std::vector<Round>& rounds, double (*get)(const Round&)) {
  std::vector<double> out;
  for (const Round& r : rounds) out.push_back(get(r));
  return out;
}

/// Median over rounds of an untraced window's client metric.
double PhaseMedian(const std::vector<Round>& rounds, int phase,
                   double (*get)(const PhaseResult&)) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(get(r.phases[static_cast<size_t>(phase)].client));
  return Median(v);
}

int Run(const Options& o) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) wp = &w;
  }
  if (wp == nullptr) Usage(("unknown workload " + o.workload).c_str());
  const Workload& w = *wp;

  parallel::Configure(kKernelThreads);
  parallel::ConfigureTrainWorkers(kTrainWorkers);
  const char* gemm =
      kernels::SelectGemmPath() == kernels::GemmPath::kAvx512 ? "avx512" : "portable";
  const int rounds_n = o.smoke ? 1 : kRounds;
  // Window time per round: --smoke gives every phase 1 s. In a traced run
  // the untraced and the traced windows each get half.
  const double window_s =
      (o.smoke ? 1.0 / kLightShare : o.seconds / rounds_n) * (o.trace ? 0.5 : 1.0);
  std::printf("e2e_bench workload=%s seed=%llu seconds=%g trace=%d rounds=%d%s%s\n", w.name,
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0, rounds_n,
              o.smoke ? " smoke" : "", o.self_test ? " self-test" : "");
  std::printf("host: nproc=%u cpu=\"%s\" kernel_threads=%d train_workers=%d gemm=%s "
              "revision=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(), parallel::NumThreads(),
              parallel::NumTrainWorkers(), gemm, o.revision.c_str());

  const uint64_t engine_seed = core::TaskSeed(o.seed, 1);
  std::vector<data::TrajectorySequence> pool = BuildRequestPool(o.seed);
  size_t pool_neighbors = 0;
  for (const auto& scene : pool) pool_neighbors += scene.neighbors.size();
  std::printf("request pool: %zu scenes, %.2f neighbors per scene\n", pool.size(),
              static_cast<double>(pool_neighbors) / static_cast<double>(pool.size()));
  const RequestStream initial(std::move(pool), w.repeat_share, core::TaskSeed(o.seed, 2));
  RequestStream stream = initial;

  SpanLog log;
  std::vector<Round> rounds;
  std::vector<float> first_probe;
  bool deterministic = true;
  eval::Metrics quality;
  double eval_s = 0.0;
  int64_t pooled_sequences = 0;
  int64_t trained_sequences = 0;
  int64_t drawn = 0, repeats = 0;  // requests drawn in the untraced windows
  for (int i = 0; i < rounds_n; ++i) {
    Round round;
    std::unique_ptr<Setup> s = SetUp(w, &stream, engine_seed);
    round.setup_s = s->seconds;
    round.train_s = s->train_seconds;
    trained_sequences = s->trained_sequences;
    pooled_sequences = static_cast<int64_t>(s->dgd.pooled_train.size());
    if (i == 0) first_probe = s->probe;
    if (s->probe != first_probe) deterministic = false;
    round.verify = Verify(s->engine.get(), *s->method, &stream, engine_seed,
                          o.self_test && i == 0);

    const int64_t drawn_before = stream.drawn();
    const int64_t repeats_before = stream.repeats();
    const std::vector<PhaseSpec> plan = RoundPlan(w, window_s, o.seed, i);
    for (const PhaseSpec& spec : plan) {
      if (&spec == &plan[kCapacity]) {
        round.engine_heap_mb = HeapInUseMb() - s->heap_before_engine_mb;
      }
      round.phases.push_back(RunWindow(s->engine.get(), &stream, spec, nullptr));
    }
    drawn += stream.drawn() - drawn_before;
    repeats += stream.repeats() - repeats_before;
    s->engine.reset();

    if (i == 0) {
      const Clock::time_point t_eval = Clock::now();
      quality = eval::EvaluateMinOfK(*s->method, s->dgd.target.test, data::SequenceConfig(),
                                     kEvalSamples, kEvalBatch, kEvalSeed);
      eval_s = std::chrono::duration<double>(Clock::now() - t_eval).count();
    }

    if (o.trace) {
      TracedMethod traced(s->method.get(), &log);
      serve::InferenceEngine engine(&traced, EngineOptions(engine_seed));
      WarmUp(&engine, &stream);
      for (const PhaseSpec& spec : plan) {
        round.traced.push_back(RunWindow(&engine, &stream, spec, &log));
      }
    }
    rounds.push_back(std::move(round));
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  VerifyResult verify;
  for (const Round& r : rounds) {
    verify.attempted += r.verify.attempted;
    verify.mismatched += r.verify.mismatched;
    for (const auto* records : {&r.phases, &r.traced}) {
      for (const PhaseRecord& p : *records) {
        attempted += p.client.attempted;
        failed += p.client.failed;
      }
    }
  }
  attempted += verify.attempted;
  failed += verify.mismatched;
  const std::vector<double> setup_s = Collect(rounds, [](const Round& r) { return r.setup_s; });
  const std::vector<double> train_s = Collect(rounds, [](const Round& r) { return r.train_s; });
  const double repeat_share = Pct(static_cast<double>(repeats), static_cast<double>(drawn));
  const double capacity_rps = PhaseMedian(rounds, kCapacity, [](const PhaseResult& c) {
    return c.rate_per_s();
  });
  auto p50 = [](const PhaseResult& c) { return c.p50_ms; };
  auto p90 = [](const PhaseResult& c) { return c.p90_ms; };

  std::printf("set-up: %lld pooled train sequences x %d epochs, %d rounds; trained weights "
              "%s across set-ups\n",
              static_cast<long long>(pooled_sequences), w.epochs, rounds_n,
              deterministic ? "bit-identical" : "DIFFER");
  std::printf("  setup_s");
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf("\n  train_s");
  for (double v : train_s) std::printf(" %.3f", v);
  std::printf("\n  capacity_rps");
  for (const Round& r : rounds) std::printf(" %.0f", r.phases[kCapacity].client.rate_per_s());
  std::printf("\n  engine_heap_mb");
  for (const Round& r : rounds) std::printf(" %.2f", r.engine_heap_mb);
  std::printf("\nverify: %lld/%lld results byte-identical to the reference%s\n",
              static_cast<long long>(verify.attempted - verify.mismatched),
              static_cast<long long>(verify.attempted),
              o.self_test ? " (self-test: one reference byte flipped)" : "");
  PrintPhaseTable("untraced windows (latency from due time; median over rounds):", rounds,
                  false);
  std::printf("measured repeat share: %.1f%%\n", repeat_share);

  MetricSet metrics;
  if (!o.trace) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("capacity_rps", capacity_rps, "1/s");
    metrics.Add("light.p50_ms", PhaseMedian(rounds, kLight, p50), "ms");
    metrics.Add("light.p90_ms", PhaseMedian(rounds, kLight, p90), "ms");
    metrics.Add("heavy.p50_ms", PhaseMedian(rounds, kHeavy, p50), "ms");
    metrics.Add("heavy.p90_ms", PhaseMedian(rounds, kHeavy, p90), "ms");
    metrics.Add("engine_heap_mb",
                Median(Collect(rounds, [](const Round& r) { return r.engine_heap_mb; })), "MB");
    metrics.Add("train_scenes_per_s",
                static_cast<double>(trained_sequences) / Median(train_s), "1/s");
    metrics.Add("ade", quality.ade, "m");
    metrics.Add("fde", quality.fde, "m");
  } else {
    PrintPhaseTable("traced windows:", rounds, true);
    for (int ph = 0; ph < kNumPhases; ++ph) {
      const std::string prefix = std::string(kPhaseNames[ph]) + ".";
      EngineDelta delta;
      std::vector<PhaseResult> windows;
      std::vector<double> late;
      int64_t peak_outstanding = 0;
      for (const Round& r : rounds) {
        const PhaseRecord& u = r.phases[static_cast<size_t>(ph)];
        delta.Add(u.after, u.before);
        late.push_back(u.client.gen_late_p99_ms);
        peak_outstanding = std::max(peak_outstanding, u.client.peak_outstanding);
        windows.push_back(r.traced[static_cast<size_t>(ph)].client);
      }
      AddEngineCounters(prefix, delta, &metrics);
      AddSpanTimings(prefix, log.spans(), windows, &metrics);
      if (ph != kCapacity) {
        metrics.Add(prefix + "client.gen_late_ms.p99", Median(late), "ms");
        metrics.Add(prefix + "client.peak_outstanding", static_cast<double>(peak_outstanding),
                    "count");
      }
    }
    std::vector<double> traced_capacity;
    for (const Round& r : rounds) {
      traced_capacity.push_back(r.traced[kCapacity].client.rate_per_s());
    }
    RunProbes(*MakeMethod(w), initial, &metrics);
    metrics.Add("core.train_s", Median(train_s), "s");
    metrics.Add("eval.min_of_k_s", eval_s, "s");
    metrics.Add("trace_overhead_pct",
                Pct(capacity_rps - Median(traced_capacity), capacity_rps), "%");
    if (!o.trace_path.empty()) {
      if (log.WriteChromeTrace(o.trace_path)) {
        std::printf("trace: %zu spans written to %s\n", log.spans().size(),
                    o.trace_path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write trace %s\n", o.trace_path.c_str());
        failed += 1;
      }
    }
  }

  const double light_p90 = PhaseMedian(rounds, kLight, p90);
  const double heavy_p90 = PhaseMedian(rounds, kHeavy, p90);
  const bool within_limit = light_p90 <= kLatencyLimitP90Ms && heavy_p90 <= kLatencyLimitP90Ms;
  std::printf("latency limit p90 <= %.1f ms in light and heavy: %s (light %.3f, heavy %.3f)\n",
              kLatencyLimitP90Ms, within_limit ? "PASS" : "FAIL", light_p90, heavy_p90);
  std::printf("quality: ade %.4f fde %.4f (best of %d on the unseen target, %.2f s)\n",
              quality.ade, quality.fde, kEvalSamples, eval_s);
  std::printf("error rate: %lld failed of %lld attempted\n", static_cast<long long>(failed),
              static_cast<long long>(attempted));
  PrintMetrics(o.trace ? "per-layer metrics:" : "end-to-end metrics:", metrics);

  const bool correct = failed == 0 && deterministic && std::isfinite(quality.ade) &&
                       std::isfinite(quality.fde);
  char head[160];
  std::snprintf(head, sizeof(head), "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
  const std::string result = std::string(head) + ", \"metrics\": " + metrics.Json() + "}";

  if (!o.json_path.empty()) {
    std::FILE* out = std::fopen(o.json_path.c_str(), "a");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot append to %s\n", o.json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"seconds\": %g, "
                 "\"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"kernel_threads\": %d, "
                 "\"train_workers\": %d, \"gemm\": \"%s\", \"revision\": \"%s\"}, "
                 "\"repeat_share_pct\": %.3f, \"latency_limit_pass\": %s, \"result\": %s}\n",
                 w.name, static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0, o.seconds,
                 std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
                 parallel::NumThreads(), parallel::NumTrainWorkers(), gemm,
                 JsonEscape(o.revision).c_str(), repeat_share,
                 within_limit ? "true" : "false", result.c_str());
    std::fclose(out);
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace adaptraj

int main(int argc, char** argv) {
  adaptraj::e2e::RefuseEnvOverrides();
  return adaptraj::e2e::Run(adaptraj::e2e::ParseArgs(argc, argv));
}
