// SLO-guardrail tests for the serving engine: admission control (shed and
// block policies, with full disposition accounting), per-request deadlines
// (queued-only expiry, byte-identity of surviving rows), the stuck-batch
// watchdog, latency histograms, Submit/Drain after shutdown, hot-swap
// weight refresh (per-batch atomicity, monotonic flip, zero drops), and the
// open-loop Poisson load harness.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "data/multi_domain.h"
#include "eval/experiment.h"
#include "serve/errors.h"
#include "serve/inference_engine.h"
#include "serve/latency_histogram.h"
#include "tensor/parallel.h"
#include "non_reentrant_method.h"

namespace adaptraj {
namespace serve {
namespace {

models::BackboneConfig TinyBackbone() {
  models::BackboneConfig c;
  c.embed_dim = 8;
  c.hidden_dim = 16;
  c.social_dim = 16;
  c.latent_dim = 4;
  c.langevin_steps = 2;
  return c;
}

const data::DomainGeneralizationData& TestData() {
  static const data::DomainGeneralizationData* dgd = [] {
    data::CorpusConfig cfg;
    cfg.num_scenes = 2;
    cfg.steps_per_scene = 45;
    cfg.seed = 909;
    return new data::DomainGeneralizationData(data::BuildDomainGeneralizationData(
        {sim::Domain::kEthUcy, sim::Domain::kLcas}, sim::Domain::kSdd, cfg));
  }();
  return *dgd;
}

std::vector<data::TrajectorySequence> Scenes(size_t n) {
  const auto& test = TestData().target.test.sequences;
  std::vector<data::TrajectorySequence> scenes;
  for (size_t i = 0; i < n; ++i) scenes.push_back(test[i % test.size()]);
  return scenes;
}

InferenceEngineOptions Options(int batch_size, uint64_t seed = 42) {
  InferenceEngineOptions o;
  o.batch_size = batch_size;
  o.sample = true;
  o.seed = seed;
  return o;
}

std::vector<std::vector<float>> Collect(std::vector<std::future<Tensor>>* futures) {
  std::vector<std::vector<float>> out;
  for (auto& f : *futures) {
    Tensor t = f.get();
    out.emplace_back(t.data(), t.data() + t.size());
  }
  return out;
}

std::vector<std::vector<float>> Serve(const core::Method& method,
                                      const std::vector<data::TrajectorySequence>& scenes,
                                      const InferenceEngineOptions& options) {
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  return Collect(&futures);
}

void ExpectRowsEqual(const std::vector<float>& a, const std::vector<float>& b,
                     const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0) << label;
}

/// Minimal blockable method: Predict returns obs_flat after (optionally)
/// waiting for release; `entered` is the has-started-executing fence. It is
/// non-reentrant and unclonable, so the engine serves it with ONE worker: a
/// request meant to queue behind a wedged batch stays queued instead of
/// getting a worker of its own.
struct GateState {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool released = true;
};

class GatedMethod : public core::Method {
 public:
  explicit GatedMethod(std::shared_ptr<GateState> state) : state_(std::move(state)) {}
  std::string name() const override { return "gated"; }
  void Train(const data::DomainGeneralizationData&, const core::TrainConfig&) override {}
  bool reentrant_predict() const override { return false; }
  std::unique_ptr<core::Method> CloneForServing() const override { return nullptr; }
  Tensor Predict(const data::Batch& batch, Rng*, bool) const override {
    std::unique_lock<std::mutex> lock(state_->mu);
    ++state_->entered;
    state_->cv.notify_all();
    state_->cv.wait(lock, [this] { return state_->released; });
    return batch.obs_flat;
  }

 private:
  std::shared_ptr<GateState> state_;
};

void AwaitEntered(GateState* state, int n) {
  std::unique_lock<std::mutex> lock(state->mu);
  ASSERT_TRUE(state->cv.wait_for(lock, std::chrono::seconds(10),
                                 [state, n] { return state->entered >= n; }))
      << "Predict never started";
}

void Release(GateState* state) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = true;
  }
  state->cv.notify_all();
}

// --- LatencyHistogram --------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundsAndRecording) {
  EXPECT_EQ(LatencyHistogram::BucketLowerUs(0), 0.0);
  EXPECT_EQ(LatencyHistogram::BucketUpperUs(0), 1.0);
  EXPECT_EQ(LatencyHistogram::BucketLowerUs(1), 1.0);
  EXPECT_EQ(LatencyHistogram::BucketUpperUs(1), 2.0);
  EXPECT_EQ(LatencyHistogram::BucketLowerUs(4), 8.0);
  EXPECT_EQ(LatencyHistogram::BucketUpperUs(4), 16.0);

  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty

  h.Record(0.5e-6);   // bucket 0: [0, 1us)
  h.Record(-1.0);     // clamps to bucket 0
  h.Record(3e-6);     // bucket 2: [2, 4us)
  h.Record(1e-3);     // 1000us -> bucket 10: [512, 1024us)
  h.Record(1e6);      // absurd -> top bucket
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.buckets()[0], 2);
  EXPECT_EQ(h.buckets()[2], 1);
  EXPECT_EQ(h.buckets()[10], 1);
  EXPECT_EQ(h.buckets()[LatencyHistogram::kNumBuckets - 1], 1);
}

TEST(LatencyHistogramTest, QuantilesLandInTheRightBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(3e-6);    // [2, 4us)
  for (int i = 0; i < 9; ++i) h.Record(100e-6);   // [64, 128us)
  h.Record(5e-3);                                  // [4096, 8192us)
  // p50 sits inside the dominant bucket.
  EXPECT_GE(h.Quantile(0.50), 2e-6);
  EXPECT_LT(h.Quantile(0.50), 4e-6);
  // p95 falls in the second population.
  EXPECT_GE(h.Quantile(0.95), 64e-6);
  EXPECT_LT(h.Quantile(0.95), 128e-6);
  // p100 reaches the outlier's bucket.
  EXPECT_GE(h.Quantile(1.0), 4096e-6);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
}

// --- Admission control -------------------------------------------------------

TEST(AdmissionControlTest, ShedPolicyFailsFastWithOverloadedError) {
  auto state = std::make_shared<GateState>();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = false;
  }
  GatedMethod method(state);
  auto options = Options(/*batch_size=*/2);
  options.max_queued_requests = 2;
  options.overflow_policy = OverflowPolicy::kShed;

  InferenceEngine engine(&method, options);
  auto scenes = Scenes(5);
  std::vector<std::future<Tensor>> futures;
  // Batch 0 is collected (queue empties) and blocks inside Predict...
  futures.push_back(engine.Submit(scenes[0]));
  futures.push_back(engine.Submit(scenes[1]));
  AwaitEntered(state.get(), 1);
  // ...so these two fill the queue to the bound...
  futures.push_back(engine.Submit(scenes[2]));
  futures.push_back(engine.Submit(scenes[3]));
  // ...and the fifth is shed without ever enqueueing.
  std::future<Tensor> shed = engine.Submit(scenes[4]);
  EXPECT_EQ(shed.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(shed.get(), OverloadedError);

  Release(state.get());
  engine.Drain();
  for (auto& f : futures) EXPECT_EQ(f.get().shape()[0], 1);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 5);
  EXPECT_EQ(stats.shed_requests, 1);
  // Accounting identity: every submission has exactly one disposition.
  EXPECT_EQ(stats.requests - stats.shed_requests - stats.expired_requests -
                stats.rejected_requests - stats.stopped_requests,
            4);
  EXPECT_LE(stats.peak_queue_depth, 2);
}

TEST(AdmissionControlTest, BlockPolicyParksTheProducerUntilSpaceFrees) {
  auto state = std::make_shared<GateState>();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = false;
  }
  GatedMethod method(state);
  auto options = Options(/*batch_size=*/1);
  options.max_queued_requests = 1;
  options.overflow_policy = OverflowPolicy::kBlock;

  InferenceEngine engine(&method, options);
  auto scenes = Scenes(3);
  std::future<Tensor> f0 = engine.Submit(scenes[0]);  // collected, executing
  AwaitEntered(state.get(), 1);
  std::future<Tensor> f1 = engine.Submit(scenes[1]);  // queued: bound reached

  std::atomic<bool> third_submitted{false};
  std::future<Tensor> f2;
  std::thread producer([&] {
    f2 = engine.Submit(scenes[2]);  // must block until slot 1 is collected
    third_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_submitted.load()) << "kBlock Submit did not block on a full queue";

  Release(state.get());
  producer.join();
  EXPECT_TRUE(third_submitted.load());
  engine.Drain();
  EXPECT_EQ(f0.get().shape()[0], 1);
  EXPECT_EQ(f1.get().shape()[0], 1);
  EXPECT_EQ(f2.get().shape()[0], 1);
  EXPECT_EQ(engine.stats().peak_queue_depth, 1);
}

TEST(AdmissionControlTest, ShutdownUnblocksAParkedProducerWithTypedError) {
  auto state = std::make_shared<GateState>();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = false;
  }
  GatedMethod method(state);
  auto options = Options(/*batch_size=*/1);
  options.max_queued_requests = 1;
  options.overflow_policy = OverflowPolicy::kBlock;

  InferenceEngine engine(&method, options);
  auto scenes = Scenes(3);
  std::future<Tensor> f0 = engine.Submit(scenes[0]);
  AwaitEntered(state.get(), 1);
  std::future<Tensor> f1 = engine.Submit(scenes[1]);
  std::future<Tensor> f2;
  std::thread producer([&] { f2 = engine.Submit(scenes[2]); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  engine.Shutdown();
  producer.join();
  EXPECT_THROW(f2.get(), EngineStoppedError);  // the parked producer's request
  EXPECT_THROW(f1.get(), EngineStoppedError);  // the queued request
  Release(state.get());  // the in-flight batch still delivers
  EXPECT_EQ(f0.get().shape()[0], 1);
}

// --- Shutdown admission ------------------------------------------------------

TEST(ShutdownTest, SubmitAndDrainAfterShutdownFailTyped) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  InferenceEngine engine(&method, Options(/*batch_size=*/2));
  engine.Shutdown();
  engine.Shutdown();  // idempotent

  std::future<Tensor> f = engine.Submit(Scenes(1)[0]);
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(f.get(), EngineStoppedError);
  EXPECT_THROW(engine.Drain(), EngineStoppedError);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.rejected_requests, 1);
}

// --- Per-request deadlines ---------------------------------------------------

TEST(DeadlineTest, QueuedRequestExpiresAndSurvivorsKeepTheirBytes) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto options = Options(/*batch_size=*/4);  // no deadline flush: tail waits
  auto scenes = Scenes(4);

  InferenceEngine engine(&method, options);
  SubmitOptions deadline;
  deadline.timeout_ms = 30;
  // Slot 0 carries a deadline and nothing completes its batch: the watchdog
  // must expire it without any worker activity.
  std::future<Tensor> doomed = engine.Submit(0, scenes[0], deadline);
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "queued deadline never expired";
  EXPECT_THROW(doomed.get(), DeadlineExceededError);

  // The tombstone holds slot 0, so these land at slots 1..3 and Drain sees a
  // complete range.
  std::vector<std::future<Tensor>> futures;
  for (int i = 1; i < 4; ++i)
    futures.push_back(engine.Submit(static_cast<uint64_t>(i), scenes[static_cast<size_t>(i)]));
  engine.Drain();
  auto got = Collect(&futures);

  // Surviving rows are byte-identical to the run where slot 0 executed: a
  // row's result depends only on its own scene, row index, and the batch
  // noise stream — the expired slot pads away without touching them.
  auto reference = Serve(method, scenes, options);
  for (int i = 0; i < 3; ++i) {
    ExpectRowsEqual(reference[static_cast<size_t>(i) + 1], got[static_cast<size_t>(i)],
                    "surviving row");
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.expired_requests, 1);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.padded_rows, 1);  // the tombstone row
}

TEST(DeadlineTest, ExpiryProgressesWhileDispatcherIsExecuting) {
  auto state = std::make_shared<GateState>();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = false;
  }
  GatedMethod method(state);
  auto options = Options(/*batch_size=*/1);

  InferenceEngine engine(&method, options);
  auto scenes = Scenes(2);
  std::future<Tensor> inflight = engine.Submit(scenes[0]);
  AwaitEntered(state.get(), 1);  // the only worker is now blocked inside Predict

  SubmitOptions deadline;
  deadline.timeout_ms = 30;
  std::future<Tensor> queued = engine.Submit(scenes[1], deadline);
  // Only the watchdog can expire it — the engine's one worker is wedged.
  ASSERT_EQ(queued.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "watchdog did not expire a queued deadline behind a wedged batch";
  EXPECT_THROW(queued.get(), DeadlineExceededError);

  Release(state.get());
  EXPECT_EQ(inflight.get().shape()[0], 1);
  engine.Drain();  // the fully-expired batch retires without executing
  const auto stats = engine.stats();
  EXPECT_EQ(stats.expired_requests, 1);
  EXPECT_EQ(stats.batches, 1);  // only the in-flight one ever executed
}

TEST(DeadlineTest, RequestAlreadyExecutingIsNeverExpired) {
  auto state = std::make_shared<GateState>();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = false;
  }
  GatedMethod method(state);
  auto options = Options(/*batch_size=*/1);

  InferenceEngine engine(&method, options);
  SubmitOptions deadline;
  deadline.timeout_ms = 300;
  std::future<Tensor> f = engine.Submit(Scenes(1)[0], deadline);
  AwaitEntered(state.get(), 1);  // collected into a batch: immune from here on
  std::this_thread::sleep_for(std::chrono::milliseconds(400));  // deadline passes
  Release(state.get());
  EXPECT_EQ(f.get().shape()[0], 1) << "an executing request was expired";
  EXPECT_EQ(engine.stats().expired_requests, 0);
}

// --- Stuck-batch watchdog ----------------------------------------------------

TEST(WatchdogTest, StuckBatchIsCountedAndReportedOnce) {
  auto state = std::make_shared<GateState>();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = false;
  }
  GatedMethod method(state);
  auto options = Options(/*batch_size=*/2);
  options.stuck_batch_warn_ms = 20;
  std::atomic<int> callbacks{0};
  std::atomic<int64_t> reported_ms{0};
  options.on_stuck_batch = [&](int64_t elapsed_ms) {
    ++callbacks;
    reported_ms.store(elapsed_ms);
  };

  InferenceEngine engine(&method, options);
  auto scenes = Scenes(2);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  AwaitEntered(state.get(), 1);

  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (callbacks.load() == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(callbacks.load(), 1) << "watchdog never reported the wedged batch";
  EXPECT_GE(reported_ms.load(), 20);
  // Give the watchdog a chance to (incorrectly) re-report the same batch.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(callbacks.load(), 1) << "stuck batch reported more than once";

  Release(state.get());
  engine.Drain();
  for (auto& f : futures) EXPECT_EQ(f.get().shape()[0], 1);  // never cancelled
  EXPECT_EQ(engine.stats().stuck_batches, 1);
}

// --- Latency telemetry -------------------------------------------------------

TEST(TelemetryTest, HistogramsRecordEveryRequestAndBatch) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  InferenceEngine engine(&method, Options(/*batch_size=*/4));
  auto scenes = Scenes(8);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  for (auto& f : futures) (void)f.get();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.queue_wait.count(), 8);   // one sample per accepted request
  EXPECT_EQ(stats.batch_exec.count(), 2);   // one per executed batch
  EXPECT_GT(stats.batch_exec.Quantile(0.5), 0.0);
  EXPECT_LE(stats.queue_wait.Quantile(0.5), stats.queue_wait.Quantile(0.99));
  EXPECT_EQ(stats.inflight_batches, 0);     // gauge settles at idle
}

// --- Hot-swap ----------------------------------------------------------------

TEST(SwapWeightsTest, EveryBatchServedEntirelyByOldOrNewWeights) {
  // Two differently-initialized models stand in for "before" and "after" a
  // weight refresh; their outputs differ on every scene.
  core::VanillaMethod old_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  core::VanillaMethod new_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 77);
  const size_t n = 40;
  const int batch = 4;
  auto scenes = Scenes(n);
  auto options = Options(batch);
  auto ref_old = Serve(old_weights, scenes, options);
  auto ref_new = Serve(new_weights, scenes, options);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NE(std::memcmp(ref_old[i].data(), ref_new[i].data(),
                          ref_old[i].size() * sizeof(float)),
              0)
        << "old and new weights agree on scene " << i << "; swap is unobservable";
  }

  InferenceEngine engine(&old_weights, options);
  std::vector<std::future<Tensor>> futures(n);
  // Live traffic: a producer streams all requests while the swap lands.
  std::thread producer([&] {
    for (size_t i = 0; i < n; ++i) {
      futures[i] = engine.Submit(static_cast<uint64_t>(i), scenes[i]);
      if (i == n / 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  engine.SwapWeights(new_weights);
  producer.join();
  engine.Drain();
  auto got = Collect(&futures);  // zero drops: every future delivers a value

  // Per batch: all rows from the old weights or all from the new — never a
  // mix — and the flip is monotonic in batch order.
  bool seen_new = false;
  for (size_t b = 0; b < n / static_cast<size_t>(batch); ++b) {
    bool all_old = true, all_new = true;
    for (size_t r = 0; r < static_cast<size_t>(batch); ++r) {
      const size_t i = b * static_cast<size_t>(batch) + r;
      if (got[i] != ref_old[i]) all_old = false;
      if (got[i] != ref_new[i]) all_new = false;
    }
    ASSERT_TRUE(all_old || all_new) << "batch " << b << " mixed old and new weights";
    if (all_new) seen_new = true;
    if (seen_new) {
      EXPECT_TRUE(all_new) << "batch " << b << " reverted to old weights after the flip";
    }
  }
  EXPECT_EQ(engine.stats().weight_swaps, 1);
}

TEST(SwapWeightsTest, ForcedFlipServesOldThenNewBitExactly) {
  core::VanillaMethod old_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  core::VanillaMethod new_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 77);
  auto scenes = Scenes(8);
  auto options = Options(/*batch_size=*/4);
  auto ref_old = Serve(old_weights, scenes, options);
  auto ref_new = Serve(new_weights, scenes, options);

  InferenceEngine engine(&old_weights, options);
  std::vector<std::future<Tensor>> futures;
  for (size_t i = 0; i < 4; ++i) futures.push_back(engine.Submit(scenes[i]));
  engine.Drain();  // batch 0 definitely served by the old weights
  engine.SwapWeights(new_weights);
  for (size_t i = 4; i < 8; ++i) futures.push_back(engine.Submit(scenes[i]));
  engine.Drain();
  auto got = Collect(&futures);
  for (size_t i = 0; i < 4; ++i) ExpectRowsEqual(ref_old[i], got[i], "pre-swap row");
  for (size_t i = 4; i < 8; ++i) ExpectRowsEqual(ref_new[i], got[i], "post-swap row");
}

TEST(SwapWeightsTest, RebuildsTheReplicaPoolForNonReentrantMethods) {
  parallel::ConfigureTrainWorkers(2);
  NonReentrantMethod old_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  NonReentrantMethod new_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 77);
  ASSERT_FALSE(old_weights.reentrant_predict());
  auto scenes = Scenes(8);
  auto options = Options(/*batch_size=*/2);
  options.num_replicas = 2;
  // Slot-aligned reference: the engine under test serves 4 warm scenes
  // (batches 0-1) before the swap, so its post-swap scenes occupy batches
  // 2-5 — the reference must put the same scenes at the same slots, because
  // batch index selects the noise stream.
  std::vector<data::TrajectorySequence> aligned(scenes.begin(), scenes.begin() + 4);
  aligned.insert(aligned.end(), scenes.begin(), scenes.end());
  auto ref_new = Serve(new_weights, aligned, options);

  InferenceEngine engine(&old_weights, options);
  EXPECT_EQ(engine.num_replica_slots(), 2);
  std::vector<std::future<Tensor>> warm;
  for (size_t i = 0; i < 4; ++i) warm.push_back(engine.Submit(scenes[i]));
  engine.Drain();
  engine.SwapWeights(new_weights);
  EXPECT_EQ(engine.num_replica_slots(), 2) << "swap lost the replica pool";
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  auto got = Collect(&futures);
  // Post-swap batches execute on the standby pool's clones, bit-identical
  // to a fresh engine over the new weights at the same slots.
  for (size_t i = 0; i < scenes.size(); ++i) {
    ExpectRowsEqual(ref_new[i + 4], got[i], "post-swap replica row");
  }
  parallel::ConfigureTrainWorkers(1);
}

TEST(SwapWeightsTest, TypedFailuresForStoppedEngineAndUnclonableSource) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  {
    InferenceEngine engine(&method, Options(/*batch_size=*/2));
    auto state = std::make_shared<GateState>();
    GatedMethod unclonable(state);  // CloneForServing returns nullptr
    EXPECT_THROW(engine.SwapWeights(unclonable), ServeError);
  }
  {
    InferenceEngine engine(&method, Options(/*batch_size=*/2));
    engine.Shutdown();
    core::VanillaMethod fresh(models::BackboneKind::kSeq2Seq, TinyBackbone(), 7);
    EXPECT_THROW(engine.SwapWeights(fresh), EngineStoppedError);
  }
}

// --- Open-loop Poisson load --------------------------------------------------

TEST(PoissonLoadTest, ReportAccountsForEveryOfferedRequest) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  eval::PoissonLoadOptions load;
  load.arrivals_per_sec = 400.0;
  load.num_requests = 40;
  load.batch_size = 4;
  load.max_batch_delay_ms = 2;
  load.max_queued_requests = 8;  // kShed (the default policy)
  load.seed = 13;

  const auto report = eval::MeasureEnginePoissonLoad(
      method, TestData().target.test, data::SequenceConfig(), load);
  EXPECT_EQ(report.submitted, 40);
  EXPECT_EQ(report.fulfilled + report.shed + report.expired + report.failed, 40);
  EXPECT_GT(report.fulfilled, 0);
  EXPECT_EQ(report.failed, 0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.achieved_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(report.offered_per_sec, 400.0);
  // Histogram-backed quantiles exist whenever anything executed.
  EXPECT_GT(report.batch_exec_p50_ms, 0.0);
  EXPECT_LE(report.queue_wait_p50_ms, report.queue_wait_p99_ms);
  EXPECT_LE(report.batch_exec_p50_ms, report.batch_exec_p99_ms);
}

TEST(PoissonLoadTest, OverloadWithSheddingKeepsTheQueueBounded) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  // An offered rate far past this tiny model's capacity: without admission
  // control the queue would grow with offered load; with kShed it must hold
  // at the bound, with the excess accounted as shed.
  eval::PoissonLoadOptions load;
  load.arrivals_per_sec = 20000.0;
  load.num_requests = 200;
  load.batch_size = 4;
  load.max_batch_delay_ms = 1;
  load.max_queued_requests = 8;
  load.seed = 29;

  const auto report = eval::MeasureEnginePoissonLoad(
      method, TestData().target.test, data::SequenceConfig(), load);
  EXPECT_EQ(report.fulfilled + report.shed + report.expired + report.failed, 200);
  EXPECT_GT(report.shed, 0) << "2x+ overload never tripped admission control";
  EXPECT_GT(report.fulfilled, 0);
  EXPECT_EQ(report.failed, 0);
  // The bounded-memory evidence: the queue never grew past the bound.
  EXPECT_LE(report.peak_queue_depth, 8);
}

TEST(PoissonLoadTest, RepeatHeavyBurstyLoadDrivesEncodeCacheHits) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  eval::PoissonLoadOptions load;
  load.arrivals_per_sec = 400.0;
  load.num_requests = 80;
  load.batch_size = 4;
  load.max_batch_delay_ms = 2;
  load.seed = 31;
  // Mostly-repeat traffic in on/off bursts: 16 arrivals at 4x rate, then a
  // silent gap. Every offered request must still be fulfilled (no SLO knobs
  // set), and the resubmissions must land as encoder-cache hits.
  load.repeat_fraction = 0.9;
  load.burst_on_requests = 16;
  load.burst_off_seconds = 0.02;
  load.encode_cache = EncodeCacheMode::kOn;

  const auto report = eval::MeasureEnginePoissonLoad(
      method, TestData().target.test, data::SequenceConfig(), load);
  EXPECT_EQ(report.fulfilled, 80);
  EXPECT_GT(report.encode_lookups, 0);
  EXPECT_GT(report.encode_hits, 0);
  EXPECT_EQ(report.encode_lookups, report.encode_hits + report.encode_misses);

  // The same schedule with the cache pinned off reports zeroed counters.
  load.encode_cache = EncodeCacheMode::kOff;
  const auto uncached = eval::MeasureEnginePoissonLoad(
      method, TestData().target.test, data::SequenceConfig(), load);
  EXPECT_EQ(uncached.fulfilled, 80);
  EXPECT_EQ(uncached.encode_lookups, 0);
  EXPECT_EQ(uncached.encode_hits, 0);
}

}  // namespace
}  // namespace serve
}  // namespace adaptraj
