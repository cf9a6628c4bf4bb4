// Tests for the engine's work-conserving serving workers: a batch runs as
// soon as it is ready and delivers without waiting for any other batch, a
// Drain waits only for batches holding slots submitted before it, and a
// SwapWeights under pipelined traffic (several batches in flight at once)
// still flips at a clean batch boundary — including for the encoder cache.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "data/multi_domain.h"
#include "serve/inference_engine.h"
#include "tensor/parallel.h"

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

InferenceEngineOptions Options(int batch_size) {
  InferenceEngineOptions o;
  o.batch_size = batch_size;
  o.sample = true;
  o.seed = 42;
  return o;
}

std::vector<std::vector<float>> Serve(const core::Method& method,
                                      const std::vector<data::TrajectorySequence>& scenes,
                                      const InferenceEngineOptions& options) {
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  std::vector<std::vector<float>> out;
  for (auto& f : futures) {
    Tensor t = f.get();
    out.emplace_back(t.data(), t.data() + t.size());
  }
  return out;
}

/// Reentrant method whose FIRST Predict call blocks until released; every
/// later call returns obs_flat at once.
struct FirstCallGate {
  std::mutex mu;
  std::condition_variable cv;
  int calls = 0;
  bool released = false;
};

class FirstCallBlocksMethod : public core::Method {
 public:
  explicit FirstCallBlocksMethod(std::shared_ptr<FirstCallGate> gate)
      : gate_(std::move(gate)) {}
  std::string name() const override { return "first-call-blocks"; }
  void Train(const data::DomainGeneralizationData&, const core::TrainConfig&) override {}
  bool reentrant_predict() const override { return true; }
  Tensor Predict(const data::Batch& batch, Rng*, bool) const override {
    std::unique_lock<std::mutex> lock(gate_->mu);
    const bool first = gate_->calls++ == 0;
    gate_->cv.notify_all();
    if (first) gate_->cv.wait(lock, [this] { return gate_->released; });
    return batch.obs_flat;
  }

 private:
  std::shared_ptr<FirstCallGate> gate_;
};

TEST(ServingWorkersTest, WedgedBatchDoesNotHoldBackTheNextOne) {
  parallel::ConfigureTrainWorkers(2);
  auto gate = std::make_shared<FirstCallGate>();
  FirstCallBlocksMethod method(gate);
  InferenceEngine engine(&method, Options(/*batch_size=*/2));
  ASSERT_EQ(engine.num_workers(), 2);
  auto scenes = Scenes(4);

  std::future<Tensor> wedged0 = engine.Submit(scenes[0]);
  std::future<Tensor> wedged1 = engine.Submit(scenes[1]);
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    ASSERT_TRUE(gate->cv.wait_for(lock, std::chrono::seconds(10),
                                  [&] { return gate->calls >= 1; }))
        << "batch 0 never started";
  }
  // Batch 1 is full while batch 0 is wedged: the second worker takes it and
  // delivers without waiting for batch 0.
  std::future<Tensor> next0 = engine.Submit(scenes[2]);
  std::future<Tensor> next1 = engine.Submit(scenes[3]);
  EXPECT_EQ(next0.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "batch 1 waited for the wedged batch 0";
  EXPECT_EQ(next1.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(wedged0.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  EXPECT_EQ(engine.stats().inflight_batches, 1);  // batch 0 only

  // A Drain must wait for batch 0, which was collected before the call.
  auto drained = std::async(std::launch::async, [&] { engine.Drain(); });
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout)
      << "Drain returned while an earlier batch was still executing";
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->released = true;
  }
  gate->cv.notify_all();
  drained.get();
  EXPECT_EQ(wedged0.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  for (auto* f : {&wedged0, &wedged1, &next0, &next1}) EXPECT_EQ(f->get().shape()[0], 1);
  EXPECT_EQ(engine.stats().batches, 2);
  parallel::ConfigureTrainWorkers(1);
}

TEST(ServingWorkersTest, DrainReturnsWhileAnImplicitProducerKeepsSubmitting) {
  parallel::ConfigureTrainWorkers(2);
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto options = Options(/*batch_size=*/4);
  // kBlock keeps the queue full, so the engine never goes idle while the
  // producer runs: a Drain that waited for idle would starve.
  options.max_queued_requests = 32;
  options.overflow_policy = OverflowPolicy::kBlock;
  InferenceEngine engine(&method, options);
  auto scenes = Scenes(16);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> produced{0};
  std::thread producer([&] {
    for (size_t i = 0; !stop.load(); ++i) {
      (void)engine.Submit(scenes[i % scenes.size()]);
      ++produced;
    }
  });

  int64_t seen = 0;
  for (int round = 0; round < 10; ++round) {
    // Call each Drain with traffic demonstrably flowing.
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (produced.load() < seen + 16 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    const bool flowing = produced.load() >= seen + 16;
    seen = produced.load();
    std::future<Tensor> mine = engine.Submit(scenes[static_cast<size_t>(round)]);
    auto drained = std::async(std::launch::async, [&] { engine.Drain(); });
    const bool returned =
        drained.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
    if (!flowing || !returned) {
      stop.store(true);  // let the engine idle so Drain can finish
      producer.join();
      drained.get();
      FAIL() << (flowing ? "Drain starved under sustained implicit-id traffic"
                         : "the producer stalled");
    }
    drained.get();
    EXPECT_EQ(mine.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "Drain returned before a request submitted ahead of it completed";
    EXPECT_EQ(mine.get().shape()[0], 1);
  }
  stop.store(true);
  producer.join();
  engine.Drain();
  parallel::ConfigureTrainWorkers(1);
}

TEST(ServingWorkersTest, SwapUnderPipelinedTrafficNeverServesAnOldEncoderRow) {
  parallel::ConfigureTrainWorkers(4);
  core::VanillaMethod old_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  core::VanillaMethod new_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 77);
  const int kBatch = 4;
  const uint64_t kSlots = 400;  // 100 batches over a 4-scene pool: mostly cache hits
  auto pool = Scenes(4);
  std::vector<data::TrajectorySequence> schedule;
  for (uint64_t s = 0; s < kSlots + kBatch; ++s) schedule.push_back(pool[s % pool.size()]);
  auto reference_options = Options(kBatch);
  reference_options.encode_cache = EncodeCacheMode::kOff;
  const auto ref_old = Serve(old_weights, schedule, reference_options);
  const auto ref_new = Serve(new_weights, schedule, reference_options);

  auto options = Options(kBatch);
  options.encode_cache = EncodeCacheMode::kOn;
  for (int round = 0; round < 4; ++round) {
    InferenceEngine engine(&old_weights, options);
    ASSERT_EQ(engine.num_workers(), 4);
    std::vector<std::future<Tensor>> futures(schedule.size());
    std::thread producer([&] {
      for (uint64_t s = 0; s < kSlots; ++s) futures[s] = engine.Submit(s, schedule[s]);
    });
    // Move the flip around the stream from round to round.
    std::this_thread::sleep_for(std::chrono::microseconds(300 * round));
    engine.SwapWeights(new_weights);
    producer.join();
    // One batch submitted after the flip landed: it must serve new weights.
    for (uint64_t s = kSlots; s < schedule.size(); ++s) {
      futures[s] = engine.Submit(s, schedule[s]);
    }
    engine.Drain();

    bool seen_new = false;
    for (size_t b = 0; b * kBatch < schedule.size(); ++b) {
      bool all_old = true, all_new = true;
      for (size_t r = b * kBatch; r < (b + 1) * kBatch; ++r) {
        Tensor t = futures[r].get();
        const size_t bytes = static_cast<size_t>(t.size()) * sizeof(float);
        if (std::memcmp(t.data(), ref_old[r].data(), bytes) != 0) all_old = false;
        if (std::memcmp(t.data(), ref_new[r].data(), bytes) != 0) all_new = false;
      }
      // An old-weights encoder row decoded by the new weights matches
      // neither reference.
      ASSERT_TRUE(all_old || all_new)
          << "round " << round << ": batch " << b << " mixes old and new weights";
      if (seen_new) {
        EXPECT_TRUE(all_new) << "round " << round << ": batch " << b
                             << " served old weights after the flip";
      }
      seen_new = seen_new || (all_new && !all_old);
    }
    EXPECT_TRUE(seen_new) << "round " << round << ": the post-swap batch served old weights";
    const auto stats = engine.stats();
    EXPECT_EQ(stats.weight_swaps, 1);
    EXPECT_GT(stats.encode_cache.hits, 0);
  }
  parallel::ConfigureTrainWorkers(1);
}

}  // namespace
}  // namespace serve
}  // namespace adaptraj
