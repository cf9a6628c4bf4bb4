// Tests for serve::InferenceEngine: batching semantics (fixed width, padded
// tails, deterministic request->slot order), correctness against the
// reference batched Predict, byte-identical results across worker counts and
// submission interleavings (including explicit out-of-order ids), LBEBM on
// one shared instance, and the non-reentrant (replica pool) path. These
// tests predate the async rewrite and pin the PR-4 synchronous semantics the
// async engine must reproduce bit-for-bit (same slot->batch mapping,
// per-batch noise streams, padded-tail composition). Async-specific
// behaviour lives in test_async_engine.cpp.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptraj_method.h"
#include "core/baselines.h"
#include "core/parallel_trainer.h"
#include "data/multi_domain.h"
#include "serve/inference_engine.h"
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
    cfg.seed = 606;
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

/// Runs every scene through an engine and returns the flattened per-request
/// predictions in submission order.
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

void ExpectAllEqual(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "request " << i;
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)), 0)
        << "request " << i;
  }
}

// --- Correctness against the reference batched Predict ----------------------

TEST(InferenceEngineTest, FullBatchMatchesDirectPredict) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(8);
  auto options = Options(/*batch_size=*/8);
  auto served = Serve(method, scenes, options);

  // Reference: one batch at slot order 0..7 with the batch-0 noise stream.
  data::SequenceConfig seq_cfg;
  std::vector<const data::TrajectorySequence*> ptrs;
  for (const auto& s : scenes) ptrs.push_back(&s);
  data::Batch batch = data::MakeBatch(ptrs, seq_cfg);
  Rng rng(core::TaskSeed(options.seed, 0));
  Tensor pred = method.Predict(batch, &rng, /*sample=*/true);
  const int64_t cols = pred.size(-1);
  ASSERT_EQ(served.size(), 8u);
  for (int64_t r = 0; r < 8; ++r) {
    ASSERT_EQ(static_cast<int64_t>(served[r].size()), cols);
    EXPECT_EQ(std::memcmp(served[r].data(), pred.data() + r * cols,
                          cols * sizeof(float)),
              0)
        << "row " << r;
  }
}

TEST(InferenceEngineTest, PartialTailIsPaddedAndMatchesPaddedReference) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(3);
  auto options = Options(/*batch_size=*/8);
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  EXPECT_EQ(engine.stats().batches, 0);  // nothing full yet
  engine.Drain();
  EXPECT_EQ(engine.stats().batches, 1);
  EXPECT_EQ(engine.stats().padded_rows, 5);

  // Reference: the same 3 scenes cycled up to width 8.
  data::SequenceConfig seq_cfg;
  std::vector<const data::TrajectorySequence*> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(&scenes[i % scenes.size()]);
  data::Batch batch = data::MakeBatch(ptrs, seq_cfg);
  Rng rng(core::TaskSeed(options.seed, 0));
  Tensor pred = method.Predict(batch, &rng, /*sample=*/true);
  const int64_t cols = pred.size(-1);
  for (size_t r = 0; r < futures.size(); ++r) {
    Tensor t = futures[r].get();
    EXPECT_EQ(std::memcmp(t.data(), pred.data() + static_cast<int64_t>(r) * cols,
                          cols * sizeof(float)),
              0)
        << "row " << r;
  }
}

TEST(InferenceEngineTest, SubmitAfterDrainStartsAFreshBatch) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto options = Options(/*batch_size=*/4);
  InferenceEngine engine(&method, options);
  auto scenes = Scenes(6);
  for (int i = 0; i < 2; ++i) engine.Submit(scenes[i]);
  engine.Drain();  // padded tail consumes batch 0's whole slot range
  std::vector<std::future<Tensor>> futures;
  for (int i = 2; i < 6; ++i) futures.push_back(engine.Submit(scenes[i]));
  engine.Drain();
  EXPECT_EQ(engine.stats().batches, 2);
  EXPECT_EQ(engine.stats().requests, 6);
  for (auto& f : futures) {
    Tensor t = f.get();
    EXPECT_EQ(t.shape()[0], 1);
  }
}

// --- Determinism -------------------------------------------------------------

TEST(InferenceEngineTest, ResultsByteIdenticalAcrossWorkerCounts) {
  core::AdapTrajConfig acfg;
  acfg.feature_dim = 8;
  acfg.fused_dim = 8;
  acfg.num_source_domains = 2;
  core::AdapTrajMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), acfg, 5);
  auto scenes = Scenes(20);  // 2 full batches of 8 + padded tail of 4
  auto options = Options(/*batch_size=*/8);

  parallel::ConfigureTrainWorkers(1);
  auto w1 = Serve(method, scenes, options);
  parallel::ConfigureTrainWorkers(2);
  auto w2 = Serve(method, scenes, options);
  parallel::ConfigureTrainWorkers(4);
  auto w4 = Serve(method, scenes, options);
  parallel::ConfigureTrainWorkers(1);

  ExpectAllEqual(w1, w2);
  ExpectAllEqual(w1, w4);
}

TEST(InferenceEngineTest, ResultsByteIdenticalAcrossWorkersAndArrivalOrders) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(44);  // 5 full batches of 8 + a padded tail of 4
  auto options = Options(/*batch_size=*/8);
  const uint64_t n = scenes.size();

  parallel::ConfigureTrainWorkers(1);
  auto reference = Serve(method, scenes, options);

  // Each arrival order submits every slot once with an explicit id, so the
  // slot->batch mapping — and with it every byte — is fixed; only which
  // batch completes first, and on which worker, changes.
  auto reversed = [&](InferenceEngine* engine, std::vector<std::future<Tensor>>* f) {
    for (uint64_t i = n; i-- > 0;) (*f)[i] = engine->Submit(i, scenes[i]);
  };
  auto batches_backwards = [&](InferenceEngine* engine, std::vector<std::future<Tensor>>* f) {
    // Whole batches complete last-first, so later batches run before earlier
    // ones on an otherwise idle engine.
    for (uint64_t b = (n + 7) / 8; b-- > 0;) {
      for (uint64_t i = b * 8; i < std::min(n, b * 8 + 8); ++i) {
        (*f)[i] = engine->Submit(i, scenes[i]);
      }
    }
  };
  auto paced = [&](InferenceEngine* engine, std::vector<std::future<Tensor>>* f) {
    // Every full batch executes as soon as it completes, one at a time.
    for (uint64_t i = 0; i < n; ++i) {
      (*f)[i] = engine->Submit(i, scenes[i]);
      if (i % 8 == 7) (void)(*f)[i].wait_for(std::chrono::seconds(10));
    }
  };
  auto four_producers = [&](InferenceEngine* engine, std::vector<std::future<Tensor>>* f) {
    std::vector<std::thread> threads;
    for (uint64_t p = 0; p < 4; ++p) {
      threads.emplace_back([&, p] {
        for (uint64_t i = p; i < n; i += 4) (*f)[i] = engine->Submit(i, scenes[i]);
      });
    }
    for (auto& t : threads) t.join();
  };
  using Order = std::function<void(InferenceEngine*, std::vector<std::future<Tensor>>*)>;
  const std::vector<Order> orders = {reversed, batches_backwards, paced, four_producers};

  for (int workers : {1, 2, 4}) {
    parallel::ConfigureTrainWorkers(workers);
    for (size_t o = 0; o < orders.size(); ++o) {
      InferenceEngine engine(&method, options);
      ASSERT_EQ(engine.num_workers(), workers);
      std::vector<std::future<Tensor>> futures(n);
      orders[o](&engine, &futures);
      engine.Drain();
      std::vector<std::vector<float>> got;
      for (auto& f : futures) {
        Tensor t = f.get();
        got.emplace_back(t.data(), t.data() + t.size());
      }
      SCOPED_TRACE("workers=" + std::to_string(workers) + " order=" + std::to_string(o));
      ExpectAllEqual(reference, got);
    }
  }
  parallel::ConfigureTrainWorkers(1);
}

TEST(InferenceEngineTest, OutOfOrderArrivalByteIdenticalToInOrder) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(16);
  auto options = Options(/*batch_size=*/8);

  auto in_order = Serve(method, scenes, options);

  // Reversed wire order with explicit slot ids: the engine must hold every
  // batch until its slots are complete, then compute exactly the same thing.
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures(scenes.size());
  for (size_t i = scenes.size(); i-- > 0;) {
    futures[i] = engine.Submit(static_cast<uint64_t>(i), scenes[i]);
  }
  engine.Drain();
  std::vector<std::vector<float>> reordered;
  for (auto& f : futures) {
    Tensor t = f.get();
    reordered.emplace_back(t.data(), t.data() + t.size());
  }
  ExpectAllEqual(in_order, reordered);
}

TEST(InferenceEngineTest, RepeatRunsAreByteIdentical) {
  core::VanillaMethod method(models::BackboneKind::kPecnet, TinyBackbone(), 5);
  auto scenes = Scenes(10);
  auto options = Options(/*batch_size=*/4);
  ExpectAllEqual(Serve(method, scenes, options), Serve(method, scenes, options));
}

// --- LBEBM and non-reentrant methods ----------------------------------------

TEST(InferenceEngineTest, LbebmSharedInstanceOnFourWorkersMatchesOneWorker) {
  // The Langevin sampler records no graph and writes no gradient buffer, so
  // LBEBM is reentrant: four workers share the one instance concurrently.
  core::VanillaMethod method(models::BackboneKind::kLbebm, TinyBackbone(), 5);
  ASSERT_TRUE(method.reentrant_predict());
  auto scenes = Scenes(40);  // 10 batches
  auto options = Options(/*batch_size=*/4);

  parallel::ConfigureTrainWorkers(1);
  auto w1 = Serve(method, scenes, options);

  parallel::ConfigureTrainWorkers(4);
  InferenceEngine engine(&method, options);
  EXPECT_EQ(engine.num_workers(), 4);
  EXPECT_EQ(engine.num_replica_slots(), 1) << "LBEBM was given a replica pool";
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  std::vector<std::vector<float>> w4;
  for (auto& f : futures) {
    Tensor t = f.get();
    w4.emplace_back(t.data(), t.data() + t.size());
  }
  parallel::ConfigureTrainWorkers(1);
  ExpectAllEqual(w1, w4);
}

TEST(InferenceEngineTest, NonReentrantMethodServesDeterministically) {
  NonReentrantMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  ASSERT_FALSE(method.reentrant_predict());
  auto scenes = Scenes(6);
  auto options = Options(/*batch_size=*/4);

  parallel::ConfigureTrainWorkers(4);
  auto w4 = Serve(method, scenes, options);
  parallel::ConfigureTrainWorkers(1);
  auto w1 = Serve(method, scenes, options);
  ExpectAllEqual(w1, w4);
}

// --- API misuse --------------------------------------------------------------

TEST(InferenceEngineTest, DrainWithSlotGapThrowsAndKeepsServing) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(5);
  const auto reference = Serve(method, scenes, Options(/*batch_size=*/4));

  InferenceEngine engine(&method, Options(/*batch_size=*/4));
  std::vector<std::future<Tensor>> futures(scenes.size());
  futures[2] = engine.Submit(2, scenes[2]);  // slots 0 and 1 not yet arrived
  EXPECT_THROW(engine.Drain(), ServeError);

  // The engine keeps serving: filling the hole completes batch 0, which
  // runs without a Drain.
  futures[0] = engine.Submit(0, scenes[0]);
  futures[1] = engine.Submit(1, scenes[1]);
  futures[3] = engine.Submit(3, scenes[3]);
  ASSERT_EQ(futures[0].wait_for(std::chrono::seconds(30)), std::future_status::ready);

  // A second Drain pads the tail; every row matches the run without a hole.
  futures[4] = engine.Submit(4, scenes[4]);
  engine.Drain();
  std::vector<std::vector<float>> got;
  for (auto& f : futures) {
    Tensor t = f.get();
    got.emplace_back(t.data(), t.data() + t.size());
  }
  ExpectAllEqual(got, reference);
}

}  // namespace
}  // namespace serve
}  // namespace adaptraj
