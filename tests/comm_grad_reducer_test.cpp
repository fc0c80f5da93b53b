// GradReducer tests: the extracted data-parallel reduction plane must
// compute the exact replica mean over each rank's owned segments (bucketed
// or per-param) and replicate it with all_gather, honour defer marks,
// reject double ready-signals, and — the communication-plane contract —
// produce bitwise-identical final weights for every combination of
// scatter_gather x overlap_grad_reduce on full PTD-P engine grids.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "ptdp/comm/grad_reducer.hpp"
#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::comm {
namespace {

using model::Param;
using tensor::Tensor;

// A chunk of `count` params with `elems` elements each; grads are salted by
// (rank, param index, element index) so the replica mean is predictable.
std::vector<std::unique_ptr<Param>> make_chunk(int rank, int chunk, int count,
                                               std::int64_t elems) {
  std::vector<std::unique_ptr<Param>> owned;
  for (int i = 0; i < count; ++i) {
    auto p = std::make_unique<Param>();
    p->name = "chunk" + std::to_string(chunk) + ".p" + std::to_string(i);
    p->value = Tensor({elems});
    p->grad = Tensor({elems});
    auto g = p->grad.data();
    for (std::size_t j = 0; j < g.size(); ++j) {
      g[j] = 0.5f * static_cast<float>(rank + 1) + static_cast<float>(i) +
             0.25f * static_cast<float>(j) + static_cast<float>(chunk);
    }
    owned.push_back(std::move(p));
  }
  return owned;
}

float expected_mean(int d, int chunk, int i, std::size_t j) {
  float rank_sum = 0.f;
  for (int r = 0; r < d; ++r) rank_sum += 0.5f * static_cast<float>(r + 1);
  return rank_sum / static_cast<float>(d) + static_cast<float>(i) +
         0.25f * static_cast<float>(j) + static_cast<float>(chunk);
}

// Calls fn(j) for every element j of `p` this rank owns.
template <class Fn>
void for_each_owned(const GradReducer& reducer, const Param* p, Fn fn) {
  for (const model::ParamSegment& seg : reducer.owned()) {
    if (seg.param != p) continue;
    for (std::int64_t j = seg.offset; j < seg.offset + seg.length; ++j) {
      fn(static_cast<std::size_t>(j));
    }
  }
}

// Writes each owned element's reduced grad into its param's value and
// all-gathers the values, as the sharded step gathers its weights: every
// rank then holds every replica mean.
void gather_means_into_values(GradReducer& reducer) {
  std::vector<Tensor*> values;
  for (Param* p : reducer.params()) values.push_back(&p->value);
  for (const model::ParamSegment& seg : reducer.owned()) {
    auto g = seg.param->grad.data();
    std::copy_n(g.begin() + seg.offset, seg.length,
                seg.param->value.data().begin() + seg.offset);
  }
  reducer.all_gather(values, tensor::DType::kF32);
}

TEST(GradReducer, FinishComputesDataParallelMean) {
  const int d = 4, chunks = 2, count = 3;
  const std::int64_t elems = 7;
  dist::World world(d);
  world.run([&](dist::Comm& comm) {
    std::vector<std::vector<std::unique_ptr<Param>>> owned;
    std::vector<model::ParamRefs> refs;
    for (int c = 0; c < chunks; ++c) {
      owned.push_back(make_chunk(comm.rank(), c, count, elems));
      model::ParamRefs r;
      for (auto& p : owned.back()) r.push_back(p.get());
      refs.push_back(std::move(r));
    }
    GradReducer reducer(refs, comm, GradReducerOptions{});
    ASSERT_TRUE(reducer.enabled());
    ASSERT_EQ(reducer.num_chunks(), chunks);
    reducer.finish();
    for (int c = 0; c < chunks; ++c) {
      for (int i = 0; i < count; ++i) {
        const Param* p = owned[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)].get();
        auto g = p->grad.data();
        for_each_owned(reducer, p, [&](std::size_t j) {
          EXPECT_FLOAT_EQ(g[j], expected_mean(d, c, i, j))
              << "chunk " << c << " param " << i << " elem " << j;
        });
      }
    }
    gather_means_into_values(reducer);
    for (int c = 0; c < chunks; ++c) {
      for (int i = 0; i < count; ++i) {
        auto v = owned[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)]
                     ->value.data();
        for (std::size_t j = 0; j < v.size(); ++j) {
          EXPECT_FLOAT_EQ(v[j], expected_mean(d, c, i, j))
              << "chunk " << c << " param " << i << " elem " << j;
        }
      }
    }
    EXPECT_EQ(reducer.elems_reduced(),
              static_cast<std::uint64_t>(chunks * count * elems));
  });
}

TEST(GradReducer, BucketingMatchesPerParamPath) {
  // Bucket boundaries must not change the arithmetic: cap=5 splits a
  // 3x7-element chunk mid-stream, cap=1 reduces one param at a time, and
  // the gathered means must agree bitwise.
  const int d = 2, count = 3;
  const std::int64_t elems = 7;
  std::map<std::string, Tensor> by_cap[2];
  const std::int64_t caps[2] = {5, 1};
  for (int k = 0; k < 2; ++k) {
    std::mutex mu;
    dist::World world(d);
    world.run([&](dist::Comm& comm) {
      auto owned = make_chunk(comm.rank(), /*chunk=*/0, count, elems);
      model::ParamRefs refs;
      for (auto& p : owned) refs.push_back(p.get());
      GradReducerOptions opts;
      opts.bucket_elems = caps[k];
      GradReducer reducer({refs}, comm, opts);
      reducer.finish();
      gather_means_into_values(reducer);
      std::lock_guard lock(mu);
      for (auto& p : owned) {
        by_cap[k].emplace("rank" + std::to_string(comm.rank()) + "/" + p->name,
                          p->value.clone());
      }
    });
  }
  ASSERT_EQ(by_cap[0].size(), by_cap[1].size());
  for (auto& [name, grad] : by_cap[0]) {
    EXPECT_EQ(tensor::max_abs_diff(grad, by_cap[1].at(name)), 0.0f) << name;
  }
}

TEST(GradReducer, DeferredChunksWaitForFinish) {
  const int d = 2;
  const std::int64_t elems = 4;
  dist::World world(d);
  world.run([&](dist::Comm& comm) {
    auto c0 = make_chunk(comm.rank(), 0, /*count=*/1, elems);
    auto c1 = make_chunk(comm.rank(), 1, /*count=*/1, elems);
    const Tensor raw = c1[0]->grad.clone();
    GradReducer reducer({{c0[0].get()}, {c1[0].get()}}, comm, GradReducerOptions{},
                        /*defer=*/{false, true});
    reducer.on_chunk_grads_ready(0);  // reduces immediately (overlap on)
    for_each_owned(reducer, c0[0].get(), [&](std::size_t j) {
      EXPECT_FLOAT_EQ(c0[0]->grad.data()[j], expected_mean(d, 0, 0, j));
    });
    reducer.on_chunk_grads_ready(1);  // deferred: must stay untouched
    EXPECT_EQ(tensor::max_abs_diff(c1[0]->grad, raw), 0.0f);
    reducer.finish();
    for_each_owned(reducer, c1[0].get(), [&](std::size_t j) {
      EXPECT_FLOAT_EQ(c1[0]->grad.data()[j], expected_mean(d, 1, 0, j));
    });
  });
}

TEST(GradReducer, OverlapOffDefersEverythingToFinish) {
  const int d = 2;
  dist::World world(d);
  world.run([&](dist::Comm& comm) {
    auto c0 = make_chunk(comm.rank(), 0, /*count=*/1, /*elems=*/4);
    const Tensor raw = c0[0]->grad.clone();
    GradReducerOptions opts;
    opts.overlap = false;
    GradReducer reducer({{c0[0].get()}}, comm, opts);
    reducer.on_chunk_grads_ready(0);  // no-op: hook path disabled
    EXPECT_EQ(tensor::max_abs_diff(c0[0]->grad, raw), 0.0f);
    reducer.finish();
    for_each_owned(reducer, c0[0].get(), [&](std::size_t j) {
      EXPECT_FLOAT_EQ(c0[0]->grad.data()[j], expected_mean(d, 0, 0, j));
    });
  });
}

TEST(GradReducer, DoubleReadySignalThrows) {
  dist::World world(2);
  EXPECT_THROW(world.run([&](dist::Comm& comm) {
                 auto c0 = make_chunk(comm.rank(), 0, 1, 4);
                 GradReducer reducer({{c0[0].get()}}, comm, GradReducerOptions{});
                 reducer.on_chunk_grads_ready(0);
                 reducer.on_chunk_grads_ready(0);  // same batch: a bug
               }),
               dist::RankFailure);
}

TEST(GradReducer, SoloDataGroupIsNoop) {
  dist::Comm solo = dist::Comm::solo();
  auto c0 = make_chunk(/*rank=*/0, 0, /*count=*/2, /*elems=*/4);
  model::ParamRefs refs{c0[0].get(), c0[1].get()};
  const float raw = c0[0]->grad.data()[0];
  GradReducer reducer({refs}, solo, GradReducerOptions{});
  EXPECT_FALSE(reducer.enabled());
  reducer.on_chunk_grads_ready(0);
  reducer.finish();
  EXPECT_FLOAT_EQ(c0[0]->grad.data()[0], raw);
  EXPECT_EQ(reducer.elems_reduced(), 0u);
}

// ---- communication-plane contract on the full engine ----------------------
//
// For PTD-P grids, scatter_gather and overlap_grad_reduce are pure
// communication-plane toggles: all four combinations must produce final
// weights that agree *bitwise* on every rank, and scatter_gather must cut
// inter-stage p2p bytes by exactly 1/t.

using ModeGrid = std::tuple<int, int, int, int, pipeline::ScheduleType>;

class EngineCommModeTest : public ::testing::TestWithParam<ModeGrid> {};

TEST_P(EngineCommModeTest, FinalWeightsBitwiseIdenticalAcrossModes) {
  const auto [p, t, d, v, schedule] = GetParam();
  const std::int64_t B = 8, b = 1;
  const int steps = 2;
  model::GptConfig c;
  c.num_layers = static_cast<std::int64_t>(p * v);
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 6;
  c.dropout = 0.0f;
  c.seed = 2024;
  data::SyntheticCorpus corpus(c.vocab, 55);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);

  struct ModeResult {
    std::map<std::string, Tensor> weights;  // "rank<r>/<param>" -> value
    std::uint64_t p2p_bytes = 0;
  };
  const std::pair<bool, bool> modes[] = {  // (scatter_gather, overlap)
      {false, false}, {false, true}, {true, false}, {true, true}};
  std::vector<ModeResult> results;

  for (const auto& [sg, overlap] : modes) {
    ModeResult out;
    std::mutex mu;
    dist::World world(p * t * d);
    world.run([&](dist::Comm& comm) {
      core::EngineOptions options;
      options.model = c;
      options.parallel.p = p;
      options.parallel.t = t;
      options.parallel.d = d;
      options.parallel.v = v;
      options.parallel.b = b;
      options.parallel.schedule = schedule;
      options.parallel.recompute = false;
      options.parallel.scatter_gather = sg;
      options.overlap_grad_reduce = overlap;
      options.global_batch = B;
      options.optimizer = core::EngineOptions::Opt::kSgd;
      options.sgd.lr = 0.1f;
      core::PtdpEngine engine(comm, options);
      data::ShardedLoader loader(dataset, B, b, d,
                                 engine.groups().coord().data, /*seed=*/88);
      for (int s = 0; s < steps; ++s) engine.train_step(loader.next_batch(s));
      std::lock_guard lock(mu);
      out.p2p_bytes += engine.executor().comm_stats().p2p_bytes_sent;
      for (Param* param : engine.params()) {
        out.weights.emplace("rank" + std::to_string(comm.rank()) + "/" + param->name,
                            param->value.clone());
      }
    });
    results.push_back(std::move(out));
  }

  for (std::size_t mode = 1; mode < results.size(); ++mode) {
    ASSERT_EQ(results[mode].weights.size(), results[0].weights.size());
    for (auto& [name, w] : results[mode].weights) {
      ASSERT_TRUE(results[0].weights.contains(name)) << name;
      EXPECT_EQ(tensor::max_abs_diff(w, results[0].weights.at(name)), 0.0f)
          << name << " differs in mode sg=" << modes[mode].first
          << " overlap=" << modes[mode].second;
    }
  }
  if (p > 1 && t > 1) {
    // modes[1] = sg off, modes[3] = sg on (overlap on for both).
    ASSERT_GT(results[1].p2p_bytes, 0u);
    EXPECT_EQ(results[3].p2p_bytes * static_cast<std::uint64_t>(t),
              results[1].p2p_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, EngineCommModeTest,
    ::testing::Values(
        // The acceptance grid: full PTD-P.
        ModeGrid{2, 2, 2, 1, pipeline::ScheduleType::kOneFOneB},
        // Tied-embedding defer path under interleaving with data parallel.
        ModeGrid{2, 1, 2, 2, pipeline::ScheduleType::kInterleaved},
        ModeGrid{2, 2, 1, 2, pipeline::ScheduleType::kInterleaved}));

}  // namespace
}  // namespace ptdp::comm
