// Functional pipeline tests: for every schedule and pipeline depth, running
// a batch through the PipelineExecutor produces the same loss and the same
// parameter gradients as the serial model on the same batch — the "strict
// optimizer semantics" the paper's flushes guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "ptdp/dist/process_groups.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/pipeline/executor.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::pipeline {
namespace {

using model::GptConfig;
using model::GptStage;
using model::Microbatch;
using model::Param;
using model::StageCache;
using model::StageSpec;
using tensor::Tensor;

GptConfig tiny_config(std::int64_t layers = 4) {
  GptConfig c;
  c.num_layers = layers;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 5;
  c.dropout = 0.0f;
  c.seed = 321;
  return c;
}

std::vector<Microbatch> make_microbatches(const GptConfig& c, int m, std::int64_t b) {
  std::vector<Microbatch> mbs;
  for (int i = 0; i < m; ++i) {
    Microbatch mb;
    mb.s = c.seq;
    mb.b = b;
    mb.tag = static_cast<std::uint64_t>(i + 1);
    Rng rng(c.seed, substream(555, static_cast<std::uint64_t>(i)));
    mb.tokens.resize(static_cast<std::size_t>(mb.s * b));
    mb.targets.resize(static_cast<std::size_t>(mb.s * b));
    for (auto& t : mb.tokens) {
      t = static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(c.vocab)));
    }
    for (auto& t : mb.targets) {
      t = static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(c.vocab)));
    }
    mbs.push_back(std::move(mb));
  }
  return mbs;
}

// Serial reference: the full model processes the same microbatches with the
// same 1/m loss scaling.
struct Reference {
  float loss;
  std::map<std::string, Tensor> grads;
};

Reference serial_reference(const GptConfig& c, const std::vector<Microbatch>& mbs) {
  dist::Comm solo = dist::Comm::solo();
  GptStage full(c, solo, StageSpec{true, true, 0, c.num_layers, false});
  full.zero_grads();
  const float scale = 1.0f / static_cast<float>(mbs.size());
  double loss_sum = 0.0;
  for (const Microbatch& mb : mbs) {
    StageCache cache;
    loss_sum += full.forward(Tensor(), mb, cache).loss;
    full.backward(Tensor(), scale, cache, mb);
  }
  Reference ref;
  ref.loss = static_cast<float>(loss_sum) * scale;
  for (Param* p : full.params()) ref.grads.emplace(p->name, p->grad.clone());
  return ref;
}

// Builds the v chunks a pipeline rank owns for a given (p, v) layout.
std::vector<std::unique_ptr<GptStage>> build_chunks(const GptConfig& c,
                                                    const dist::Comm& tp, int p,
                                                    int rank, int v, bool recompute) {
  const std::int64_t per_stage = c.num_layers / (p * v);
  std::vector<std::unique_ptr<GptStage>> chunks;
  for (int chunk = 0; chunk < v; ++chunk) {
    const int vs = virtual_stage(rank, chunk, p);
    StageSpec spec;
    spec.has_embedding = vs == 0;
    spec.has_head = vs == p * v - 1;
    spec.layer_begin = vs * per_stage;
    spec.layer_end = (vs + 1) * per_stage;
    spec.recompute = recompute;
    chunks.push_back(std::make_unique<GptStage>(c, tp, spec));
  }
  return chunks;
}

using Case = std::tuple<ScheduleType, int, int, int>;  // (schedule, p, m, v)

class PipelineEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(PipelineEquivalenceTest, LossAndGradsMatchSerial) {
  const auto [type, p, m, v] = GetParam();
  GptConfig c = tiny_config(/*layers=*/static_cast<std::int64_t>(p * v));
  auto mbs = make_microbatches(c, m, /*b=*/2);
  Reference ref = serial_reference(c, mbs);

  dist::World world(p);
  world.run([&](dist::Comm& comm) {
    dist::Comm tp = dist::Comm::solo();
    auto chunks = build_chunks(c, tp, p, comm.rank(), v, /*recompute=*/false);
    std::vector<GptStage*> raw;
    for (auto& ch : chunks) {
      ch->zero_grads();
      raw.push_back(ch.get());
    }
    PipelineExecutor exec(raw, comm, ScheduleParams{type, p, m, v});
    const float loss = exec.run_batch(mbs);
    if (comm.rank() == p - 1) {
      EXPECT_NEAR(loss, ref.loss, 1e-4f);
    }
    // Tied embedding: sum the first/last stage copies before comparing.
    Tensor word_grad;
    for (auto& ch : chunks) {
      if (Param* w = ch->word_embedding_param()) {
        if (!word_grad.defined()) {
          word_grad = w->grad.clone();
        } else {
          tensor::add_(word_grad, w->grad);
        }
      }
    }
    for (auto& ch : chunks) {
      for (Param* param : ch->params()) {
        const auto it = ref.grads.find(param->name);
        ASSERT_NE(it, ref.grads.end()) << param->name;
        if (param->name == "embedding.word") continue;  // handled below
        EXPECT_TRUE(tensor::allclose(param->grad, it->second, 2e-3f, 1e-4f))
            << param->name << " on rank " << comm.rank();
      }
    }
    if (word_grad.defined()) {
      // A rank holding both ends (p==1) accumulates into one tensor; a rank
      // holding one end holds half the tied grad. The embedding-group
      // all-reduce (engine level) sums them; emulate by comparing the sum
      // across this rank's chunks only when the rank holds both ends,
      // otherwise just check it is a *component* consistent with serial.
      const Tensor& serial = ref.grads.at("embedding.word");
      if (p == 1) {
        EXPECT_TRUE(tensor::allclose(word_grad, serial, 2e-3f, 1e-4f));
      } else {
        // Component check: |component| <= |serial| elementwise is not
        // guaranteed; instead verify via the two-rank sum on rank 0 by
        // receiving the partner's grad.
        const int partner = comm.rank() == 0 ? p - 1 : 0;
        if (comm.rank() == 0 || comm.rank() == p - 1) {
          comm.send(std::span<const float>(word_grad.data()), partner,
                    /*tag=*/9001);
          Tensor other(word_grad.shape());
          comm.recv(other.data(), partner, /*tag=*/9001);
          tensor::add_(word_grad, other);
          EXPECT_TRUE(tensor::allclose(word_grad, serial, 2e-3f, 1e-4f));
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, PipelineEquivalenceTest,
    ::testing::Values(
        Case{ScheduleType::kOneFOneB, 1, 1, 1}, Case{ScheduleType::kOneFOneB, 1, 4, 1},
        Case{ScheduleType::kGPipe, 2, 4, 1}, Case{ScheduleType::kOneFOneB, 2, 4, 1},
        Case{ScheduleType::kOneFOneB, 2, 2, 1}, Case{ScheduleType::kGPipe, 4, 4, 1},
        Case{ScheduleType::kOneFOneB, 4, 8, 1},
        Case{ScheduleType::kInterleaved, 2, 4, 2},
        Case{ScheduleType::kInterleaved, 2, 2, 2},
        Case{ScheduleType::kInterleaved, 4, 8, 2}));

// ---- §4.1 scatter/gather + pre-posted receives ----------------------------
//
// For every (schedule, p, t) grid, run the same batch through three
// communication-plane modes — full-tensor sends, scatter/gather strips, and
// scatter/gather without receive pre-posting — and require (a) the loss
// matches the serial reference and (b) losses and gradients are *bitwise*
// identical across the modes: the strip all-gather reconstructs the exact
// bytes a full send would have delivered, and pre-posting only moves when a
// receive is posted, never what arrives. Also checks the measured
// inter-stage p2p byte reduction is exactly 1/t.

using SgCase = std::tuple<ScheduleType, int, int, int, int>;  // (schedule, p, t, m, v)

class ScatterGatherEquivalenceTest : public ::testing::TestWithParam<SgCase> {};

TEST_P(ScatterGatherEquivalenceTest, BitwiseIdenticalAcrossCommModes) {
  const auto [type, p, t, m, v] = GetParam();
  GptConfig c = tiny_config(/*layers=*/static_cast<std::int64_t>(p * v));
  auto mbs = make_microbatches(c, m, /*b=*/2);
  Reference ref = serial_reference(c, mbs);

  struct ModeResult {
    std::map<std::string, Tensor> grads;  // "rank<r>/<param>" -> grad
    std::map<int, float> losses;          // last-stage world rank -> loss
    std::uint64_t p2p_bytes = 0;
  };
  const std::vector<ExecutorOptions> modes = {
      {/*scatter_gather=*/false, /*prepost_recv=*/true},
      {/*scatter_gather=*/true, /*prepost_recv=*/true},
      {/*scatter_gather=*/true, /*prepost_recv=*/false},
  };
  std::vector<ModeResult> results(modes.size());

  for (std::size_t mode = 0; mode < modes.size(); ++mode) {
    ModeResult& out = results[mode];
    std::mutex mu;
    dist::World world(p * t);
    world.run([&](dist::Comm& comm) {
      dist::ProcessGroups groups(comm, p, t, /*d=*/1);
      const int rank = groups.coord().pipeline;
      auto chunks = build_chunks(c, groups.tensor(), p, rank, v, /*recompute=*/false);
      std::vector<GptStage*> raw;
      for (auto& ch : chunks) {
        ch->zero_grads();
        raw.push_back(ch.get());
      }
      PipelineExecutor exec(raw, groups.pipeline(), groups.tensor(),
                            ScheduleParams{type, p, m, v}, modes[mode]);
      const float loss = exec.run_batch(mbs);
      std::lock_guard lock(mu);
      if (rank == p - 1) {
        EXPECT_NEAR(loss, ref.loss, 2e-4f);
        out.losses.emplace(comm.rank(), loss);
      }
      out.p2p_bytes += exec.comm_stats().p2p_bytes_sent;
      for (auto& ch : chunks) {
        for (Param* param : ch->params()) {
          out.grads.emplace("rank" + std::to_string(comm.rank()) + "/" + param->name,
                            param->grad.clone());
        }
      }
    });
  }

  for (std::size_t mode = 1; mode < results.size(); ++mode) {
    ASSERT_EQ(results[mode].grads.size(), results[0].grads.size());
    for (auto& [name, grad] : results[mode].grads) {
      ASSERT_TRUE(results[0].grads.contains(name)) << name;
      EXPECT_EQ(tensor::max_abs_diff(grad, results[0].grads.at(name)), 0.0f)
          << name << " differs in comm mode " << mode;
    }
    ASSERT_EQ(results[mode].losses.size(), results[0].losses.size());
    for (auto& [rank, loss] : results[mode].losses) {
      EXPECT_EQ(loss, results[0].losses.at(rank)) << "loss on rank " << rank;
    }
  }

  // §4.1's claim, measured: per-rank inter-stage volume drops bsh -> bsh/t.
  if (p > 1) {
    ASSERT_GT(results[0].p2p_bytes, 0u);
    EXPECT_EQ(results[1].p2p_bytes * static_cast<std::uint64_t>(t),
              results[0].p2p_bytes);
    EXPECT_EQ(results[2].p2p_bytes, results[1].p2p_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CommModes, ScatterGatherEquivalenceTest,
    ::testing::Values(SgCase{ScheduleType::kOneFOneB, 2, 2, 4, 1},
                      SgCase{ScheduleType::kGPipe, 2, 2, 2, 1},
                      SgCase{ScheduleType::kOneFOneB, 2, 4, 4, 1},
                      SgCase{ScheduleType::kOneFOneB, 4, 2, 4, 1},
                      SgCase{ScheduleType::kInterleaved, 2, 2, 4, 2}));

TEST(PipelineExecutor, ChunkBackwardHookFiresOncePerChunkAfterLastBackward) {
  const int p = 2, m = 4, v = 2;
  GptConfig c = tiny_config(/*layers=*/p * v);
  auto mbs = make_microbatches(c, m, /*b=*/2);
  dist::World world(p);
  world.run([&](dist::Comm& comm) {
    dist::Comm tp = dist::Comm::solo();
    auto chunks = build_chunks(c, tp, p, comm.rank(), v, /*recompute=*/false);
    std::vector<GptStage*> raw;
    for (auto& ch : chunks) {
      ch->zero_grads();
      raw.push_back(ch.get());
    }
    PipelineExecutor exec(raw, comm, ScheduleParams{ScheduleType::kInterleaved, p, m, v});
    std::vector<int> fired;
    exec.set_chunk_backward_hook([&](int chunk) {
      fired.push_back(chunk);
      // At hook time the chunk's grads must be final: nothing may still be
      // zero-only if the batch produced gradient signal (checked cheaply by
      // non-empty grads; exact finality is covered by the reducer tests).
      for (Param* param : raw[static_cast<std::size_t>(chunk)]->params()) {
        EXPECT_GT(param->grad.numel(), 0);
      }
    });
    exec.run_batch(mbs);
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(v));  // once per chunk
    std::vector<int> sorted = fired;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1}));
    // Higher virtual stages finish their backwards first.
    EXPECT_EQ(fired.front(), v - 1);
    EXPECT_EQ(fired.back(), 0);
  });
}

TEST(PipelineExecutor, RecomputeMatchesStashedAcrossPipeline) {
  const int p = 2, m = 4, v = 1;
  GptConfig c = tiny_config(/*layers=*/2);
  c.dropout = 0.1f;  // recompute must replay dropout masks
  auto mbs = make_microbatches(c, m, /*b=*/2);

  // Run twice — with and without recompute — and compare grads exactly.
  std::map<std::string, Tensor> with, without;
  for (bool recompute : {false, true}) {
    dist::World world(p);
    auto& sink = recompute ? with : without;
    std::mutex mu;
    world.run([&](dist::Comm& comm) {
      dist::Comm tp = dist::Comm::solo();
      auto chunks = build_chunks(c, tp, p, comm.rank(), v, recompute);
      std::vector<GptStage*> raw;
      for (auto& ch : chunks) {
        ch->zero_grads();
        raw.push_back(ch.get());
      }
      PipelineExecutor exec(raw, comm, {ScheduleType::kOneFOneB, p, m, v});
      exec.run_batch(mbs);
      std::lock_guard lock(mu);
      for (auto& ch : chunks) {
        for (Param* param : ch->params()) {
          // Key by rank too: "embedding.word" exists on both the first
          // stage (embedding) and last stage (tied head copy).
          sink.emplace("rank" + std::to_string(comm.rank()) + "/" + param->name,
                       param->grad.clone());
        }
      }
    });
  }
  ASSERT_EQ(with.size(), without.size());
  for (auto& [name, grad] : with) {
    ASSERT_TRUE(without.contains(name)) << name;
    EXPECT_EQ(tensor::max_abs_diff(grad, without.at(name)), 0.0f) << name;
  }
}

TEST(PipelineExecutor, RejectsWrongMicrobatchCount) {
  GptConfig c = tiny_config(2);
  auto mbs = make_microbatches(c, 2, 2);
  dist::World world(2);
  EXPECT_THROW(world.run([&](dist::Comm& comm) {
                 dist::Comm tp = dist::Comm::solo();
                 auto chunks = build_chunks(c, tp, 2, comm.rank(), 1, false);
                 std::vector<GptStage*> raw{chunks[0].get()};
                 PipelineExecutor exec(raw, comm, {ScheduleType::kOneFOneB, 2, 4, 1});
                 exec.run_batch(mbs);  // 2 mbs but schedule expects 4
               }),
               dist::RankFailure);
}

}  // namespace
}  // namespace ptdp::pipeline
